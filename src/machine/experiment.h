/**
 * @file
 * Experiment runner: executes one workload on a given configuration
 * and extracts the metrics every figure/table of the paper is built
 * from. A Comparison pairs a baseline run, a Memento run, and a
 * bypass-disabled Memento run over the identical trace.
 */

#ifndef MEMENTO_MACHINE_EXPERIMENT_H
#define MEMENTO_MACHINE_EXPERIMENT_H

#include <array>
#include <optional>
#include <string>

#include "machine/function_executor.h"
#include "sim/config.h"
#include "sim/error.h"
#include "wl/trace.h"
#include "wl/workloads.h"

namespace memento {

/** Structured description of a failed run. */
struct RunError
{
    ErrorCategory category = ErrorCategory::Internal;
    std::string message;
    /** Trace op the failure surfaced at (kNoOpIndex when outside ops). */
    std::uint64_t opIndex = SimError::kNoOpIndex;

    bool hasOpIndex() const { return opIndex != SimError::kNoOpIndex; }

    bool operator==(const RunError &) const = default;
};

/**
 * Metrics of one run (deltas over the measurement window).
 *
 * Serialization contract: RunResult is persisted by the result store
 * (machine/result_store.cc). A new metric field must be added to the
 * store's writer/loader pair — the store's round-trip test compares
 * with operator== and will catch a loader that drops it, but only if
 * the test's sample result sets the field to a non-default value.
 */
struct RunResult
{
    std::string workload;
    Cycles cycles = 0;
    std::array<Cycles, kNumCycleCategories> byCategory{};
    std::uint64_t instructions = 0;

    std::uint64_t dramBytes = 0;
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
    std::uint64_t bypassedLines = 0;

    /** Aggregate (cumulative) pages allocated during the run. */
    std::uint64_t aggUserPages = 0;
    std::uint64_t aggKernelPages = 0;
    std::uint64_t peakResidentPages = 0;

    std::uint64_t pageFaults = 0;
    std::uint64_t mmapCalls = 0;
    std::uint64_t poolRefills = 0;

    std::uint64_t hotAllocHits = 0;
    std::uint64_t hotAllocMisses = 0;
    std::uint64_t hotFreeHits = 0;
    std::uint64_t hotFreeMisses = 0;
    std::uint64_t allocListOps = 0;
    std::uint64_t freeListOps = 0;
    std::uint64_t objAllocs = 0; ///< Small allocations performed.
    std::uint64_t objFrees = 0;  ///< Small frees performed.
    /**
     * HOT entries valid when the run ended (0 without Memento). The
     * fleet scheduler charges this many writebacks when a context
     * switch flushes the instance's HOT residue off the core.
     */
    std::uint64_t hotValidEntries = 0;
    /**
     * §6.6 fragmentation: the allocator's inactive-slot fraction (small
     * object slots in allocated arenas that hold no live object). Not
     * an end-of-run value: FunctionExecutor checks live bytes every
     * 4096 mallocs and samples at the check with the highest live
     * bytes (the latest such check on ties). Only a run with no check
     * above zero live bytes samples at function exit, before teardown.
     */
    double fragInactiveFraction = 0.0;

    /**
     * Set when the run failed: metrics above cover the partial window
     * up to the failure (useful for localising the fault).
     */
    std::optional<RunError> error;
    /** Machine-state digest (RunOptions::computeDigest; 0 otherwise). */
    std::uint64_t digest = 0;

    bool failed() const { return error.has_value(); }

    /**
     * Field-wise equality, digest included. The parallel sweep's
     * differential tests lean on this: a run is only deterministic if
     * *every* metric reproduces, not just the state digest.
     */
    bool operator==(const RunResult &) const = default;

    Cycles
    category(CycleCategory cat) const
    {
        return byCategory[static_cast<std::size_t>(cat)];
    }

    /** Userspace memory-management cycles (Table 2 numerator). */
    Cycles userMmCycles() const;
    /** Kernel memory-management cycles. */
    Cycles kernelMmCycles() const;
    /** Hardware (Memento) memory-management cycles. */
    Cycles hwMmCycles() const;

    double
    executionMs(const MachineConfig &cfg) const
    {
        return cfg.cyclesToMs(cycles);
    }
};

/** Paired runs of one workload. */
struct Comparison
{
    WorkloadSpec spec;
    RunResult base;           ///< Software baseline.
    RunResult memento;        ///< Full Memento.
    RunResult mementoNoBypass; ///< Memento with bypass disabled.

    double speedup() const;
    /** 1 - memento DRAM bytes / baseline DRAM bytes. */
    double bandwidthReduction() const;
};

/**
 * Runs workloads on configurations.
 *
 * Thread safety: every run builds its own Machine, and a Machine owns
 * all of its mutable state (stats registry, cycle ledger, allocators,
 * RNGs), so concurrent runOne/tryRunOne calls on *distinct* machines
 * are safe — machine/sweep.h builds its worker pool directly on top of
 * this contract. The shared Trace argument is only ever read.
 */
class Experiment
{
  public:
    /**
     * Execute @p trace for @p spec on a fresh machine under @p cfg.
     * Throws SimError when the run fails (callers that need to survive
     * failures use tryRunOne).
     */
    static RunResult runOne(const WorkloadSpec &spec, const Trace &trace,
                            const MachineConfig &cfg, RunOptions opts = {});

    /**
     * Like runOne, but a failing run is captured instead of thrown:
     * the result's error field holds the category, message, and op
     * index, and the metric fields cover the partial window executed
     * before the failure. Only SimError (recoverable, per-run) is
     * caught — panics still abort, by design. When @p cfg's fault plan
     * names a different workload, the plan is stripped for this run.
     */
    static RunResult tryRunOne(const WorkloadSpec &spec,
                               const Trace &trace,
                               const MachineConfig &cfg,
                               RunOptions opts = {});

    /** Baseline + Memento + Memento-no-bypass over one shared trace. */
    static Comparison compare(const WorkloadSpec &spec,
                              const MachineConfig &base_cfg,
                              const MachineConfig &memento_cfg,
                              RunOptions opts = {});

    /** compare() with the default Table 3 configurations. */
    static Comparison compareDefault(const WorkloadSpec &spec,
                                     RunOptions opts = {});
};

} // namespace memento

#endif // MEMENTO_MACHINE_EXPERIMENT_H
