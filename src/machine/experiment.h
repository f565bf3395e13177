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
#include <string_view>
#include <vector>

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
 * One counter of the run machine's StatRegistry, read at both edges of
 * the measurement window. The name is the registry's own.
 */
struct CounterReading
{
    std::string name;
    /** Value after set-up (0 for a counter registered in the window). */
    std::uint64_t start = 0;
    /** Value when the window closed. */
    std::uint64_t end = 0;

    bool operator==(const CounterReading &) const = default;
};

/**
 * Metrics of one run.
 *
 * Every counter-backed metric is an accessor over `counters`, defined
 * once in the block below. A new metric is one more accessor there: the
 * result store, revalidation and `run --stats` carry every reading
 * already, without naming any of them.
 */
struct RunResult
{
    std::string workload;
    Cycles cycles = 0;
    std::array<Cycles, kNumCycleCategories> byCategory{};
    std::uint64_t instructions = 0;

    /** Every registered counter, sorted by name (StatRegistry order). */
    std::vector<CounterReading> counters;

    /**
     * Machine-wide physical high-water mark less the hardware pool's
     * idle slack (reclaimable by the OS).
     */
    std::uint64_t peakResidentPages = 0;
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
     * Set when the run failed: metrics cover the partial window up to
     * the failure (useful for localising the fault).
     */
    std::optional<RunError> error;
    /** Machine-state digest (RunOptions::computeDigest; 0 otherwise). */
    std::uint64_t digest = 0;

    bool failed() const { return error.has_value(); }

    /**
     * Field-wise equality, every counter reading and the digest
     * included. The parallel sweep's differential tests and the store's
     * revalidation lean on this: a run is only deterministic if *every*
     * counter reproduces, not just the state digest.
     */
    bool operator==(const RunResult &) const = default;

    /** end - start of counter @p name (0 when never registered). */
    std::uint64_t delta(std::string_view name) const;
    /** End value of counter @p name (0 when never registered). */
    std::uint64_t end(std::string_view name) const;

    /**
     * Name of the run process's counter @p stat. A tryRunOne machine
     * holds exactly one process, vm1 (tryRunOne panics otherwise).
     */
    static std::string
    procStat(std::string_view stat)
    {
        return "vm1." + std::string(stat);
    }

    // ---- Metrics: each is defined here and nowhere else ----

    std::uint64_t dramBytes() const { return delta("dram.bytes"); }
    /** Never-written lines zero-filled at the LLC, not fetched (§3.3). */
    std::uint64_t bypassedLines() const { return delta("hier.bypassed_lines"); }
    std::uint64_t pageFaults() const { return delta(procStat("faults")); }
    std::uint64_t mmapCalls() const { return delta(procStat("mmap_calls")); }
    std::uint64_t poolRefills() const { return delta("hwpage.pool_refills"); }
    /** Arenas the hardware page allocator handed to the object allocator. */
    std::uint64_t arenaGrants() const { return delta("hwpage.arena_grants"); }
    std::uint64_t hotAllocHits() const { return delta("hot.alloc_hits"); }
    std::uint64_t hotAllocMisses() const { return delta("hot.alloc_misses"); }
    std::uint64_t hotFreeHits() const { return delta("hot.free_hits"); }
    std::uint64_t hotFreeMisses() const { return delta("hot.free_misses"); }
    std::uint64_t allocListOps() const { return delta("hwobj.alloc_list_ops"); }
    std::uint64_t freeListOps() const { return delta("hwobj.free_list_ops"); }
    /**
     * Small allocations performed: HOT lookups plus the pymalloc,
     * jemalloc and gomalloc small paths (a run registers at most one
     * side). Under Mallacc the HOT counters stay 0 and tcmalloc is not
     * summed, so this reads 0 there; the §6.7 table prints that as "-".
     */
    std::uint64_t
    objAllocs() const
    {
        return delta("hot.alloc_hits") + delta("hot.alloc_misses") +
               delta("pymalloc.small_mallocs") +
               delta("jemalloc.small_mallocs") +
               delta("gomalloc.small_mallocs");
    }
    /** Small frees performed; the objAllocs() rules apply. */
    std::uint64_t
    objFrees() const
    {
        return delta("hot.free_hits") + delta("hot.free_misses") +
               delta("pymalloc.small_frees") +
               delta("jemalloc.small_frees") + delta("gomalloc.deaths");
    }
    /**
     * Aggregate (cumulative) user pages the OS allocated, set-up
     * included: §6.3 covers the runtime's pre-mapped pools, which is
     * where jemalloc's waste shows. Memento's hardware pool recycles
     * pages internally, so only OS grants to the pool count.
     */
    std::uint64_t
    aggUserPages() const
    {
        return end(procStat("agg_user_pages")) + end("hwpage.agg_os_pages");
    }
    /** Aggregate kernel pages: page-table pages plus VMA metadata. */
    std::uint64_t
    aggKernelPages() const
    {
        return end(procStat("agg_kernel_pages")) +
               end(procStat("agg_vma_bytes")) / kPageSize;
    }

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
     * index, and the metrics cover the partial window executed before
     * the failure. Only SimError (recoverable, per-run) is
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
