/**
 * @file
 * Executes a workload trace on a Machine: binds object ids to the
 * addresses the live allocator returns, issues application memory
 * references, and adds the serverless bookends (optional container
 * set-up for cold starts, RPC input/output, batch free at exit).
 */

#ifndef MEMENTO_MACHINE_FUNCTION_EXECUTOR_H
#define MEMENTO_MACHINE_FUNCTION_EXECUTOR_H

#include <unordered_map>
#include <vector>

#include "machine/machine.h"
#include "wl/trace.h"
#include "wl/workloads.h"

namespace memento {

/** Per-run options. */
struct RunOptions
{
    /** Charge the container set-up path before executing (§6.6). */
    bool coldStart = false;
    /** Charge RPC bookends (functions fetch inputs / store results). */
    bool chargeRpc = true;
    /** Hash the final machine state into RunResult::digest. */
    bool computeDigest = false;
};

/**
 * Trace interpreter.
 *
 * Holds no static or process-global state (audited for the parallel
 * sweep engine): object bindings, fragmentation samples, and fault
 * bookkeeping all live in the instance, and all machine state lives in
 * the Machine. Distinct executor+machine pairs may therefore run
 * concurrently on different threads; the shared Trace is read-only.
 */
class FunctionExecutor
{
  public:
    explicit FunctionExecutor(Machine &machine) : machine_(machine) {}

    /**
     * Run @p trace for the machine's current process.
     *
     * The trace must be self-consistent (every Free matches a Malloc);
     * violations raise SimError(ErrorCategory::Trace) tagged with the
     * offending op index. The machine configuration's check.* keys arm
     * a watchdog (max ops / max cycles) and periodic invariant sweeps;
     * its inject.* keys apply deterministic trace faults when the plan
     * targets @p spec.
     */
    void run(const WorkloadSpec &spec, const Trace &trace,
             RunOptions opts = {});

    /**
     * Execute ops [from, to) of @p trace (multi-process interleaving:
     * object bindings persist across calls; no RPC bookends).
     */
    void runRange(const WorkloadSpec &spec, const Trace &trace,
                  std::size_t from, std::size_t to);

    /**
     * Allocator fragmentation (§6.6's inactive-slot metric), sampled
     * periodically and reported at the point of peak live bytes — the
     * moment the heap is densest and slack is real slack rather than
     * objects that already died.
     */
    double fragSample() const { return fragSample_; }

    /** Live object count (for tests; 0 after FunctionEnd). */
    std::size_t liveObjects() const { return liveCount_; }

  private:
    struct ObjectInfo
    {
        Addr addr = 0;
        std::uint64_t size = 0;
        bool live = false;
    };

    /**
     * Ids below this bind through the flat vector; at or above it (a
     * handwritten trace with huge ids, fault injection's poisoned
     * frees) they fall back to the hash map. Bounds the vector so a
     * hostile id cannot demand 2^64 slots.
     */
    static constexpr std::uint64_t kDenseIdLimit = 1ull << 22;

    void chargeRpc(const WorkloadSpec &spec);
    void execute(const WorkloadSpec &spec, TraceOp op);
    /** inject.arena_bit_flip_at: corrupt one arena allocation bitmap. */
    void flipArenaBit();

    Machine &machine_;
    /**
     * Object bindings. Trace generators issue ids densely from 1, so
     * the common case is a bounds check plus an indexed load — the
     * hash lookup per Load/Store/Free dominated the replay profile.
     * Grown on demand; FunctionEnd clears size but keeps capacity.
     */
    std::vector<ObjectInfo> dense_;
    std::unordered_map<std::uint64_t, ObjectInfo> sparse_;
    std::size_t liveCount_ = 0;
    double fragSample_ = 0.0;
    std::uint64_t fragMaxLive_ = 0;
    std::uint64_t opsSinceFragSample_ = 0;
};

} // namespace memento

#endif // MEMENTO_MACHINE_FUNCTION_EXECUTOR_H
