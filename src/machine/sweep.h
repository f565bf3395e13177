/**
 * @file
 * Parallel sweep engine: fans (workload x configuration) runs out over
 * a thread pool and merges the outcomes back in task order, so a
 * sweep at any --jobs level reports byte-identically to the serial
 * path.
 *
 * Determinism rests on three properties, all enforced here or audited
 * in the components this header names:
 *  - every run owns a fresh Machine (no shared mutable simulator
 *    state; the Rng, StatRegistry, and allocators are all per-machine);
 *  - shared traces are immutable (TraceCache hands out
 *    shared_ptr<const Trace>, synthesized exactly once per workload);
 *  - results land in a pre-sized slot vector indexed by task order, so
 *    the merge never observes scheduling order.
 *
 * A failing run raises SimError inside its worker and is captured
 * there (Experiment::tryRunOne); one task's failure never tears down
 * its siblings. Without keep-going, tasks *after* the earliest failure
 * are cancelled cooperatively — exactly the tasks the serial sweep
 * would never have started.
 *
 * With SweepOptions::store set, the engine becomes crash-safe and
 * resumable: every completed cell (success or captured failure) is
 * persisted through the content-addressed result store before the
 * merge, cache hits skip execution entirely (including trace
 * synthesis), and a re-run after a crash reproduces the uninterrupted
 * sweep's outcomes byte-for-byte at any --jobs level. A failure is
 * never retried: every failure in the simulator is deterministic, so
 * a second attempt could only repeat it.
 */

#ifndef MEMENTO_MACHINE_SWEEP_H
#define MEMENTO_MACHINE_SWEEP_H

#include <atomic>
#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "machine/experiment.h"
#include "sim/config.h"
#include "wl/trace_generator.h"
#include "wl/workloads.h"

namespace memento {

class ResultStore;

/**
 * Run @p fn(index) for every index in [0, n), fanned out over a pool
 * of @p jobs worker threads (0 = hardware concurrency; always capped
 * at n) that claim indices in ascending order from one shared cursor.
 * With one effective worker the calls run inline on the calling thread
 * in index order — the exact serial semantics.
 *
 * This is the pool under SweepEngine, exposed for any embarrassingly
 * parallel index space (the static analyzer's `check all` uses it
 * directly). Each index runs exactly once. @p fn must not throw and
 * must be safe to call concurrently on distinct indices; writing
 * results into a pre-sized slot vector indexed by `index` keeps the
 * caller's merge deterministic at any worker count.
 */
void parallelFor(std::size_t n, unsigned jobs,
                 const std::function<void(std::size_t)> &fn);

/** One unit of sweep work: a single workload run under one config. */
struct SweepTask
{
    WorkloadSpec spec;
    MachineConfig cfg;
    RunOptions opts;
    /**
     * Replay trace override (e.g. --trace FILE). When null, the
     * engine's TraceCache synthesizes the spec's trace on first touch
     * and shares it across every task of the same workload.
     */
    std::shared_ptr<const Trace> trace;
    /**
     * Extra salt folded into this task's result-store key, for sweeps
     * that deliberately run the same (workload, config) cell more than
     * once (e.g. the digest-determinism re-run) and need both cells
     * cached separately.
     */
    std::string cacheSalt;
};

/** Sweep-wide execution policy. */
struct SweepOptions
{
    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    unsigned jobs = 0;
    /**
     * Keep running tasks after a failure (--keep-going). When false,
     * tasks ordered after the earliest failed task are cancelled
     * before they start, mirroring the serial early exit.
     */
    bool keepGoing = false;
    /**
     * Progress callback fired as each task starts, serialized by an
     * internal mutex (safe to write to a stream from). May be null.
     */
    std::function<void(const SweepTask &, std::size_t index)> onTaskStart;
    /**
     * Crash-safe result cache (machine/result_store.h). When set, each
     * task first tries to load its cell; on a miss the computed
     * outcome — success *or* captured failure — is persisted before
     * the merge. Null disables caching. Not owned.
     */
    ResultStore *store = nullptr;
    /**
     * Self-healing cache audit: recompute every cache hit whose key
     * falls in the 1-in-N sample (0 = off, 1 = every hit) and compare
     * against the stored result field-by-field. A mismatch quarantines
     * the stored record, persists the recomputed result, and reports
     * the cell failed with ErrorCategory::Corruption — loudly, because
     * a divergent cached result means the cache was lying.
     */
    unsigned revalidateEvery = 0;
    /**
     * Cooperative stop (e.g. a SIGINT flag). Tasks that have not
     * started when it becomes true are marked skipped; completed cells
     * are already durable in the store, so a later run resumes. Not
     * owned; may be null.
     */
    const std::atomic<bool> *stopFlag = nullptr;
};

/** Outcome of one sweep task, in task order. */
struct SweepOutcome
{
    RunResult result;
    /**
     * Task was cancelled before starting (a lower-indexed task failed
     * and keep-going was off, or the sweep was stopped). The
     * deterministic merge never reports skipped tasks: it stops at the
     * failure that caused them.
     */
    bool skipped = false;
    /** Result was served from the result store, not recomputed. */
    bool fromCache = false;
};

/**
 * The pool. One engine instance per sweep; the embedded TraceCache
 * lives as long as the engine, so successive run() calls on one engine
 * reuse already-synthesized traces.
 */
class SweepEngine
{
  public:
    explicit SweepEngine(SweepOptions opts = {}) : opts_(std::move(opts)) {}

    /**
     * Execute every task and return outcomes in task order. With
     * jobs == 1 the tasks run inline on the calling thread, in order —
     * the exact serial semantics; with jobs > 1 each worker claims the
     * next unstarted task in index order. Outcomes are identical
     * either way (bar scheduling of the cancellation race: a task the
     * serial path would have skipped may have run — it is still never
     * reported).
     */
    std::vector<SweepOutcome> run(const std::vector<SweepTask> &tasks);

    TraceCache &traceCache() { return cache_; }

    /** Effective worker count for this engine (resolves jobs == 0). */
    unsigned effectiveJobs() const;

  private:
    SweepOptions opts_;
    TraceCache cache_;
};

/** Per-workload outcome of a comparison sweep. */
struct ComparisonOutcome
{
    Comparison cmp;
    /**
     * First failure across the triple in (base, memento, no-bypass)
     * order — the same run the serial Experiment::compare() would have
     * thrown from. The cmp fields still hold the partial metrics of
     * every run that executed.
     */
    std::optional<RunError> error;
};

/**
 * Parallel Experiment::compare() over many workloads: each of the
 * three runs of each workload is its own sweep task, all sharing the
 * workload's cached trace. Outcomes are returned in @p specs order.
 */
std::vector<ComparisonOutcome>
compareSweep(const std::vector<WorkloadSpec> &specs,
             const MachineConfig &base_cfg,
             const MachineConfig &memento_cfg, RunOptions run_opts,
             SweepEngine &engine);

} // namespace memento

#endif // MEMENTO_MACHINE_SWEEP_H
