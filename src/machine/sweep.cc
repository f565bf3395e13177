#include "machine/sweep.h"

#include <atomic>
#include <mutex>
#include <thread>

#include "machine/result_store.h"
#include "sim/error.h"
#include "sim/logging.h"

namespace memento {
namespace {

/** Lower @p target to @p idx if smaller (lock-free min). */
void
atomicMin(std::atomic<std::size_t> &target, std::size_t idx)
{
    std::size_t cur = target.load(std::memory_order_relaxed);
    while (idx < cur &&
           !target.compare_exchange_weak(cur, idx,
                                         std::memory_order_relaxed)) {
    }
}

} // namespace

void
parallelFor(std::size_t n, unsigned jobs,
            const std::function<void(std::size_t)> &fn)
{
    if (jobs == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        jobs = hw != 0 ? hw : 1;
    }
    const std::size_t workers = std::min<std::size_t>(jobs, n);
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    // Workers claim indices from one cursor, so tasks start in index
    // order as in the serial loop: for sweeps, workload-major, with a
    // workload's config variants starting together on its shared trace.
    std::atomic<std::size_t> next{0};
    auto worker_loop = [&] {
        for (std::size_t idx; (idx = next.fetch_add(1)) < n;)
            fn(idx);
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w)
        pool.emplace_back(worker_loop);
    for (std::thread &t : pool)
        t.join();
}

unsigned
SweepEngine::effectiveJobs() const
{
    if (opts_.jobs != 0)
        return opts_.jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 1;
}

std::vector<SweepOutcome>
SweepEngine::run(const std::vector<SweepTask> &tasks)
{
    std::vector<SweepOutcome> outcomes(tasks.size());

    // No failure yet: every index compares below the sentinel.
    std::atomic<std::size_t> first_failure{tasks.size()};
    std::mutex start_cb_mu;

    auto run_task = [&](std::size_t idx) {
        const SweepTask &task = tasks[idx];
        SweepOutcome &out = outcomes[idx];
        out.result.workload = task.spec.id;

        // Cooperative stop (SIGINT): completed cells are already
        // durable; everything not yet started resumes next run.
        if (opts_.stopFlag != nullptr &&
            opts_.stopFlag->load(std::memory_order_relaxed)) {
            out.skipped = true;
            return;
        }

        // Serial semantics: without keep-going, the serial sweep never
        // starts a task ordered after a failure. A concurrent sibling
        // may already have run — the merge stops before reporting it.
        if (!opts_.keepGoing &&
            idx > first_failure.load(std::memory_order_relaxed)) {
            out.skipped = true;
            return;
        }

        if (opts_.onTaskStart) {
            std::lock_guard<std::mutex> lock(start_cb_mu);
            opts_.onTaskStart(task, idx);
        }

        // Run the cell, capturing any failure in-result.
        auto execute = [&]() -> RunResult {
            RunResult result;
            result.workload = task.spec.id;
            try {
                std::shared_ptr<const Trace> trace =
                    task.trace ? task.trace : cache_.get(task.spec);
                return Experiment::tryRunOne(task.spec, *trace, task.cfg,
                                             task.opts);
            } catch (const SimError &e) {
                // tryRunOne already captures SimError; this arm only
                // catches set-up failures outside it (trace synthesis).
                result.error =
                    RunError{e.category(), e.what(), e.opIndex()};
            } catch (const std::exception &e) {
                // Anything unexpected must not escape the worker thread
                // (std::terminate would tear the whole sweep down).
                result.error =
                    RunError{ErrorCategory::Internal,
                             std::string("worker: ") + e.what(),
                             SimError::kNoOpIndex};
            }
            return result;
        };

        CellKey key;
        if (opts_.store != nullptr && task.trace == nullptr) {
            key = opts_.store->runCellKey(task.spec.id, task.cfg, task.opts,
                                          task.cacheSalt);
            RunResult cached;
            unsigned attempts = 1; // Unused: the engine never retries.
            if (opts_.store->loadRun(key, cached, attempts)) {
                if (opts_.store->inRevalidateSample(
                        key, opts_.revalidateEvery)) {
                    const RunResult recomputed = execute();
                    if (recomputed == cached) {
                        opts_.store->noteRevalidated();
                    } else {
                        // The cache lied. Heal the store (quarantine
                        // the bad record, persist the recomputed one)
                        // and fail the cell loudly.
                        opts_.store->quarantine(key);
                        opts_.store->storeRun(key, recomputed, 1);
                        out.result = recomputed;
                        out.result.error = RunError{
                            ErrorCategory::Corruption,
                            "revalidate: cached result for cell " +
                                key.hex() +
                                " diverges from recomputation (record "
                                "quarantined, store healed)",
                            SimError::kNoOpIndex};
                        if (!opts_.keepGoing)
                            atomicMin(first_failure, idx);
                        return;
                    }
                }
                out.result = std::move(cached);
                out.fromCache = true;
                if (out.result.failed() && !opts_.keepGoing)
                    atomicMin(first_failure, idx);
                return;
            }
        }

        out.result = execute();
        if (opts_.store != nullptr && task.trace == nullptr)
            opts_.store->storeRun(key, out.result, 1);

        if (out.result.failed() && !opts_.keepGoing)
            atomicMin(first_failure, idx);
    };

    parallelFor(tasks.size(), effectiveJobs(), run_task);
    return outcomes;
}

std::vector<ComparisonOutcome>
compareSweep(const std::vector<WorkloadSpec> &specs,
             const MachineConfig &base_cfg,
             const MachineConfig &memento_cfg, RunOptions run_opts,
             SweepEngine &engine)
{
    panic_if(base_cfg.memento.enabled, "compareSweep: base has Memento on");
    panic_if(!memento_cfg.memento.enabled,
             "compareSweep: memento config has Memento off");

    MachineConfig no_bypass_cfg = memento_cfg;
    no_bypass_cfg.memento.bypassEnabled = false;

    std::vector<SweepTask> tasks;
    tasks.reserve(specs.size() * 3);
    for (const WorkloadSpec &spec : specs) {
        tasks.push_back({spec, base_cfg, run_opts, nullptr, {}});
        tasks.push_back({spec, memento_cfg, run_opts, nullptr, {}});
        tasks.push_back({spec, no_bypass_cfg, run_opts, nullptr, {}});
    }

    const std::vector<SweepOutcome> outcomes = engine.run(tasks);

    std::vector<ComparisonOutcome> result(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        ComparisonOutcome &out = result[i];
        out.cmp.spec = specs[i];
        out.cmp.base = outcomes[3 * i].result;
        out.cmp.memento = outcomes[3 * i + 1].result;
        out.cmp.mementoNoBypass = outcomes[3 * i + 2].result;
        // Report the failure the serial compare() would have thrown:
        // the first failed run in triple order.
        for (const RunResult *run :
             {&out.cmp.base, &out.cmp.memento, &out.cmp.mementoNoBypass}) {
            if (run->failed()) {
                out.error = run->error;
                break;
            }
        }
    }
    return result;
}

} // namespace memento
