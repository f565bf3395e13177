/**
 * @file
 * Differential tests for the parallel sweep engine (machine/sweep.h).
 *
 * The engine's contract is that parallelism is unobservable: a sweep
 * at --jobs N produces the same per-run digests, the same aggregate
 * metrics, and the same failure report as the serial sweep, for every
 * workload and under injected faults. These tests pin that contract by
 * running the same task lists at jobs {1, 2, 4, 8} and comparing
 * RunResults field-by-field, plus watchdog/cancellation behaviour and
 * the claim order of the parallelFor pool underneath.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <vector>

#include "machine/experiment.h"
#include "machine/sweep.h"
#include "sim/error.h"
#include "test_util.h"
#include "wl/trace_generator.h"
#include "wl/workloads.h"

namespace memento {
namespace {

/** Shrink a paper workload so a test run takes milliseconds. */
WorkloadSpec
downscale(const WorkloadSpec &spec)
{
    WorkloadSpec s = spec;
    s.numAllocs = std::min<std::uint64_t>(s.numAllocs, 2000);
    s.staticWsBytes = std::min<std::uint64_t>(s.staticWsBytes, 64 << 10);
    s.rpcBytes = std::min<std::uint64_t>(s.rpcBytes, 4 << 10);
    return s;
}

/** The four config variants every workload is swept under. */
std::vector<SweepTask>
tasksFor(const WorkloadSpec &spec)
{
    RunOptions ro;
    ro.computeDigest = true;

    const MachineConfig base = test::smallConfig();
    const MachineConfig memento = test::smallMementoConfig();
    MachineConfig no_bypass = memento;
    no_bypass.memento.bypassEnabled = false;
    // A faulted variant keeps the failure path inside the differential
    // check: the corrupt record must fail identically at any N.
    MachineConfig faulted = memento;
    faulted.inject.traceCorruptAt = 120;
    faulted.inject.workload = spec.id;

    return {{spec, base, ro, nullptr, {}},
            {spec, memento, ro, nullptr, {}},
            {spec, no_bypass, ro, nullptr, {}},
            {spec, faulted, ro, nullptr, {}}};
}

std::vector<SweepOutcome>
sweepAt(unsigned jobs, const std::vector<SweepTask> &tasks,
        bool keep_going = true)
{
    SweepOptions so;
    so.jobs = jobs;
    so.keepGoing = keep_going;
    SweepEngine engine(so);
    return engine.run(tasks);
}

void
expectSameOutcome(const SweepOutcome &got, const SweepOutcome &want,
                  const std::string &ctx)
{
    ASSERT_EQ(got.skipped, want.skipped) << ctx;
    EXPECT_EQ(got.result.digest, want.result.digest) << ctx;
    EXPECT_EQ(got.result.cycles, want.result.cycles) << ctx;
    ASSERT_EQ(got.result.failed(), want.result.failed()) << ctx;
    if (got.result.failed() && want.result.failed()) {
        EXPECT_EQ(got.result.error->category, want.result.error->category)
            << ctx;
        EXPECT_EQ(got.result.error->message, want.result.error->message)
            << ctx;
        EXPECT_EQ(got.result.error->opIndex, want.result.error->opIndex)
            << ctx;
    }
    // Field-wise sweep over every metric, digest included.
    EXPECT_TRUE(got.result == want.result) << ctx << ": RunResult differs";
}

class ParallelSweepDeterminism
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ParallelSweepDeterminism, MatchesSerialAtAnyJobCount)
{
    const WorkloadSpec spec = downscale(workloadById(GetParam()));
    const std::vector<SweepTask> tasks = tasksFor(spec);

    const std::vector<SweepOutcome> serial = sweepAt(1, tasks);
    ASSERT_EQ(serial.size(), tasks.size());

    // The faulted variant (task 3) must have failed and its siblings
    // survived — per-worker SimError capture, not pool teardown.
    EXPECT_FALSE(serial[0].result.failed()) << serial[0].result.error->message;
    EXPECT_FALSE(serial[1].result.failed());
    EXPECT_FALSE(serial[2].result.failed());
    ASSERT_TRUE(serial[3].result.failed());
    EXPECT_EQ(serial[3].result.error->category, ErrorCategory::Trace);

    for (unsigned jobs : {2u, 4u, 8u}) {
        const std::vector<SweepOutcome> parallel = sweepAt(jobs, tasks);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            expectSameOutcome(parallel[i], serial[i],
                              spec.id + " task " + std::to_string(i) +
                                  " jobs " + std::to_string(jobs));
        }
    }
}

std::vector<std::string>
allWorkloadIds()
{
    std::vector<std::string> ids;
    for (const WorkloadSpec &spec : allWorkloads())
        ids.push_back(spec.id);
    return ids;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, ParallelSweepDeterminism,
    ::testing::ValuesIn(allWorkloadIds()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name;
    });

/** The whole suite at once, with faults, keep-going: reports match. */
TEST(ParallelSweepEngine, FullSweepFailureReportMatchesSerial)
{
    RunOptions ro;
    ro.computeDigest = true;
    const MachineConfig base = test::smallConfig();
    const MachineConfig memento = test::smallMementoConfig();

    std::vector<SweepTask> tasks;
    for (const WorkloadSpec &full : allWorkloads()) {
        const WorkloadSpec spec = downscale(full);
        tasks.push_back({spec, base, ro, nullptr, {}});
        MachineConfig cfg = memento;
        // Fault two of the workloads so the report is non-trivial.
        if (spec.id == "aes" || spec.id == "bfs") {
            cfg.inject.traceCorruptAt = 200;
            cfg.inject.workload = spec.id;
        }
        tasks.push_back({spec, cfg, ro, nullptr, {}});
    }

    const auto serial = sweepAt(1, tasks, /*keep_going=*/true);
    const auto parallel = sweepAt(8, tasks, /*keep_going=*/true);
    ASSERT_EQ(parallel.size(), serial.size());

    // The merged failure report (workload, category, message, op) is
    // derived purely from outcome order, so outcome equality implies
    // report equality — assert both anyway.
    std::vector<std::string> serial_report, parallel_report;
    for (std::size_t i = 0; i < serial.size(); ++i) {
        expectSameOutcome(parallel[i], serial[i],
                          "task " + std::to_string(i));
        for (const auto *out : {&serial[i], &parallel[i]}) {
            auto &report =
                out == &serial[i] ? serial_report : parallel_report;
            if (out->result.failed())
                report.push_back(
                    out->result.workload + "/" +
                    std::string(
                        errorCategoryName(out->result.error->category)) +
                    "/" + out->result.error->message + "/" +
                    std::to_string(out->result.error->opIndex));
        }
    }
    EXPECT_EQ(serial_report, parallel_report);
    EXPECT_EQ(serial_report.size(), 2u);
}

/** Without keep-going, the reported prefix matches the serial sweep. */
TEST(ParallelSweepEngine, CancellationPreservesSerialPrefix)
{
    RunOptions ro;
    ro.computeDigest = true;
    const MachineConfig memento = test::smallMementoConfig();

    std::vector<SweepTask> tasks;
    std::size_t fail_at = 0;
    std::size_t idx = 0;
    for (const WorkloadSpec &full : allWorkloads()) {
        const WorkloadSpec spec = downscale(full);
        MachineConfig cfg = memento;
        if (idx == 10) { // Fail in the middle of the sweep.
            cfg.inject.traceCorruptAt = 200;
            cfg.inject.workload = spec.id;
            fail_at = idx;
        }
        tasks.push_back({spec, cfg, ro, nullptr, {}});
        ++idx;
    }

    const auto serial = sweepAt(1, tasks, /*keep_going=*/false);
    const auto parallel = sweepAt(4, tasks, /*keep_going=*/false);

    // Serial semantics: everything before the failure ran, the failure
    // is recorded, everything after was cancelled.
    for (std::size_t i = 0; i < fail_at; ++i) {
        EXPECT_FALSE(serial[i].skipped);
        expectSameOutcome(parallel[i], serial[i],
                          "prefix task " + std::to_string(i));
    }
    ASSERT_TRUE(serial[fail_at].result.failed());
    expectSameOutcome(parallel[fail_at], serial[fail_at], "failing task");
    for (std::size_t i = fail_at + 1; i < serial.size(); ++i) {
        EXPECT_TRUE(serial[i].skipped);
        // A parallel sibling may have started before the failure was
        // observed; either way it must never have failed spuriously
        // and the merge never reports past fail_at.
        if (!parallel[i].skipped) {
            EXPECT_FALSE(parallel[i].result.failed());
        }
    }
}

TEST(ParallelSweepEngine, TraceGeneratedOncePerWorkload)
{
    RunOptions ro;
    const MachineConfig base = test::smallConfig();
    const MachineConfig memento = test::smallMementoConfig();

    std::vector<SweepTask> tasks;
    std::vector<std::string> ids = {"aes", "jl", "silo"};
    for (const std::string &id : ids) {
        const WorkloadSpec spec = downscale(workloadById(id));
        tasks.push_back({spec, base, ro, nullptr, {}});
        tasks.push_back({spec, memento, ro, nullptr, {}});
        tasks.push_back({spec, memento, ro, nullptr, {}});
    }

    SweepOptions so;
    so.jobs = 4;
    SweepEngine engine(so);
    const auto outcomes = engine.run(tasks);
    for (const SweepOutcome &out : outcomes)
        EXPECT_FALSE(out.result.failed());
    EXPECT_EQ(engine.traceCache().generations(), ids.size())
        << "each workload's trace must be synthesized exactly once";
}

TEST(ParallelSweepEngine, EmptyTaskListIsANoOp)
{
    SweepEngine engine;
    EXPECT_TRUE(engine.run({}).empty());
}

TEST(ParallelSweepEngine, CompareSweepMatchesSerialCompare)
{
    const MachineConfig base = test::smallConfig();
    const MachineConfig memento = test::smallMementoConfig();
    std::vector<WorkloadSpec> specs = {downscale(workloadById("aes")),
                                       downscale(workloadById("jl"))};

    SweepOptions so;
    so.jobs = 4;
    SweepEngine engine(so);
    const auto outcomes =
        compareSweep(specs, base, memento, RunOptions{}, engine);
    ASSERT_EQ(outcomes.size(), specs.size());

    for (std::size_t i = 0; i < specs.size(); ++i) {
        ASSERT_FALSE(outcomes[i].error.has_value());
        const Comparison serial =
            Experiment::compare(specs[i], base, memento, RunOptions{});
        EXPECT_TRUE(outcomes[i].cmp.base == serial.base);
        EXPECT_TRUE(outcomes[i].cmp.memento == serial.memento);
        EXPECT_TRUE(outcomes[i].cmp.mementoNoBypass ==
                    serial.mementoNoBypass);
    }
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce)
{
    for (const unsigned jobs : {1u, 2u, 3u, 8u}) {
        for (const std::size_t n : {0u, 1u, 2u, 7u, 64u}) {
            std::vector<std::atomic<int>> runs(n);
            parallelFor(n, jobs, [&](std::size_t i) { runs[i].fetch_add(1); });
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(runs[i].load(), 1)
                    << "jobs " << jobs << " n " << n << " index " << i;
        }
    }
}

/**
 * Workers claim from one cursor in index order. Task 0 holds one of
 * two workers until every other task has run, so the free worker runs
 * 1..n-1 alone, and must run them in ascending order.
 */
TEST(ParallelFor, FreeWorkerClaimsInAscendingOrder)
{
    constexpr std::size_t kTasks = 12;
    std::mutex mu;
    std::condition_variable all_others_done;
    std::vector<std::size_t> order;

    parallelFor(kTasks, 2, [&](std::size_t i) {
        std::unique_lock<std::mutex> lock(mu);
        if (i == 0) {
            // Bounded wait: a pool that never frees the other worker
            // fails the order check below instead of hanging.
            all_others_done.wait_for(lock, std::chrono::seconds(30), [&] {
                return order.size() == kTasks - 1;
            });
            return;
        }
        order.push_back(i);
        if (order.size() == kTasks - 1)
            all_others_done.notify_one();
    });

    std::vector<std::size_t> want(kTasks - 1);
    for (std::size_t i = 0; i < want.size(); ++i)
        want[i] = i + 1;
    EXPECT_EQ(order, want);
}

/**
 * The watchdog: a run whose check.max_ops budget it would exceed times
 * out inside its worker with ErrorCategory::Timeout while siblings
 * complete.
 */
TEST(SweepWatchdog, HungRunTimesOutWhileSiblingsFinish)
{
    WorkloadSpec hung = downscale(workloadById("silo"));
    WorkloadSpec tiny = downscale(workloadById("aes"));
    tiny.numAllocs = 20;

    // Size the budget between the sibling's trace and the hung trace.
    const std::size_t tiny_ops = TraceGenerator(tiny).generate().size();
    const std::size_t hung_ops = TraceGenerator(hung).generate().size();
    const std::uint64_t budget = tiny_ops + 32;
    ASSERT_GT(hung_ops, budget);

    RunOptions ro;
    MachineConfig cfg = test::smallMementoConfig();
    cfg.check.maxOps = budget;
    MachineConfig base = test::smallConfig();
    base.check.maxOps = budget;
    std::vector<SweepTask> tasks = {{hung, cfg, ro, nullptr, {}},
                                    {tiny, cfg, ro, nullptr, {}},
                                    {tiny, base, ro, nullptr, {}}};

    SweepOptions so;
    so.jobs = 3;
    so.keepGoing = true;
    SweepEngine engine(so);
    const auto outcomes = engine.run(tasks);

    ASSERT_TRUE(outcomes[0].result.failed());
    EXPECT_EQ(outcomes[0].result.error->category, ErrorCategory::Timeout);
    ASSERT_TRUE(outcomes[0].result.error->hasOpIndex());
    EXPECT_EQ(outcomes[0].result.error->opIndex, budget);
    EXPECT_FALSE(outcomes[1].result.failed());
    EXPECT_FALSE(outcomes[2].result.failed());
}

TEST(SweepWatchdog, CycleBudgetFires)
{
    WorkloadSpec spec = downscale(workloadById("aes"));
    MachineConfig cfg = test::smallConfig();
    cfg.check.maxCycles = 1000; // Trips within the RPC bookend.

    SweepOptions so;
    so.keepGoing = true;
    SweepEngine engine(so);
    const auto outcomes =
        engine.run({{spec, cfg, RunOptions{}, nullptr, {}}});

    ASSERT_TRUE(outcomes[0].result.failed());
    EXPECT_EQ(outcomes[0].result.error->category, ErrorCategory::Timeout);
}

} // namespace
} // namespace memento
