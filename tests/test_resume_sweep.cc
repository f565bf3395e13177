/**
 * @file
 * Crash-safety and resumability tests for the sweep engine's result
 * store integration (machine/sweep.h + machine/result_store.h).
 *
 * The contract under test: a sweep killed at ANY instant — even with a
 * half-written record left under a final cell name — resumes to the
 * exact outcomes of an uninterrupted sweep, at any job count. The
 * kill is real: these tests fork, let the crash injections _exit the
 * child mid-sweep, and resume against the store the corpse left
 * behind.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "machine/result_store.h"
#include "machine/sweep.h"
#include "sim/error.h"
#include "test_util.h"
#include "wl/workloads.h"

namespace memento {
namespace {

namespace fs = std::filesystem;

/** A unique store directory per test, removed on destruction. */
class TempStoreDir
{
  public:
    explicit TempStoreDir(const std::string &tag)
    {
        static int counter = 0;
        path_ = (fs::temp_directory_path() /
                 ("memento-resume-test-" + std::to_string(::getpid()) +
                  "-" + tag + "-" + std::to_string(counter++)))
                    .string();
        fs::remove_all(path_);
    }

    ~TempStoreDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Shrink a paper workload so a test run takes milliseconds. */
WorkloadSpec
downscale(const WorkloadSpec &spec)
{
    WorkloadSpec s = spec;
    s.numAllocs = std::min<std::uint64_t>(s.numAllocs, 1500);
    s.staticWsBytes = std::min<std::uint64_t>(s.staticWsBytes, 64 << 10);
    s.rpcBytes = std::min<std::uint64_t>(s.rpcBytes, 4 << 10);
    return s;
}

/** Six deterministic cells: three workloads x {base, memento}. */
std::vector<SweepTask>
smallTaskList()
{
    RunOptions ro;
    ro.computeDigest = true;
    std::vector<SweepTask> tasks;
    for (const char *id : {"aes", "jl", "silo"}) {
        const WorkloadSpec spec = downscale(workloadById(id));
        tasks.push_back({spec, test::smallConfig(), ro, nullptr, {}});
        tasks.push_back(
            {spec, test::smallMementoConfig(), ro, nullptr, {}});
    }
    return tasks;
}

std::vector<SweepOutcome>
sweepWith(const std::vector<SweepTask> &tasks, SweepOptions so)
{
    SweepEngine engine(std::move(so));
    return engine.run(tasks);
}

/** The uninterrupted no-store reference for @p tasks. */
std::vector<SweepOutcome>
reference(const std::vector<SweepTask> &tasks)
{
    SweepOptions so;
    so.jobs = 1;
    so.keepGoing = true;
    return sweepWith(tasks, so);
}

void
expectSameResults(const std::vector<SweepOutcome> &got,
                  const std::vector<SweepOutcome> &want,
                  const std::string &ctx)
{
    ASSERT_EQ(got.size(), want.size()) << ctx;
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_FALSE(got[i].skipped) << ctx << " task " << i;
        EXPECT_TRUE(got[i].result == want[i].result)
            << ctx << ": task " << i << " diverges";
    }
}

/**
 * Fork, run the sweep in the child against a store armed with @p
 * crash_opts, and return the child's exit status. The injections
 * _exit(121/137) mid-sweep; a child that survives exits 0.
 */
int
runSweepInChildThatCrashes(const std::vector<SweepTask> &tasks,
                           ResultStoreOptions crash_opts, unsigned jobs)
{
    const pid_t pid = ::fork();
    if (pid == 0) {
        ResultStore store(std::move(crash_opts));
        SweepOptions so;
        so.jobs = jobs;
        so.keepGoing = true;
        so.store = &store;
        SweepEngine engine(std::move(so));
        engine.run(tasks);
        ::_exit(0);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    return status;
}

TEST(CrashResume, KillMidSweepThenResumeMatchesReference)
{
    TempStoreDir dir("kill");
    const std::vector<SweepTask> tasks = smallTaskList();
    const std::vector<SweepOutcome> want = reference(tasks);

    // The child dies by _exit right after its third completed store —
    // the moment SIGKILL would strike — leaving exactly three durable
    // cells behind.
    const int status = runSweepInChildThatCrashes(
        tasks, {.dir = dir.path(), .codeVersion = "test-sha", .killAt = 3},
        2);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 137);
    EXPECT_EQ(ResultStore({.dir = dir.path(), .codeVersion = "test-sha"})
                  .listCellFiles()
                  .size(),
              3u);

    // Resume at a different job count: identical outcomes, three of
    // them straight from the corpse's store.
    ResultStore store({.dir = dir.path(), .codeVersion = "test-sha"});
    SweepOptions so;
    so.jobs = 3;
    so.keepGoing = true;
    so.store = &store;
    const std::vector<SweepOutcome> got = sweepWith(tasks, so);
    expectSameResults(got, want, "resume after kill");

    std::size_t cached = 0;
    for (const SweepOutcome &out : got)
        cached += out.fromCache ? 1 : 0;
    EXPECT_EQ(cached, 3u);
    EXPECT_EQ(store.stats().hits, 3u);
    EXPECT_EQ(store.stats().quarantined, 0u);
}

TEST(CrashResume, TornRecordIsQuarantinedAndRecomputedOnResume)
{
    TempStoreDir dir("torn");
    const std::vector<SweepTask> tasks = smallTaskList();
    const std::vector<SweepOutcome> want = reference(tasks);

    // The child tears its second store in half under the FINAL cell
    // name (simulating the worst a broken filesystem can do) and dies.
    const int status = runSweepInChildThatCrashes(
        tasks,
        {.dir = dir.path(), .codeVersion = "test-sha", .tornWriteAt = 2},
        1);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 121);
    // One complete cell plus one torn record under a final name.
    EXPECT_EQ(ResultStore({.dir = dir.path(), .codeVersion = "test-sha"})
                  .listCellFiles()
                  .size(),
              2u);

    ResultStore store({.dir = dir.path(), .codeVersion = "test-sha"});
    SweepOptions so;
    so.jobs = 2;
    so.keepGoing = true;
    so.store = &store;
    const std::vector<SweepOutcome> got = sweepWith(tasks, so);
    expectSameResults(got, want, "resume after torn write");

    // The torn record was detected, quarantined, and recomputed.
    const StoreStats stats = store.stats();
    EXPECT_EQ(stats.quarantined, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, tasks.size() - 1);
}

TEST(ResumeSweep, CacheHitsAreIdenticalAtAnyJobCount)
{
    TempStoreDir dir("jobs");
    const std::vector<SweepTask> tasks = smallTaskList();
    const std::vector<SweepOutcome> want = reference(tasks);

    ResultStore seed({.dir = dir.path(), .codeVersion = "test-sha"});
    SweepOptions fill;
    fill.jobs = 1;
    fill.keepGoing = true;
    fill.store = &seed;
    expectSameResults(sweepWith(tasks, fill), want, "filling sweep");

    for (unsigned jobs : {1u, 2u, 4u}) {
        ResultStore store({.dir = dir.path(), .codeVersion = "test-sha"});
        SweepOptions so;
        so.jobs = jobs;
        so.keepGoing = true;
        so.store = &store;
        const std::vector<SweepOutcome> got = sweepWith(tasks, so);
        expectSameResults(got, want,
                          "cached at jobs " + std::to_string(jobs));
        for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_TRUE(got[i].fromCache) << "jobs " << jobs << " task "
                                          << i;
        EXPECT_EQ(store.stats().hits, tasks.size());
        EXPECT_EQ(store.stats().misses, 0u);
    }
}

TEST(ResumeSweep, RevalidateDetectsDoctoredRecordAndHealsTheStore)
{
    TempStoreDir dir("revalidate");
    std::vector<SweepTask> tasks = {smallTaskList()[0]};
    const std::vector<SweepOutcome> want = reference(tasks);

    // Doctor the cached cell: same key, subtly different result. The
    // record itself stays checksum-valid — only recomputation can
    // catch this. l1d.hits is a counter no RunResult accessor reads:
    // revalidation still compares every reading.
    const std::vector<void (*)(RunResult &)> doctors = {
        [](RunResult &r) { r.cycles += 1; },
        [](RunResult &r) {
            for (CounterReading &c : r.counters) {
                if (c.name == "l1d.hits")
                    c.end += 1;
            }
        },
    };
    for (std::size_t d = 0; d < doctors.size(); ++d) {
        SCOPED_TRACE(d == 0 ? "cycles" : "l1d.hits");
        ResultStore store({.dir = dir.path(), .codeVersion = "test-sha"});
        SweepOptions fill;
        fill.jobs = 1;
        fill.keepGoing = true;
        fill.store = &store;
        sweepWith(tasks, fill);

        const CellKey key = store.runCellKey(tasks[0].spec.id,
                                             tasks[0].cfg, tasks[0].opts);
        RunResult doctored;
        unsigned attempts = 1;
        ASSERT_TRUE(store.loadRun(key, doctored, attempts));
        const RunResult original = doctored;
        doctors[d](doctored);
        ASSERT_FALSE(doctored == original);
        store.storeRun(key, doctored, attempts);

        // A revalidating sweep recomputes the hit, sees the
        // divergence, fails the cell loudly, and heals the store.
        SweepOptions audit = fill;
        audit.revalidateEvery = 1;
        const std::vector<SweepOutcome> caught = sweepWith(tasks, audit);
        ASSERT_TRUE(caught[0].result.failed());
        EXPECT_EQ(caught[0].result.error->category,
                  ErrorCategory::Corruption);
        EXPECT_EQ(store.stats().quarantined, 1u);

        // Healed: the next revalidating sweep passes its audit.
        ResultStore healed({.dir = dir.path(), .codeVersion = "test-sha"});
        SweepOptions again;
        again.jobs = 1;
        again.keepGoing = true;
        again.store = &healed;
        again.revalidateEvery = 1;
        const std::vector<SweepOutcome> got = sweepWith(tasks, again);
        expectSameResults(got, want, "after healing");
        EXPECT_EQ(healed.stats().revalidated, 1u);
        EXPECT_EQ(healed.stats().quarantined, 0u);
    }
}

TEST(ResumeSweep, StopFlagSkipsEverythingNotYetStarted)
{
    TempStoreDir dir("stop");
    const std::vector<SweepTask> tasks = smallTaskList();

    ResultStore store({.dir = dir.path(), .codeVersion = "test-sha"});
    std::atomic<bool> stop{true}; // Raised before the sweep begins.
    SweepOptions so;
    so.jobs = 2;
    so.keepGoing = true;
    so.store = &store;
    so.stopFlag = &stop;
    const std::vector<SweepOutcome> got = sweepWith(tasks, so);

    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_TRUE(got[i].skipped) << "task " << i;
    EXPECT_EQ(store.stats().stores, 0u);
    EXPECT_TRUE(store.listCellFiles().empty());
}

} // namespace
} // namespace memento
