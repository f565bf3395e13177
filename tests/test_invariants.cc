/**
 * @file
 * Tests for the src/val layer: every invariant family must pass on a
 * healthy machine and fire on a deliberately corrupted one, and the
 * machine-state digest must be reproducible across identical runs.
 */

#include <gtest/gtest.h>

#include <string>

#include "machine/experiment.h"
#include "machine/function_executor.h"
#include "machine/machine.h"
#include "sim/error.h"
#include "test_util.h"
#include "val/digest.h"
#include "val/invariants.h"
#include "wl/trace_generator.h"

namespace memento {

/** Befriended by Cache, BuddyAllocator, and CycleLedger. */
struct InvariantTestPeer
{
    static void
    corruptLedger(CycleLedger &ledger)
    {
        ledger.total_ += 5; // Cycles nobody charged to a category.
    }

    static void
    corruptBuddy(BuddyAllocator &buddy)
    {
        buddy.allocatedPages_ += 1; // Phantom live page.
    }

    /** The first invalid way of @p cache, invalidating way 0 if none. */
    static Cache::Line &
    invalidWay(Cache &cache)
    {
        for (auto &line : cache.lines_) {
            if (line.tag == Cache::kNoTag)
                return line;
        }
        cache.lines_.front() = {Cache::kNoTag, 0};
        return cache.lines_.front();
    }

    /** Leave one line invalid yet dirty. */
    static void
    corruptCacheLine(Cache &cache)
    {
        invalidWay(cache).meta |= 1;
    }

    /**
     * Give an invalid way another way's stamp: it would no longer be
     * the first invalid way the victim scan picks.
     */
    static void
    corruptInvalidWayStamp(Cache &cache)
    {
        invalidWay(cache).meta += 2;
    }

    /** Give a resident line a stamp from the invalid-way range. */
    static void
    lowerResidentStamp(Cache &cache)
    {
        for (auto &line : cache.lines_) {
            if (line.tag != Cache::kNoTag) {
                line.meta &= 1;
                return;
            }
        }
    }

    /** Skew a resident tag so it maps to a neighbouring set. */
    static void
    skewResidentTag(Cache &cache)
    {
        for (auto &line : cache.lines_) {
            if (line.tag != Cache::kNoTag) {
                line.tag ^= 1;
                return;
            }
        }
    }
};

namespace {

WorkloadSpec
tinySpec(Language lang)
{
    WorkloadSpec spec;
    spec.id = "tiny";
    spec.lang = lang;
    spec.numAllocs = 400;
    spec.sizeDist = SizeDistribution({SizeBucket{1.0, 16, 128}});
    spec.largeDist = SizeDistribution({SizeBucket{1.0, 520, 2048}});
    spec.lifetime = {.pShort = 0.8, .meanShortDistance = 4.0,
                     .pLongFreed = 0.0, .meanLongDistance = 100.0};
    spec.pLarge = 0.01;
    spec.computePerAlloc = 50;
    spec.staticWsBytes = 64 << 10;
    spec.rpcBytes = 1024;
    spec.seed = 42;
    return spec;
}

/** Run the tiny workload; by default stop just short of FunctionEnd so
 *  live objects and arenas remain for the corruption tests to bite. */
void
runTiny(Machine &m, Language lang, bool to_end = false)
{
    const WorkloadSpec spec = tinySpec(lang);
    m.createProcess(spec);
    const Trace trace = TraceGenerator(spec).generate();
    FunctionExecutor executor(m);
    if (to_end)
        executor.run(spec, trace);
    else
        executor.runRange(spec, trace, 0, trace.size() - 1);
}

TEST(InvariantTest, CleanBaselineMachinePasses)
{
    Machine m(test::smallConfig());
    runTiny(m, Language::Cpp);
    const InvariantReport report = InvariantChecker::check(m);
    EXPECT_TRUE(report.clean()) << report.summary();
}

TEST(InvariantTest, CleanMementoMachinePasses)
{
    Machine m(test::smallMementoConfig());
    runTiny(m, Language::Python);
    const InvariantReport report = InvariantChecker::check(m);
    EXPECT_TRUE(report.clean()) << report.summary();
    ASSERT_NE(m.mementoSpace(), nullptr);
    EXPECT_FALSE(m.mementoSpace()->arenas.empty());
}

TEST(InvariantTest, CleanAfterFullRunWithTeardown)
{
    Machine m(test::smallMementoConfig());
    runTiny(m, Language::Python, /*to_end=*/true);
    const InvariantReport report = InvariantChecker::check(m);
    EXPECT_TRUE(report.clean()) << report.summary();
}

TEST(InvariantTest, LedgerConservationViolationDetected)
{
    Machine m(test::smallConfig());
    runTiny(m, Language::Cpp);
    InvariantTestPeer::corruptLedger(m.ledger());
    const InvariantReport report = InvariantChecker::check(m);
    ASSERT_FALSE(report.clean());
    EXPECT_NE(report.summary().find("ledger"), std::string::npos);
}

TEST(InvariantTest, BuddyAccountingViolationDetected)
{
    Machine m(test::smallConfig());
    runTiny(m, Language::Cpp);
    InvariantTestPeer::corruptBuddy(m.buddy());
    const InvariantReport report = InvariantChecker::check(m);
    ASSERT_FALSE(report.clean());
    EXPECT_NE(report.summary().find("buddy"), std::string::npos);
}

TEST(InvariantTest, CacheDirtyInvalidLineDetected)
{
    Machine m(test::smallConfig());
    runTiny(m, Language::Cpp);
    InvariantTestPeer::corruptCacheLine(
        const_cast<Cache &>(m.hierarchy().llc()));
    const InvariantReport report = InvariantChecker::check(m);
    ASSERT_FALSE(report.clean());
    EXPECT_NE(report.summary().find("invalid line dirty"),
              std::string::npos);
}

TEST(InvariantTest, CacheInvalidWayStampDetected)
{
    Machine m(test::smallConfig());
    runTiny(m, Language::Cpp);
    InvariantTestPeer::corruptInvalidWayStamp(
        const_cast<Cache &>(m.hierarchy().llc()));
    const InvariantReport report = InvariantChecker::check(m);
    ASSERT_FALSE(report.clean());
    EXPECT_NE(report.summary().find("invalid way stamp"), std::string::npos);
}

TEST(InvariantTest, CacheLowResidentStampDetected)
{
    Machine m(test::smallConfig());
    runTiny(m, Language::Cpp);
    InvariantTestPeer::lowerResidentStamp(
        const_cast<Cache &>(m.hierarchy().l1d()));
    const InvariantReport report = InvariantChecker::check(m);
    ASSERT_FALSE(report.clean());
    EXPECT_NE(report.summary().find("valid line stamp"), std::string::npos);
}

TEST(InvariantTest, CacheTagSetMismatchDetected)
{
    Machine m(test::smallConfig());
    runTiny(m, Language::Cpp);
    InvariantTestPeer::skewResidentTag(
        const_cast<Cache &>(m.hierarchy().l1d()));
    const InvariantReport report = InvariantChecker::check(m);
    ASSERT_FALSE(report.clean());
}

TEST(InvariantTest, StrayPageTableMappingDetected)
{
    Machine m(test::smallConfig());
    runTiny(m, Language::Cpp);
    // Map a page no VMA covers to a frame outside the buddy's range.
    m.process().vm().pageTable().map(0x7000'0000'0000ull,
                                     0x3000'0000ull);
    const InvariantReport report = InvariantChecker::check(m);
    ASSERT_FALSE(report.clean());
    EXPECT_NE(report.summary().find("outside every VMA"),
              std::string::npos);
}

TEST(InvariantTest, ArenaBitmapDesyncDetected)
{
    Machine m(test::smallMementoConfig());
    runTiny(m, Language::Python);
    MementoSpace *space = m.mementoSpace();
    ASSERT_NE(space, nullptr);
    ASSERT_FALSE(space->arenas.empty());
    space->arenas.at(space->arenas.sortedKeys().front()).bitmap.flip(0);
    const InvariantReport report = InvariantChecker::check(m);
    ASSERT_FALSE(report.clean());
    EXPECT_NE(report.summary().find("bitmap"), std::string::npos);
}

TEST(InvariantTest, BumpPointerCorruptionDetected)
{
    Machine m(test::smallMementoConfig());
    runTiny(m, Language::Python);
    MementoSpace *space = m.mementoSpace();
    ASSERT_NE(space, nullptr);
    space->bump[0] += 7; // No longer arena-aligned.
    const InvariantReport report = InvariantChecker::check(m);
    ASSERT_FALSE(report.clean());
    EXPECT_NE(report.summary().find("bump pointer"), std::string::npos);
}

TEST(InvariantTest, StaleHotEntryDetected)
{
    Machine m(test::smallMementoConfig());
    runTiny(m, Language::Python);
    ASSERT_NE(m.hot(), nullptr);
    HotEntry &entry = m.hot()->entry(0);
    entry.valid = true;
    entry.arenaVa = 0xDEAD'0000ull; // No such arena header.
    const InvariantReport report = InvariantChecker::check(m);
    ASSERT_FALSE(report.clean());
    EXPECT_NE(report.summary().find("hot[0]"), std::string::npos);
}

TEST(InvariantTest, EnforceThrowsCorruptionError)
{
    Machine m(test::smallConfig());
    runTiny(m, Language::Cpp);
    InvariantTestPeer::corruptLedger(m.ledger());
    try {
        InvariantChecker::enforce(m, "unit test");
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::Corruption);
        EXPECT_NE(std::string(e.what()).find("unit test"),
                  std::string::npos);
    }
}

TEST(InvariantTest, SummaryTruncatesLongViolationLists)
{
    InvariantReport report;
    for (int i = 0; i < 12; ++i) {
        std::string item = "v";
        item += std::to_string(i);
        report.violations.push_back(item);
    }
    const std::string s = report.summary(8);
    EXPECT_NE(s.find("v7"), std::string::npos);
    EXPECT_EQ(s.find("v8"), std::string::npos);
    EXPECT_NE(s.find("(4 more)"), std::string::npos);
}

// ---------------------------------------------------------------------
// State digest
// ---------------------------------------------------------------------

TEST(DigestTest, IdenticalRunsProduceIdenticalDigests)
{
    const WorkloadSpec spec = tinySpec(Language::Python);
    const Trace trace = TraceGenerator(spec).generate();
    RunOptions opts;
    opts.computeDigest = true;

    const RunResult a =
        Experiment::runOne(spec, trace, test::smallMementoConfig(), opts);
    const RunResult b =
        Experiment::runOne(spec, trace, test::smallMementoConfig(), opts);
    EXPECT_NE(a.digest, 0u);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(digestToHex(a.digest).size(), 16u);
}

TEST(DigestTest, DifferentConfigurationsProduceDifferentDigests)
{
    const WorkloadSpec spec = tinySpec(Language::Cpp);
    const Trace trace = TraceGenerator(spec).generate();
    RunOptions opts;
    opts.computeDigest = true;

    const RunResult base =
        Experiment::runOne(spec, trace, test::smallConfig(), opts);
    const RunResult memento =
        Experiment::runOne(spec, trace, test::smallMementoConfig(), opts);
    EXPECT_NE(base.digest, memento.digest);
}

TEST(DigestTest, DigestSeesMachineStateMutation)
{
    Machine m(test::smallMementoConfig());
    runTiny(m, Language::Python);
    const std::uint64_t before = digestMachine(m);
    MementoSpace *space = m.mementoSpace();
    ASSERT_NE(space, nullptr);
    ASSERT_FALSE(space->arenas.empty());
    space->arenas.at(space->arenas.sortedKeys().front()).bitmap.flip(0);
    EXPECT_NE(digestMachine(m), before);
}

TEST(DigestTest, DigestSkippedUnlessRequested)
{
    const WorkloadSpec spec = tinySpec(Language::Cpp);
    const Trace trace = TraceGenerator(spec).generate();
    const RunResult r =
        Experiment::runOne(spec, trace, test::smallConfig());
    EXPECT_EQ(r.digest, 0u);
}

} // namespace
} // namespace memento
