/**
 * @file
 * Tests for the trace format, the synthetic trace generator, and the
 * workload registry.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/error.h"
#include "sim/size_class.h"
#include "test_util.h"
#include "val/digest.h"
#include "wl/trace.h"
#include "wl/trace_generator.h"
#include "wl/workloads.h"

namespace memento {
namespace {

TEST(TraceIo, RoundTrip)
{
    Trace trace = {
        {OpKind::Compute, 100, 0, 0},
        {OpKind::Malloc, 64, 1, 0},
        {OpKind::Store, 0, 1, 8},
        {OpKind::Load, 0, 1, 16},
        {OpKind::StaticLoad, 0, 0, 4096},
        {OpKind::StaticStore, 0, 0, 8192},
        {OpKind::Free, 0, 1, 0},
        {OpKind::FunctionEnd, 0, 0, 0},
    };
    std::stringstream ss;
    writeTrace(trace, ss);
    Trace parsed = readTrace(ss);
    EXPECT_EQ(parsed, trace);
}

TEST(TraceIo, SkipsCommentsAndBlankLines)
{
    std::stringstream ss("# header\n\nC 10 0 0\nE 0 0 0\n");
    Trace parsed = readTrace(ss);
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed[0].kind, OpKind::Compute);
    EXPECT_EQ(parsed[0].value, 10u);
}

TEST(TraceIo, MaxFieldValuesRoundTrip)
{
    // Every field holds UINT32_MAX exactly; nothing wraps on the way.
    const std::uint32_t max = UINT32_MAX;
    Trace trace = {
        {OpKind::Compute, max, 0, 0},
        {OpKind::Malloc, max, max, 0},
        {OpKind::Load, 0, max, max},
        {OpKind::FunctionEnd, 0, 0, 0},
    };
    std::stringstream ss;
    writeTrace(trace, ss);
    EXPECT_NE(ss.str().find("M 4294967295 4294967295 0\n"),
              std::string::npos);
    EXPECT_EQ(readTrace(ss), trace);
}

TEST(TraceIo, MalformedLineThrows)
{
    // A missing field, a field above UINT32_MAX, or a negative field is
    // a parse error at its 1-based line, never a truncated value.
    const struct
    {
        const char *text;
        std::uint64_t line;
    } cases[] = {
        {"C 10 0 0\nM 64\nE 0 0 0\n", 2},
        {"M 4294967296 1 0\nE 0 0 0\n", 1},
        {"C 10 0 0\nM 64 4294967297 0\nE 0 0 0\n", 2},
        {"# c\nM 64 1 0\nL 0 1 18446744073709551616\nE 0 0 0\n", 3},
        {"M -1 1 0\nE 0 0 0\n", 1},
        {"M 64 1 0\nF 0 -1 0\nE 0 0 0\n", 2},
        {"M 64 1 0\nL 0 1 -8\nE 0 0 0\n", 2},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.text);
        std::stringstream ss(c.text);
        try {
            readTrace(ss);
            ADD_FAILURE() << "expected SimError";
        } catch (const SimError &e) {
            EXPECT_EQ(e.category(), ErrorCategory::Trace);
            EXPECT_EQ(e.opIndex(), c.line);
            EXPECT_NE(std::string(e.what()).find(
                          "line " + std::to_string(c.line)),
                      std::string::npos);
        }
    }
}

TEST(TraceIo, UnusedFieldIsAParseError)
{
    // A Trace stores only the fields an op's kind uses, so a nonzero
    // unused field is rejected at its line instead of dropped.
    const struct
    {
        const char *text;
        std::uint64_t line;
    } cases[] = {
        {"M 64 1 0\nF 8 1 0\nE 0 0 0\n", 2},
        {"C 10 3 0\nE 0 0 0\n", 1},
        {"M 64 1 4\nE 0 0 0\n", 1},
        {"M 64 1 0\nL 1 1 8\nE 0 0 0\n", 2},
        {"# c\nl 0 2 64\nE 0 0 0\n", 2},
        {"C 10 0 0\nE 0 0 1\n", 2},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.text);
        std::stringstream ss(c.text);
        try {
            readTrace(ss);
            ADD_FAILURE() << "expected SimError";
        } catch (const SimError &e) {
            EXPECT_EQ(e.category(), ErrorCategory::Trace);
            EXPECT_EQ(e.opIndex(), c.line);
            EXPECT_NE(std::string(e.what()).find(
                          "line " + std::to_string(c.line) + ":"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(TraceStore, EveryKindKeepsItsFieldsAtFullWidth)
{
    // Each kind with UINT32_MAX in every field it uses, through every
    // way into and out of a Trace.
    const std::uint32_t max = UINT32_MAX;
    const std::vector<TraceOp> ops = {
        {OpKind::Compute, max, 0, 0},     {OpKind::Load, 0, max, max},
        {OpKind::Store, 0, max, max},     {OpKind::Malloc, max, max, 0},
        {OpKind::Free, 0, max, 0},        {OpKind::StaticLoad, 0, 0, max},
        {OpKind::StaticStore, 0, 0, max}, {OpKind::FunctionEnd, 0, 0, 0},
    };
    Trace pushed;
    Trace overwritten;
    for (const TraceOp &op : ops) {
        ASSERT_TRUE(unusedFieldsAreZero(op));
        pushed.push_back(op);
        overwritten.push_back({OpKind::Compute, 1, 0, 0});
    }
    for (std::size_t i = 0; i < ops.size(); ++i) {
        EXPECT_EQ(pushed[i], ops[i]) << i;
        overwritten.set(i, ops[i]);
    }
    EXPECT_EQ(overwritten, pushed);
    EXPECT_EQ(pushed.back(), ops.back());

    std::stringstream ss;
    writeTrace(pushed, ss);
    EXPECT_EQ(readTrace(ss), pushed);
}

TEST(TraceStore, UnusedFieldPanicsOnStore)
{
    Trace trace;
    EXPECT_DEATH(trace.push_back({OpKind::Free, 8, 1, 0}),
                 "sets a field it does not use");
    trace.push_back({OpKind::Malloc, 8, 1, 0});
    EXPECT_DEATH(trace.set(0, {OpKind::FunctionEnd, 0, 0, 4}),
                 "sets a field it does not use");
}

TEST(TraceIo, TruncatedTraceThrows)
{
    // A file cut off before the FunctionEnd terminator must not
    // replay silently.
    std::stringstream ss("C 10 0 0\nM 64 1 0\n");
    try {
        readTrace(ss);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::Trace);
        EXPECT_NE(std::string(e.what()).find("truncated"),
                  std::string::npos);
    }
}

TEST(TraceIo, CountOps)
{
    Trace trace = {{OpKind::Malloc, 8, 1, 0},
                   {OpKind::Malloc, 8, 2, 0},
                   {OpKind::Free, 0, 1, 0}};
    EXPECT_EQ(countOps(trace, OpKind::Malloc), 2u);
    EXPECT_EQ(countOps(trace, OpKind::Free), 1u);
    EXPECT_EQ(countOps(trace, OpKind::Compute), 0u);
}

class GeneratorTest : public ::testing::Test
{
  protected:
    static WorkloadSpec
    spec()
    {
        WorkloadSpec s;
        s.id = "gen-test";
        s.numAllocs = 2000;
        s.sizeDist = SizeDistribution({SizeBucket{1.0, 16, 256}});
        s.largeDist = SizeDistribution({SizeBucket{1.0, 520, 4096}});
        s.lifetime = {.pShort = 0.7, .meanShortDistance = 5.0,
                      .pLongFreed = 0.1, .meanLongDistance = 200.0};
        s.pLarge = 0.05;
        s.burstEvery = 500;
        s.burstBytes = 32 << 10;
        s.seed = 7;
        return s;
    }
};

TEST_F(GeneratorTest, Deterministic)
{
    Trace a = TraceGenerator(spec()).generate();
    Trace b = TraceGenerator(spec()).generate();
    EXPECT_EQ(a, b);

    WorkloadSpec other = spec();
    other.seed = 8;
    Trace c = TraceGenerator(other).generate();
    EXPECT_NE(a, c);
}

TEST_F(GeneratorTest, FieldAbove32BitsPanicsInsteadOfTruncating)
{
    WorkloadSpec s = spec();
    s.numAllocs = 4;
    s.computePerAlloc = 1ull << 32;
    EXPECT_DEATH(TraceGenerator(s).generate(), "above 32 bits");
}

TEST_F(GeneratorTest, EveryFreeMatchesEarlierMalloc)
{
    Trace trace = TraceGenerator(spec()).generate();
    std::unordered_set<std::uint64_t> live;
    for (const TraceOp &op : trace) {
        if (op.kind == OpKind::Malloc) {
            ASSERT_TRUE(live.insert(op.objId).second);
        } else if (op.kind == OpKind::Free) {
            ASSERT_EQ(live.erase(op.objId), 1u) << "free before malloc";
        }
    }
}

TEST_F(GeneratorTest, NoAccessToFreedObjects)
{
    Trace trace = TraceGenerator(spec()).generate();
    std::unordered_set<std::uint64_t> freed;
    for (const TraceOp &op : trace) {
        switch (op.kind) {
          case OpKind::Free:
            freed.insert(op.objId);
            break;
          case OpKind::Load:
          case OpKind::Store:
            ASSERT_EQ(freed.count(op.objId), 0u)
                << "use after free of object " << op.objId;
            break;
          default:
            break;
        }
    }
}

TEST_F(GeneratorTest, AccessOffsetsWithinObjectSize)
{
    Trace trace = TraceGenerator(spec()).generate();
    std::unordered_map<std::uint64_t, std::uint64_t> sizes;
    for (const TraceOp &op : trace) {
        if (op.kind == OpKind::Malloc) {
            sizes[op.objId] = op.value;
        } else if (op.kind == OpKind::Load || op.kind == OpKind::Store) {
            ASSERT_LT(op.offset, sizes.at(op.objId));
        }
    }
}

TEST_F(GeneratorTest, EndsWithFunctionEnd)
{
    Trace trace = TraceGenerator(spec()).generate();
    ASSERT_FALSE(trace.empty());
    EXPECT_EQ(trace.back().kind, OpKind::FunctionEnd);
    EXPECT_EQ(countOps(trace, OpKind::FunctionEnd), 1u);
}

TEST_F(GeneratorTest, AllocCountMatchesSpecPlusBursts)
{
    Trace trace = TraceGenerator(spec()).generate();
    const std::uint64_t mallocs = countOps(trace, OpKind::Malloc);
    const std::uint64_t bursts = spec().numAllocs / spec().burstEvery;
    const std::uint64_t per_burst =
        spec().burstBytes / spec().burstObjSize;
    EXPECT_EQ(mallocs, spec().numAllocs + bursts * per_burst);
}

TEST_F(GeneratorTest, SizesRespectDistributionBounds)
{
    Trace trace = TraceGenerator(spec()).generate();
    for (const TraceOp &op : trace) {
        if (op.kind != OpKind::Malloc)
            continue;
        const bool small = op.value >= 16 && op.value <= 256;
        const bool large = op.value >= 520 && op.value <= 4096;
        const bool burst = op.value == 512;
        EXPECT_TRUE(small || large || burst)
            << "unexpected size " << op.value;
    }
}

TEST_F(GeneratorTest, GolangStyleSpecEmitsNoFrees)
{
    WorkloadSpec go = spec();
    go.lifetime.pShort = 0.0;
    go.lifetime.pLongFreed = 0.0;
    go.pLarge = 0.0;
    go.burstEvery = 0;
    Trace trace = TraceGenerator(go).generate();
    EXPECT_EQ(countOps(trace, OpKind::Free), 0u);
}

// Every registry trace, pinned: the op count and a digest of every
// field of every op, at the registry seed and again at seed 2 with a
// tenth of the allocations.
TEST(TraceGolden, DigestsMatchGolden)
{
    const std::vector<std::string> golden =
        test::readGoldenLines("trace_digests.txt");
    ASSERT_EQ(golden.size(), 2 * allWorkloads().size());
    std::size_t row = 0;
    for (const bool reseeded : {false, true}) {
        for (WorkloadSpec spec : allWorkloads()) {
            if (reseeded) {
                spec.seed = 2;
                spec.numAllocs /= 10;
            }
            const Trace trace = TraceGenerator(spec).generate();
            DigestBuilder digest;
            for (const TraceOp &op : trace) {
                digest.add(static_cast<std::uint64_t>(op.kind));
                digest.add(std::uint64_t{op.value});
                digest.add(std::uint64_t{op.objId});
                digest.add(std::uint64_t{op.offset});
            }
            std::ostringstream line;
            line << spec.id << ' ' << spec.seed << ' ' << spec.numAllocs
                 << ' ' << trace.size() << ' '
                 << digestToHex(digest.value());
            EXPECT_EQ(line.str(), golden[row++]);
        }
    }
}

// ---------------------------------------------------------------------
// Workload registry
// ---------------------------------------------------------------------

TEST(WorkloadRegistry, HasAll23PaperWorkloads)
{
    EXPECT_EQ(allWorkloads().size(), 23u);
    EXPECT_EQ(workloadsByDomain(Domain::Function).size(), 16u);
    EXPECT_EQ(workloadsByDomain(Domain::DataProc).size(), 4u);
    EXPECT_EQ(workloadsByDomain(Domain::Platform).size(), 3u);
}

TEST(WorkloadRegistry, IdsAreUniqueAndLookupWorks)
{
    std::unordered_set<std::string> ids;
    for (const WorkloadSpec &w : allWorkloads()) {
        EXPECT_TRUE(ids.insert(w.id).second) << "duplicate id " << w.id;
        EXPECT_EQ(workloadById(w.id).id, w.id);
    }
}

TEST(WorkloadRegistry, LanguageGroupsMatchThePaper)
{
    unsigned python = 0, cpp = 0, go = 0;
    for (const WorkloadSpec &w : workloadsByDomain(Domain::Function)) {
        python += w.lang == Language::Python;
        cpp += w.lang == Language::Cpp;
        go += w.lang == Language::Golang;
    }
    EXPECT_EQ(python, 9u); // SeBS + FunctionBench + pyperformance.
    EXPECT_EQ(cpp, 4u);    // DeathStarBench units.
    EXPECT_EQ(go, 3u);     // Go ports.

    for (const WorkloadSpec &w : workloadsByDomain(Domain::DataProc))
        EXPECT_EQ(w.lang, Language::Cpp);
    for (const WorkloadSpec &w : workloadsByDomain(Domain::Platform))
        EXPECT_EQ(w.lang, Language::Golang);
}

TEST(WorkloadRegistry, SeedsAreDistinct)
{
    std::unordered_set<std::uint64_t> seeds;
    for (const WorkloadSpec &w : allWorkloads())
        EXPECT_TRUE(seeds.insert(w.seed).second);
}

} // namespace
} // namespace memento
