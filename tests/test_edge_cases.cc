/**
 * @file
 * Edge cases and failure-injection tests collected during development:
 * bypass-counter range limits, region exhaustion, double frees through
 * the public allocator API, TLB shootdown correctness under arena
 * reuse, and glibc growth-path corner cases.
 */

#include <gtest/gtest.h>

#include "hw/bypass.h"
#include "hw/hw_object_allocator.h"
#include "hw/hw_page_allocator.h"
#include "machine/experiment.h"
#include "machine/machine.h"
#include "rt/glibc_large.h"
#include "sim/error.h"
#include "test_util.h"
#include "wl/trace_generator.h"

namespace memento {
namespace {

using test::TestEnv;

// ---------------------------------------------------------------------
// Bypass counter range (11 bits => line indices above 2047 never
// bypass; the largest arena spans 2112 lines).
// ---------------------------------------------------------------------

TEST(BypassRange, LinesBeyondCounterRangeNeverBypass)
{
    MachineConfig cfg = test::smallMementoConfig();
    ArenaGeometry geo(cfg.memento, cfg.layout);
    StatRegistry stats;
    BuddyAllocator buddy(1ull << 22, 1ull << 28, stats);
    Hot hot(cfg.memento, stats);
    HwPageAllocator page_alloc(cfg, geo, buddy, stats);
    HwObjectAllocator obj_alloc(cfg, geo, hot, page_alloc, stats);
    MementoSpace space(geo, page_alloc.poolFrames());
    BypassUnit bypass(cfg.memento, geo, stats);
    TestEnv env;

    // Class 63 (512 B objects): the arena spans 2112 lines; the last
    // objects' lines exceed the 11-bit counter and must be refused.
    ASSERT_GT(geo.arenaSpan(63) / kLineSize, BypassUnit::kCounterMax);
    Addr last_obj = kNullAddr;
    for (unsigned i = 0; i < geo.objectsPerArena(); ++i)
        last_obj = obj_alloc.objAlloc(space, 512, env);
    // The final line of the last object lies beyond the counter range.
    const Addr last_byte = last_obj + 511;
    ASSERT_GT(geo.lineIndexOf(last_byte), BypassUnit::kCounterMax);
    EXPECT_FALSE(bypass.onAccess(space, last_byte));

    // Early objects of the same arena still bypass.
    Addr first_obj = geo.objAddr(geo.arenaBaseOf(last_obj), 63, 0);
    EXPECT_TRUE(bypass.onAccess(space, first_obj));
}

TEST(BypassRange, AccessToUnknownArenaIsNotEligible)
{
    MachineConfig cfg = test::smallMementoConfig();
    ArenaGeometry geo(cfg.memento, cfg.layout);
    StatRegistry stats;
    BuddyAllocator buddy(1ull << 22, 1ull << 28, stats);
    HwPageAllocator page_alloc(cfg, geo, buddy, stats);
    MementoSpace space(geo, page_alloc.poolFrames());
    BypassUnit bypass(cfg.memento, geo, stats);
    // In-region address with no live arena behind it.
    EXPECT_FALSE(bypass.onAccess(space, geo.regionStart() + 64));
}

// ---------------------------------------------------------------------
// Public allocator API misuse
// ---------------------------------------------------------------------

TEST(ApiMisuse, MementoDoubleFreeIsACorruptionError)
{
    Machine m(test::smallMementoConfig());
    WorkloadSpec spec;
    spec.id = "misuse";
    spec.lang = Language::Python;
    m.createProcess(spec);
    Addr a = m.allocator().malloc(64, m);
    m.allocator().free(a, m);
    const auto e = test::simErrorOf([&] { m.allocator().free(a, m); });
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->category(), ErrorCategory::Corruption);
}

TEST(ApiMisuseDeath, ZeroSizeMallocIsFatal)
{
    Machine m(test::smallConfig());
    WorkloadSpec spec;
    spec.id = "misuse";
    spec.lang = Language::Cpp;
    m.createProcess(spec);
    EXPECT_DEATH(m.allocator().malloc(0, m), "zero-size");
}

// ---------------------------------------------------------------------
// TLB shootdown correctness under arena reuse
// ---------------------------------------------------------------------

TEST(ShootdownTest, ReusedPoolFrameNeverServedThroughStaleTlb)
{
    // Fill an arena, touch its pages (TLB entries formed), free it
    // (pages return to the pool with shootdowns), allocate a different
    // class (pool frames reused at new VAs): the old VAs must not
    // translate anymore.
    Machine m(test::smallMementoConfig());
    WorkloadSpec spec;
    spec.id = "shoot";
    spec.lang = Language::Cpp;
    m.createProcess(spec);
    Allocator &alloc = m.allocator();

    const unsigned capacity =
        m.config().memento.objectsPerArena;
    std::vector<Addr> first;
    for (unsigned i = 0; i < capacity + 4; ++i) {
        Addr a = alloc.malloc(256, m);
        m.appAccess(a, AccessType::Write);
        if (i < capacity)
            first.push_back(a);
    }
    for (Addr a : first)
        alloc.free(a, m); // Drains the retired arena -> freed + shootdown.

    // New allocations in another class reuse the pool frames.
    for (int i = 0; i < 64; ++i) {
        Addr b = alloc.malloc(32, m);
        m.appAccess(b, AccessType::Write);
    }
    // The stale VAs fall in the Memento region; walking them would
    // repopulate fresh pages rather than alias the reused frames.
    // (Machine-level invariant: no crash, consistent accounting.)
    EXPECT_GT(m.stats().value("hwpage.shootdowns"), 0u);
}

// ---------------------------------------------------------------------
// glibc growth-path corners
// ---------------------------------------------------------------------

class GlibcEdge : public ::testing::Test
{
  protected:
    GlibcEdge()
        : buddy(1ull << 22, 1ull << 28, stats),
          vm(cfg, buddy, stats, "vm"),
          alloc(vm, stats, "g")
    {
    }

    MachineConfig cfg;
    StatRegistry stats;
    BuddyAllocator buddy;
    VirtualMemory vm;
    GlibcLargeAlloc alloc;
    TestEnv env;
};

TEST_F(GlibcEdge, RequestBiggerThanTopGrowth)
{
    // A 3 MiB request exceeds the 1 MiB top increment and the mmap
    // threshold: it must get its own mapping and free cleanly.
    Addr a = alloc.malloc(3 << 20, env);
    EXPECT_TRUE(alloc.owns(a));
    alloc.free(a, env);
    EXPECT_FALSE(alloc.owns(a));
}

TEST_F(GlibcEdge, ManySizesNoOverlapAcrossGrowth)
{
    std::vector<std::pair<Addr, std::uint64_t>> live;
    for (int i = 0; i < 300; ++i) {
        std::uint64_t size = 600 + (i * 97) % 50000;
        Addr a = alloc.malloc(size, env);
        for (auto &[base, len] : live) {
            EXPECT_TRUE(a + size <= base || base + len <= a)
                << "overlap at iteration " << i;
        }
        live.push_back({a, size});
    }
    for (auto &[base, len] : live)
        alloc.free(base, env);
    EXPECT_EQ(alloc.liveBytes(), 0u);
}

// ---------------------------------------------------------------------
// Region capacity guard
// ---------------------------------------------------------------------

TEST(RegionExhaustion, BumpPastClassRegionThrows)
{
    MachineConfig cfg = test::smallMementoConfig();
    // Shrink the per-class region so exhaustion is reachable: 2 pages
    // per class while class-0 arenas take 1 page each.
    cfg.layout.perClassRegionBytes = 2 * kPageSize;
    ArenaGeometry geo(cfg.memento, cfg.layout);
    StatRegistry stats;
    BuddyAllocator buddy(1ull << 22, 1ull << 28, stats);
    HwPageAllocator page_alloc(cfg, geo, buddy, stats);
    MementoSpace space(geo, page_alloc.poolFrames());
    TestEnv env;
    page_alloc.requestArena(space, 0, env);
    page_alloc.requestArena(space, 0, env);
    try {
        page_alloc.requestArena(space, 0, env);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::OutOfMemory);
        EXPECT_NE(std::string(e.what()).find("region exhausted"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------
// Trace replay equivalence through the real machine
// ---------------------------------------------------------------------

TEST(ReplayTest, SerializedTraceReproducesCycleCounts)
{
    WorkloadSpec spec = workloadById("aes");
    spec.numAllocs = 3000; // Keep the test fast.
    const Trace original = TraceGenerator(spec).generate();

    std::stringstream ss;
    writeTrace(original, ss);
    const Trace replayed = readTrace(ss);

    RunResult a = Experiment::runOne(spec, original, defaultConfig());
    RunResult b = Experiment::runOne(spec, replayed, defaultConfig());
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.dramBytes(), b.dramBytes());
}

} // namespace
} // namespace memento
