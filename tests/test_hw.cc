/**
 * @file
 * Unit and property tests for the Memento hardware: arena geometry,
 * HOT, hardware object allocator, hardware page allocator, bypass
 * unit, and the MementoAllocator adapter.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "hw/arena.h"
#include "hw/bypass.h"
#include "hw/hot.h"
#include "hw/hw_object_allocator.h"
#include "hw/hw_page_allocator.h"
#include "hw/memento_allocator.h"
#include "sim/rng.h"
#include "test_util.h"

namespace memento {
namespace {

using test::TestEnv;

// ---------------------------------------------------------------------
// Arena geometry (§3.2 address arithmetic)
// ---------------------------------------------------------------------

class GeometryTest : public ::testing::Test
{
  protected:
    MachineConfig cfg = test::smallMementoConfig();
    ArenaGeometry geo{cfg.memento, cfg.layout};
};

TEST_F(GeometryTest, RegionBounds)
{
    EXPECT_TRUE(geo.inRegion(geo.regionStart()));
    EXPECT_TRUE(geo.inRegion(geo.regionEnd() - 1));
    EXPECT_FALSE(geo.inRegion(geo.regionStart() - 1));
    EXPECT_FALSE(geo.inRegion(geo.regionEnd()));
}

TEST_F(GeometryTest, ArenaSpansArePageMultiples)
{
    for (unsigned cls = 0; cls < kNumSmallClasses; ++cls) {
        EXPECT_EQ(geo.arenaSpan(cls) % kPageSize, 0u);
        EXPECT_GE(geo.arenaSpan(cls),
                  ArenaGeometry::kHeaderBytes +
                      geo.objectsPerArena() * sizeClassBytes(cls));
    }
}

TEST_F(GeometryTest, SmallestAndLargestClassSpans)
{
    EXPECT_EQ(geo.arenaSpan(0), kPageSize);          // 64 + 256*8.
    EXPECT_EQ(geo.arenaSpan(63), alignUp(64 + 256 * 512, kPageSize));
}

/** Round-trip property across every class and many object indices. */
class GeometryRoundTrip : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(GeometryRoundTrip, ObjectAddressRoundTrips)
{
    MachineConfig cfg = test::smallMementoConfig();
    ArenaGeometry geo(cfg.memento, cfg.layout);
    const unsigned cls = GetParam();

    for (unsigned arena_idx : {0u, 1u, 7u, 100u}) {
        const Addr base =
            geo.classBase(cls) + arena_idx * geo.arenaSpan(cls);
        EXPECT_EQ(geo.classOf(base), cls);
        EXPECT_EQ(geo.arenaBaseOf(base), base);
        for (unsigned idx : {0u, 1u, 100u, 255u}) {
            const Addr obj = geo.objAddr(base, cls, idx);
            EXPECT_EQ(geo.classOf(obj), cls);
            EXPECT_EQ(geo.arenaBaseOf(obj), base);
            EXPECT_EQ(geo.objIndexOf(obj), idx);
            // Interior bytes of the object resolve to the same index.
            const Addr mid = obj + sizeClassBytes(cls) / 2;
            EXPECT_EQ(geo.objIndexOf(mid), idx);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllClasses, GeometryRoundTrip,
                         ::testing::Values(0u, 1u, 7u, 31u, 62u, 63u));

// ---------------------------------------------------------------------
// Arena state
// ---------------------------------------------------------------------

TEST(ArenaStateTest, FindFreeSlotFindsHolesAtWordEdges)
{
    // Holes on both sides of every 64-bit word boundary, plus the last
    // slot: each is found only after the lower holes are filled.
    ArenaState state;
    for (unsigned i = 0; i < ArenaState::kMaxObjects; ++i)
        state.bitmap.set(i);
    const unsigned holes[] = {0, 63, 64, 127, 255};
    for (unsigned h : holes)
        state.bitmap.reset(h);
    for (unsigned h : holes) {
        EXPECT_EQ(state.findFreeSlot(ArenaState::kMaxObjects), h);
        state.bitmap.set(h);
    }
    EXPECT_EQ(state.findFreeSlot(ArenaState::kMaxObjects),
              ArenaState::kMaxObjects);
    EXPECT_EQ(state.bitmap.count(), ArenaState::kMaxObjects);
}

TEST(ArenaStateTest, FullArenaBelow256ReturnsCapacity)
{
    for (unsigned capacity : {1u, 63u, 64u, 65u, 100u, 128u, 200u}) {
        ArenaState state;
        for (unsigned i = 0; i < capacity; ++i) {
            ASSERT_EQ(state.findFreeSlot(capacity), i);
            state.bitmap.set(i);
        }
        EXPECT_EQ(state.findFreeSlot(capacity), capacity) << capacity;
        // The bits past the capacity are clear but are not free slots.
        EXPECT_FALSE(state.bitmap.test(capacity));
    }
}

// ---------------------------------------------------------------------
// HOT
// ---------------------------------------------------------------------

TEST(HotTable, HitRatesAndFlush)
{
    StatRegistry stats;
    MementoConfig cfg;
    Hot hot(cfg, stats);

    hot.entry(3).valid = true;
    hot.entry(3).arenaVa = 0x1000;
    hot.recordAlloc(true);
    hot.recordAlloc(true);
    hot.recordAlloc(false);
    hot.recordFree(true);
    hot.recordFree(false);

    EXPECT_NEAR(hot.allocHitRate(), 2.0 / 3.0, 1e-9);
    EXPECT_NEAR(hot.freeHitRate(), 0.5, 1e-9);

    EXPECT_EQ(hot.flush(), 1u);
    EXPECT_FALSE(hot.entry(3).valid);
    EXPECT_EQ(hot.flush(), 0u);
}

// ---------------------------------------------------------------------
// Hardware object + page allocator integration
// ---------------------------------------------------------------------

class HwAllocTest : public ::testing::Test
{
  protected:
    HwAllocTest()
        : cfg(test::smallMementoConfig()),
          geo(cfg.memento, cfg.layout),
          buddy(1ull << 22, 1ull << 30, stats),
          hot(cfg.memento, stats),
          pageAlloc(cfg, geo, buddy, stats),
          objAlloc(cfg, geo, hot, pageAlloc, stats),
          space(geo, pageAlloc.poolFrames())
    {
    }

    MachineConfig cfg;
    ArenaGeometry geo;
    StatRegistry stats;
    BuddyAllocator buddy;
    Hot hot;
    HwPageAllocator pageAlloc;
    HwObjectAllocator objAlloc;
    MementoSpace space;
    TestEnv env;
};

TEST_F(HwAllocTest, FirstAllocCreatesArenaAndMisses)
{
    Addr a = objAlloc.objAlloc(space, 64, env);
    EXPECT_TRUE(geo.inRegion(a));
    EXPECT_EQ(geo.classOf(a), sizeClassIndex(64));
    EXPECT_EQ(hot.allocMisses(), 1u);
    EXPECT_EQ(stats.value("hwpage.arena_grants"), 1u);
}

TEST_F(HwAllocTest, SubsequentAllocsHitInHot)
{
    objAlloc.objAlloc(space, 64, env);
    for (int i = 0; i < 100; ++i)
        objAlloc.objAlloc(space, 64, env);
    EXPECT_EQ(hot.allocHits(), 100u);
    EXPECT_EQ(hot.allocMisses(), 1u);
}

TEST_F(HwAllocTest, AllocationsAreDistinctSlots)
{
    std::set<Addr> seen;
    for (int i = 0; i < 600; ++i) {
        Addr a = objAlloc.objAlloc(space, 32, env);
        EXPECT_TRUE(seen.insert(a).second) << "duplicate address";
    }
}

TEST_F(HwAllocTest, HotHitChargesOnlyHotLatency)
{
    objAlloc.objAlloc(space, 64, env); // Warm the entry.
    const Cycles before = env.ledger().total();
    objAlloc.objAlloc(space, 64, env);
    EXPECT_EQ(env.ledger().total() - before, cfg.memento.hotLatency);
}

TEST_F(HwAllocTest, FreeHitClearsBitmapCheaply)
{
    Addr a = objAlloc.objAlloc(space, 64, env);
    const Cycles before = env.ledger().total();
    EXPECT_EQ(objAlloc.objFree(space, a, env), FreeStatus::Ok);
    EXPECT_EQ(env.ledger().total() - before, cfg.memento.hotLatency);
    EXPECT_EQ(hot.freeHits(), 1u);
    // The slot is reusable.
    Addr b = objAlloc.objAlloc(space, 64, env);
    EXPECT_EQ(a, b);
}

TEST_F(HwAllocTest, DoubleFreeRaisesException)
{
    Addr a = objAlloc.objAlloc(space, 64, env);
    EXPECT_EQ(objAlloc.objFree(space, a, env), FreeStatus::Ok);
    EXPECT_EQ(objAlloc.objFree(space, a, env),
              FreeStatus::NotAllocated);
}

TEST_F(HwAllocTest, FreeInUnknownArenaRaises)
{
    EXPECT_EQ(objAlloc.objFree(space, geo.regionStart() + 64, env),
              FreeStatus::UnknownArena);
}

TEST_F(HwAllocTest, ArenaExhaustionRollsToNewArena)
{
    const unsigned capacity = geo.objectsPerArena();
    std::vector<Addr> ptrs;
    for (unsigned i = 0; i < capacity + 1; ++i)
        ptrs.push_back(objAlloc.objAlloc(space, 16, env));
    EXPECT_EQ(stats.value("hwpage.arena_grants"), 2u);
    EXPECT_NE(geo.arenaBaseOf(ptrs.front()),
              geo.arenaBaseOf(ptrs.back()));
    // With eager prefetch the post-fill alloc still hits.
    EXPECT_GE(hot.allocHits(), capacity - 1);
}

TEST_F(HwAllocTest, FreeMissFetchesHeaderFromMemory)
{
    // Fill one arena (class 16B), roll into the second, then free an
    // object of the first (no longer HOT-resident).
    const unsigned capacity = geo.objectsPerArena();
    std::vector<Addr> first_arena;
    for (unsigned i = 0; i < capacity + 8; ++i) {
        Addr a = objAlloc.objAlloc(space, 16, env);
        if (i < capacity)
            first_arena.push_back(a);
    }
    env.physReads.clear();
    EXPECT_EQ(objAlloc.objFree(space, first_arena[3], env),
              FreeStatus::Ok);
    EXPECT_EQ(hot.freeMisses(), 1u);
    EXPECT_FALSE(env.physReads.empty()); // Header fetch.
}

TEST_F(HwAllocTest, EmptyNonResidentArenaIsReleased)
{
    const unsigned capacity = geo.objectsPerArena();
    std::vector<Addr> first_arena;
    for (unsigned i = 0; i < capacity + 8; ++i) {
        Addr a = objAlloc.objAlloc(space, 16, env);
        if (i < capacity)
            first_arena.push_back(a);
    }
    for (Addr a : first_arena)
        EXPECT_EQ(objAlloc.objFree(space, a, env), FreeStatus::Ok);
    EXPECT_EQ(stats.value("hwpage.arena_frees"), 1u);
    EXPECT_GT(stats.value("hwpage.shootdowns"), 0u);
    // Its memory returned to the pool; the arena is gone from the map.
    EXPECT_FALSE(space.arenas.contains(geo.arenaBaseOf(first_arena[0])));
}

TEST_F(HwAllocTest, ResidentArenaSurvivesBecomingEmpty)
{
    Addr a = objAlloc.objAlloc(space, 64, env);
    EXPECT_EQ(objAlloc.objFree(space, a, env), FreeStatus::Ok);
    // Still resident in the HOT: kept to avoid thrash.
    EXPECT_EQ(stats.value("hwpage.arena_frees"), 0u);
    EXPECT_TRUE(space.arenas.contains(geo.arenaBaseOf(a)));
}

TEST_F(HwAllocTest, ReleaseAllArenasEmptiesSpace)
{
    for (int i = 0; i < 1000; ++i)
        objAlloc.objAlloc(space, 8 + (i % 64) * 8, env);
    objAlloc.releaseAllArenas(space, env);
    EXPECT_TRUE(space.arenas.empty());
    for (const auto &list : space.availList)
        EXPECT_TRUE(list.empty());
    EXPECT_EQ(pageAlloc.residentArenaPages(), 0u);
}

TEST_F(HwAllocTest, ListOpsAreRare)
{
    Rng rng(5);
    std::vector<Addr> live;
    for (int i = 0; i < 20000; ++i) {
        if (live.empty() || rng.nextBool(0.55)) {
            live.push_back(
                objAlloc.objAlloc(space, rng.nextRange(1, 512), env));
        } else {
            std::size_t pick = rng.nextBelow(live.size());
            EXPECT_EQ(objAlloc.objFree(space, live[pick], env),
                      FreeStatus::Ok);
            live.erase(live.begin() + pick);
        }
    }
    const double alloc_ops =
        static_cast<double>(objAlloc.allocListOps()) /
        (hot.allocHits() + hot.allocMisses());
    EXPECT_LT(alloc_ops, 0.05);
}

TEST_F(HwAllocTest, FragmentationMetricTracksLiveSlots)
{
    std::vector<Addr> ptrs;
    for (int i = 0; i < 128; ++i)
        ptrs.push_back(objAlloc.objAlloc(space, 64, env));
    const double before = objAlloc.inactiveSlotFraction(space);
    for (int i = 0; i < 64; ++i)
        objAlloc.objFree(space, ptrs[i], env);
    EXPECT_GT(objAlloc.inactiveSlotFraction(space), before);
}

// ---------------------------------------------------------------------
// Hardware page allocator specifics
// ---------------------------------------------------------------------

TEST_F(HwAllocTest, ArenaGrantBacksOnlyHeaderPage)
{
    auto grant = pageAlloc.requestArena(space, 63, env);
    EXPECT_TRUE(space.mpt.isMapped(grant.va));
    EXPECT_FALSE(space.mpt.isMapped(grant.va + kPageSize));
    EXPECT_EQ(space.mpt.translate(grant.va), grant.headerPa);
}

TEST_F(HwAllocTest, PopulateOnWalkBacksPage)
{
    auto grant = pageAlloc.requestArena(space, 63, env);
    Addr body_page = grant.va + kPageSize;
    Addr frame = pageAlloc.populateOnWalk(space, body_page + 100, env);
    EXPECT_NE(frame, kNullAddr);
    EXPECT_EQ(space.mpt.translate(body_page), frame);
    EXPECT_EQ(stats.value("hwpage.walk_populates"), 1u);
}

TEST_F(HwAllocTest, FreeArenaReturnsPagesToPool)
{
    auto grant = pageAlloc.requestArena(space, 63, env);
    pageAlloc.populateOnWalk(space, grant.va + kPageSize, env);
    const std::uint64_t pool_before = pageAlloc.poolFreePages();
    pageAlloc.freeArena(space, grant.va, env);
    // At least the two backed pages return (pruned page-table nodes
    // may come back too).
    EXPECT_GE(pageAlloc.poolFreePages(), pool_before + 2);
    EXPECT_FALSE(space.mpt.isMapped(grant.va));
    EXPECT_EQ(env.tlbInvalidations.size(), 2u);
}

TEST_F(HwAllocTest, AacHitsAfterFirstUse)
{
    pageAlloc.requestArena(space, 10, env);
    pageAlloc.requestArena(space, 10, env);
    EXPECT_EQ(stats.value("aac.misses"), 1u);
    EXPECT_EQ(stats.value("aac.hits"), 1u);
}

TEST_F(HwAllocTest, PoolRefillsDrawFromBuddy)
{
    // The initial refill happened when the space's page table took its
    // root frame; draining below the low-water mark triggers another.
    const std::uint64_t refills_before =
        stats.value("hwpage.pool_refills");
    for (int i = 0; i < 600; ++i)
        pageAlloc.requestArena(space, 0, env);
    EXPECT_GT(stats.value("hwpage.pool_refills"), refills_before);
    EXPECT_GE(stats.value("hwpage.agg_os_pages"),
              buddy.allocatedPages());
}

// ---------------------------------------------------------------------
// Bypass unit
// ---------------------------------------------------------------------

TEST_F(HwAllocTest, BypassFirstTouchOnlyOnce)
{
    BypassUnit bypass(cfg.memento, geo, stats);
    Addr a = objAlloc.objAlloc(space, 64, env);
    EXPECT_TRUE(bypass.onAccess(space, a));
    EXPECT_FALSE(bypass.onAccess(space, a)); // Line now counted.
}

TEST_F(HwAllocTest, BypassSequentialLinesAllEligible)
{
    BypassUnit bypass(cfg.memento, geo, stats);
    // 512-byte objects: 8 lines each, touched in order.
    Addr a = objAlloc.objAlloc(space, 512, env);
    for (unsigned line = 0; line < 8; ++line)
        EXPECT_TRUE(bypass.onAccess(space, a + line * kLineSize));
}

TEST_F(HwAllocTest, BypassDisabledNeverEligible)
{
    MementoConfig disabled = cfg.memento;
    disabled.bypassEnabled = false;
    BypassUnit bypass(disabled, geo, stats);
    Addr a = objAlloc.objAlloc(space, 64, env);
    EXPECT_FALSE(bypass.onAccess(space, a));
}

TEST_F(HwAllocTest, FreeRewindsBypassCounterHighWater)
{
    BypassUnit bypass(cfg.memento, geo, stats);
    Addr a = objAlloc.objAlloc(space, 512, env);
    for (unsigned line = 0; line < 8; ++line)
        bypass.onAccess(space, a + line * kLineSize);
    objAlloc.objFree(space, a, env);
    Addr b = objAlloc.objAlloc(space, 512, env);
    ASSERT_EQ(a, b); // Same slot reused.
    // The counter rewound on free: the fresh object bypasses again.
    EXPECT_TRUE(bypass.onAccess(space, b));
}

// ---------------------------------------------------------------------
// MementoAllocator adapter
// ---------------------------------------------------------------------

TEST_F(HwAllocTest, AdapterRoutesBySizeAndRegion)
{
    BuddyAllocator buddy2(1ull << 22, 1ull << 30, stats);
    VirtualMemory vm(cfg, buddy2, stats, "vmx");
    MementoAllocator adapter(objAlloc, space, vm, stats);

    Addr small = adapter.malloc(128, env);
    EXPECT_TRUE(geo.inRegion(small));
    Addr big = adapter.malloc(4096, env);
    EXPECT_FALSE(geo.inRegion(big));
    EXPECT_EQ(adapter.liveBytes(), 128u + 4096u);

    adapter.free(small, env);
    adapter.free(big, env);
    EXPECT_EQ(adapter.liveBytes(), 0u);

    adapter.malloc(64, env);
    adapter.functionExit(env);
    EXPECT_EQ(adapter.liveBytes(), 0u);
    EXPECT_TRUE(space.arenas.empty());
}

/**
 * The adapter's live-bytes count and isLive() read the arenas' per-slot
 * sizes and bitmaps; they must stay exact on every path an object
 * leaves by.
 */
class AdapterBookkeepingTest : public HwAllocTest
{
  protected:
    BuddyAllocator buddy2{1ull << 22, 1ull << 30, stats};
    VirtualMemory vm{cfg, buddy2, stats, "vmx"};
    MementoAllocator adapter{objAlloc, space, vm, stats};
};

TEST_F(AdapterBookkeepingTest, OddSizesWithinAClassCountExactly)
{
    ASSERT_EQ(sizeClassIndex(17), sizeClassIndex(24));
    ASSERT_EQ(sizeClassIndex(23), sizeClassIndex(24));
    const Addr a = adapter.malloc(17, env);
    const Addr b = adapter.malloc(23, env);
    EXPECT_EQ(adapter.liveBytes(), 40u);
    EXPECT_TRUE(adapter.isLive(a));
    EXPECT_TRUE(adapter.isLive(b));
    EXPECT_FALSE(adapter.isLive(a + 1)); // Interior, not an object.
    EXPECT_FALSE(adapter.isLive(geo.arenaBaseOf(a))); // Header.

    adapter.free(a, env);
    EXPECT_EQ(adapter.liveBytes(), 23u);
    EXPECT_FALSE(adapter.isLive(a));
    EXPECT_TRUE(adapter.isLive(b));
    const Addr c = adapter.malloc(19, env); // Reuses a's slot.
    EXPECT_EQ(c, a);
    EXPECT_EQ(adapter.liveBytes(), 42u);
}

TEST_F(AdapterBookkeepingTest, CrossThreadFreeCountsExactly)
{
    adapter.setThread(1);
    const Addr a = adapter.malloc(45, env);
    adapter.setThread(2);
    adapter.free(a, env);
    EXPECT_EQ(objAlloc.remoteFrees(), 1u);
    EXPECT_EQ(adapter.liveBytes(), 0u);
    EXPECT_FALSE(adapter.isLive(a));
}

TEST_F(AdapterBookkeepingTest, LastFreeInColdArenaErasesIt)
{
    // Fill one 16 B arena, roll into a second, then empty the first:
    // it is not HOT-resident, so the last free releases it.
    const unsigned capacity = geo.objectsPerArena();
    std::vector<Addr> first_arena;
    for (unsigned i = 0; i < capacity + 8; ++i) {
        const Addr a = adapter.malloc(13, env);
        if (i < capacity)
            first_arena.push_back(a);
    }
    for (Addr a : first_arena)
        adapter.free(a, env);
    EXPECT_FALSE(space.arenas.contains(geo.arenaBaseOf(first_arena[0])));
    EXPECT_EQ(adapter.liveBytes(), 8u * 13u);
    for (Addr a : first_arena)
        EXPECT_FALSE(adapter.isLive(a));
}

TEST_F(AdapterBookkeepingTest, FunctionExitLeavesNothingLive)
{
    const Addr small = adapter.malloc(100, env);
    const Addr big = adapter.malloc(3000, env);
    adapter.functionExit(env);
    EXPECT_EQ(adapter.liveBytes(), 0u);
    EXPECT_FALSE(adapter.isLive(small));
    EXPECT_FALSE(adapter.isLive(big));
}

TEST_F(AdapterBookkeepingTest, LargeObjectsTrackedBySoftwarePath)
{
    const Addr big = adapter.malloc(kMaxSmallSize + 1, env);
    EXPECT_FALSE(geo.inRegion(big));
    EXPECT_TRUE(adapter.isLive(big));
    EXPECT_EQ(adapter.liveBytes(), kMaxSmallSize + 1);
    adapter.free(big, env);
    EXPECT_FALSE(adapter.isLive(big));
    EXPECT_EQ(adapter.liveBytes(), 0u);
}

TEST_F(AdapterBookkeepingTest, DoubleFreeIsACorruptionError)
{
    const Addr a = adapter.malloc(64, env);
    adapter.free(a, env);
    const auto e = test::simErrorOf([&] { adapter.free(a, env); });
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->category(), ErrorCategory::Corruption);
    EXPECT_NE(std::string(e->what()).find("hardware raised a free exception"),
              std::string::npos);
}

TEST_F(AdapterBookkeepingTest, InteriorFreeIsACorruptionError)
{
    const Addr a = adapter.malloc(64, env);
    const auto e = test::simErrorOf([&] { adapter.free(a + 8, env); });
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->category(), ErrorCategory::Corruption);
    EXPECT_NE(std::string(e->what()).find("hardware raised a free exception"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Multi-threaded frees (§4)
// ---------------------------------------------------------------------

TEST_F(HwAllocTest, LocalFreeIsNotRemote)
{
    Addr a = objAlloc.objAlloc(space, 64, env, /*thread=*/1);
    EXPECT_EQ(objAlloc.objFree(space, a, env, /*thread=*/1),
              FreeStatus::Ok);
    EXPECT_EQ(objAlloc.remoteFrees(), 0u);
}

TEST_F(HwAllocTest, CrossThreadFreeTakesCoherencePath)
{
    Addr a = objAlloc.objAlloc(space, 64, env, /*thread=*/1);
    env.physWrites.clear();
    const Cycles before = env.ledger().total();
    EXPECT_EQ(objAlloc.objFree(space, a, env, /*thread=*/2),
              FreeStatus::Ok);
    EXPECT_EQ(objAlloc.remoteFrees(), 1u);
    // The remote path costs more than a plain HOT hit: BusRdX on the
    // header line plus the serialized RMW.
    EXPECT_GT(env.ledger().total() - before, cfg.memento.hotLatency);
    EXPECT_FALSE(env.physWrites.empty());
}

TEST_F(HwAllocTest, RemoteFreeStillCorrect)
{
    std::vector<Addr> ptrs;
    for (int i = 0; i < 100; ++i)
        ptrs.push_back(objAlloc.objAlloc(space, 32, env, /*thread=*/0));
    for (Addr p : ptrs)
        EXPECT_EQ(objAlloc.objFree(space, p, env, /*thread=*/7),
                  FreeStatus::Ok);
    EXPECT_EQ(objAlloc.remoteFrees(), 100u);
    // Memory is reusable afterwards.
    Addr again = objAlloc.objAlloc(space, 32, env, /*thread=*/0);
    EXPECT_EQ(again, ptrs.front());
}

// ---------------------------------------------------------------------
// Property: random hardware traffic maintains bitmap consistency
// ---------------------------------------------------------------------

class HwPropertyTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(HwPropertyTest, BitmapMatchesLiveSet)
{
    MachineConfig cfg = test::smallMementoConfig();
    ArenaGeometry geo(cfg.memento, cfg.layout);
    StatRegistry stats;
    BuddyAllocator buddy(1ull << 22, 1ull << 30, stats);
    Hot hot(cfg.memento, stats);
    HwPageAllocator pageAlloc(cfg, geo, buddy, stats);
    HwObjectAllocator objAlloc(cfg, geo, hot, pageAlloc, stats);
    MementoSpace space(geo, pageAlloc.poolFrames());
    TestEnv env;

    Rng rng(GetParam());
    std::set<Addr> live;
    for (int i = 0; i < 10000; ++i) {
        if (live.empty() || rng.nextBool(0.55)) {
            Addr a =
                objAlloc.objAlloc(space, rng.nextRange(1, 512), env);
            ASSERT_TRUE(live.insert(a).second);
        } else {
            auto it = live.begin();
            std::advance(it, rng.nextBelow(live.size()));
            ASSERT_EQ(objAlloc.objFree(space, *it, env), FreeStatus::Ok);
            live.erase(it);
        }
    }

    // The sum of set bitmap bits equals the live object count.
    std::uint64_t bits = 0;
    space.arenas.forEach([&](Addr, const ArenaState &state) {
        bits += state.allocated;
        EXPECT_EQ(state.bitmap.count(), state.allocated);
    });
    EXPECT_EQ(bits, live.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HwPropertyTest,
                         ::testing::Values(3u, 9u, 27u, 81u));

} // namespace
} // namespace memento
