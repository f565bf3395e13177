/**
 * @file
 * Unit tests for the software allocator models (pymalloc, jemalloc,
 * gomalloc, tcmalloc, glibc-large) and a conformance suite for the
 * Allocator contract over all six allocators, Memento included.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "rt/glibc_large.h"
#include "rt/gomalloc.h"
#include "rt/jemalloc.h"
#include "rt/pymalloc.h"
#include "rt/tcmalloc.h"
#include "hw/hot.h"
#include "hw/hw_object_allocator.h"
#include "hw/hw_page_allocator.h"
#include "hw/mallacc.h"
#include "hw/memento_allocator.h"
#include "sim/rng.h"
#include "sim/size_class.h"
#include "test_util.h"

namespace memento {
namespace {

using test::TestEnv;

/** Fixture owning the OS plumbing every allocator needs. */
class AllocatorFixture : public ::testing::Test
{
  protected:
    AllocatorFixture()
        : buddy(1ull << 22, 1ull << 30, stats),
          vm(cfg, buddy, stats, "vm")
    {
    }

    MachineConfig cfg;
    StatRegistry stats;
    BuddyAllocator buddy;
    VirtualMemory vm;
    TestEnv env;
};

// ---------------------------------------------------------------------
// pymalloc
// ---------------------------------------------------------------------

class PyMallocTest : public AllocatorFixture
{
  protected:
    PyMalloc alloc{vm, stats};
};

TEST_F(PyMallocTest, SmallAllocationsComeFromPools)
{
    Addr a = alloc.malloc(24, env);
    Addr b = alloc.malloc(24, env);
    EXPECT_NE(a, b);
    EXPECT_TRUE(alloc.isLive(a));
    EXPECT_EQ(alloc.liveBytes(), 48u);
    // Same size class allocates from the same 4 KiB pool initially.
    EXPECT_EQ(a & ~(kPageSize - 1), b & ~(kPageSize - 1));
}

TEST_F(PyMallocTest, FreeReusesBlockLifo)
{
    // Keep one object live so the pool (and arena) survive the free.
    Addr keep = alloc.malloc(32, env);
    (void)keep;
    Addr a = alloc.malloc(32, env);
    alloc.free(a, env);
    EXPECT_FALSE(alloc.isLive(a));
    Addr b = alloc.malloc(32, env);
    EXPECT_EQ(a, b); // freeblock head reuse.
}

TEST_F(PyMallocTest, DifferentClassesUseDifferentPools)
{
    Addr a = alloc.malloc(8, env);
    Addr b = alloc.malloc(512, env);
    EXPECT_NE(pageBase(a), pageBase(b));
}

TEST_F(PyMallocTest, ArenaMmappedOnDemandAndReleasedWhenEmpty)
{
    EXPECT_EQ(alloc.arenaCount(), 0u);
    std::vector<Addr> ptrs;
    for (int i = 0; i < 100; ++i)
        ptrs.push_back(alloc.malloc(64, env));
    EXPECT_EQ(alloc.arenaCount(), 1u);
    for (Addr p : ptrs)
        alloc.free(p, env);
    // All pools free -> arena munmapped.
    EXPECT_EQ(alloc.arenaCount(), 0u);
    EXPECT_EQ(stats.value("pymalloc.arena_munmaps"), 1u);
}

TEST_F(PyMallocTest, LargeAllocationsBypassPools)
{
    Addr big = alloc.malloc(4096, env);
    EXPECT_TRUE(alloc.isLive(big));
    EXPECT_EQ(stats.value("pymalloc.small_mallocs"), 0u);
    EXPECT_EQ(stats.value("pymalloc.large_mallocs"), 1u);
    alloc.free(big, env);
    EXPECT_FALSE(alloc.isLive(big));
}

TEST_F(PyMallocTest, FunctionExitReleasesEverything)
{
    for (int i = 0; i < 500; ++i)
        alloc.malloc(8 + (i % 64) * 8, env);
    alloc.malloc(100000, env);
    alloc.functionExit(env);
    EXPECT_EQ(alloc.liveBytes(), 0u);
    EXPECT_EQ(alloc.arenaCount(), 0u);
    // Teardown is OS work, not userspace frees.
    EXPECT_EQ(stats.value("pymalloc.small_frees"), 0u);
}

TEST_F(PyMallocTest, AllocationChargesUserAllocCategory)
{
    alloc.malloc(40, env);
    EXPECT_GT(env.ledger().category(CycleCategory::UserAlloc), 0u);
    EXPECT_EQ(env.ledger().category(CycleCategory::UserFree), 0u);
}

TEST_F(PyMallocTest, PoolExhaustionMovesToNextPool)
{
    // A 4 KiB pool of 504-byte blocks holds 8 objects; the 9th must
    // come from a second pool.
    std::vector<Addr> ptrs;
    for (int i = 0; i < 9; ++i)
        ptrs.push_back(alloc.malloc(504, env));
    EXPECT_NE(pageBase(ptrs.front()), pageBase(ptrs.back()));
}

TEST_F(PyMallocTest, ArenaObjectSlotsAreRecycled)
{
    // Regression: a malloc/free ping-pong at an arena boundary churns
    // one arena per cycle; the arena_object slots must be recycled
    // (CPython's unused_arena_objects) instead of exhausting the table.
    for (int i = 0; i < 10000; ++i) {
        Addr a = alloc.malloc(64, env);
        alloc.free(a, env);
    }
    EXPECT_EQ(alloc.liveBytes(), 0u);
    EXPECT_GT(stats.value("pymalloc.arena_munmaps"), 1000u);
}

TEST_F(PyMallocTest, InactiveSlotFractionReflectsFrees)
{
    std::vector<Addr> ptrs;
    for (int i = 0; i < 64; ++i)
        ptrs.push_back(alloc.malloc(64, env));
    const double before = alloc.inactiveSlotFraction();
    for (int i = 0; i < 32; ++i)
        alloc.free(ptrs[i], env);
    EXPECT_GT(alloc.inactiveSlotFraction(), before);
}

// ---------------------------------------------------------------------
// jemalloc
// ---------------------------------------------------------------------

class JeMallocTest : public AllocatorFixture
{
  protected:
    JeMalloc alloc{vm, stats};
};

TEST_F(JeMallocTest, TcacheServesRepeatedAllocFree)
{
    Addr a = alloc.malloc(48, env);
    alloc.free(a, env);
    Addr b = alloc.malloc(48, env);
    EXPECT_EQ(a, b); // LIFO tcache reuse.
    EXPECT_EQ(stats.value("jemalloc.tcache_fills"), 1u);
}

TEST_F(JeMallocTest, FillsComeInBatches)
{
    for (int i = 0; i < 33; ++i)
        alloc.malloc(48, env);
    // Batch of 32 per fill: 33 allocations need 2 fills.
    EXPECT_EQ(stats.value("jemalloc.tcache_fills"), 2u);
}

TEST_F(JeMallocTest, FlushHappensWhenTcacheOverflows)
{
    std::vector<Addr> ptrs;
    for (int i = 0; i < 100; ++i)
        ptrs.push_back(alloc.malloc(48, env));
    for (Addr p : ptrs)
        alloc.free(p, env);
    EXPECT_GT(stats.value("jemalloc.tcache_flushes"), 0u);
}

TEST_F(JeMallocTest, PrefaultedChunkAvoidsFaults)
{
    // The first chunk is pre-mapped and pre-faulted at init: small
    // allocations must not fault.
    for (int i = 0; i < 1000; ++i)
        alloc.malloc(16 + (i % 32) * 8, env);
    EXPECT_EQ(vm.faultCount(), 0u);
}

TEST_F(JeMallocTest, PurgeReturnsDrainedPages)
{
    JeMalloc::Params params;
    params.purgeIntervalOps = 64;
    params.tcacheMax = 8;
    JeMalloc purging(vm, stats, params);
    // Churn one class so pages drain and purge.
    for (int round = 0; round < 50; ++round) {
        std::vector<Addr> ptrs;
        for (int i = 0; i < 40; ++i)
            ptrs.push_back(purging.malloc(128, env));
        for (Addr p : ptrs)
            purging.free(p, env);
    }
    EXPECT_GT(stats.value("jemalloc.purges"), 0u);
    EXPECT_GT(stats.value("jemalloc.purged_pages"), 0u);
}

TEST_F(JeMallocTest, LargeGoesToGlibcPath)
{
    Addr big = alloc.malloc(2000, env);
    EXPECT_TRUE(alloc.isLive(big));
    EXPECT_EQ(stats.value("jemalloc.small_mallocs"), 0u);
    alloc.free(big, env);
}

TEST_F(JeMallocTest, FunctionExitUnmapsChunks)
{
    alloc.malloc(64, env);
    alloc.functionExit(env);
    EXPECT_EQ(alloc.liveBytes(), 0u);
    EXPECT_GT(stats.value("vm.munmap_calls"), 0u);
}

// ---------------------------------------------------------------------
// gomalloc
// ---------------------------------------------------------------------

class GoMallocTest : public AllocatorFixture
{
  protected:
    GoMalloc alloc{vm, stats};
};

TEST_F(GoMallocTest, FreeIsDeferredDeath)
{
    Addr a = alloc.malloc(64, env);
    const Cycles before = env.ledger().total();
    alloc.free(a, env);
    // Becoming garbage costs (almost) nothing and performs no frees.
    EXPECT_EQ(env.ledger().total(), before);
    EXPECT_FALSE(alloc.isLive(a));
    EXPECT_EQ(stats.value("gomalloc.deaths"), 1u);
}

TEST_F(GoMallocTest, NoGcWithoutTrigger)
{
    for (int i = 0; i < 5000; ++i) {
        Addr a = alloc.malloc(64, env);
        alloc.free(a, env);
    }
    EXPECT_EQ(alloc.gcCycles(), 0u);
}

TEST_F(GoMallocTest, GcSweepsDeadObjectsAndReusesMemory)
{
    GoMalloc::Params params;
    params.gcTriggerBytes = 64 << 10;
    GoMalloc gc_alloc(vm, stats, params);
    std::vector<Addr> first;
    for (int i = 0; i < 500; ++i)
        first.push_back(gc_alloc.malloc(64, env));
    for (Addr p : first)
        gc_alloc.free(p, env);
    // Keep allocating past the trigger: GC must run and recycle.
    for (int i = 0; i < 2000; ++i)
        gc_alloc.free(gc_alloc.malloc(64, env), env);
    EXPECT_GT(gc_alloc.gcCycles(), 0u);
    EXPECT_GT(stats.value("gomalloc.swept_objects"), 0u);
}

TEST_F(GoMallocTest, ObjectZeroingTouchesObject)
{
    env.virtWrites.clear();
    Addr a = alloc.malloc(64, env);
    bool touched = false;
    for (Addr w : env.virtWrites)
        touched |= (w == a);
    EXPECT_TRUE(touched);
}

TEST_F(GoMallocTest, ArenasAreLargeReservations)
{
    alloc.malloc(64, env);
    EXPECT_EQ(stats.value("gomalloc.arena_mmaps"), 1u);
    // 64 MiB reservation, lazily backed.
    EXPECT_LT(vm.residentUserPages(), 100u);
}

TEST_F(GoMallocTest, FunctionExitBatchFrees)
{
    for (int i = 0; i < 1000; ++i)
        alloc.malloc(96, env);
    alloc.functionExit(env);
    EXPECT_EQ(alloc.liveBytes(), 0u);
    // Batch free happens via munmap of the reservations.
    EXPECT_GT(env.ledger().category(CycleCategory::KernelMmap), 0u);
}

// ---------------------------------------------------------------------
// tcmalloc
// ---------------------------------------------------------------------

class TcMallocTest : public AllocatorFixture
{
  protected:
    TcMalloc alloc{vm, stats};
};

TEST_F(TcMallocTest, CacheServesLifoReuse)
{
    Addr a = alloc.malloc(48, env);
    alloc.free(a, env);
    Addr b = alloc.malloc(48, env);
    EXPECT_EQ(a, b);
}

TEST_F(TcMallocTest, RefillsComeInTransferBatches)
{
    for (int i = 0; i < 17; ++i)
        alloc.malloc(48, env);
    // Transfer batch of 16: 17 allocations need 2 refills.
    EXPECT_EQ(stats.value("tcmalloc.refills"), 2u);
}

TEST_F(TcMallocTest, PopFollowsFreeListPointerInObject)
{
    Addr a = alloc.malloc(64, env);
    env.virtReads.clear();
    alloc.free(a, env);
    Addr b = alloc.malloc(64, env);
    ASSERT_EQ(a, b);
    // The pop dereferenced the object (the load Mallacc removes).
    bool touched = false;
    for (Addr r : env.virtReads)
        touched |= (r == a);
    EXPECT_TRUE(touched);
}

TEST_F(TcMallocTest, ReleaseWhenCacheOverflows)
{
    std::vector<Addr> ptrs;
    for (int i = 0; i < 80; ++i)
        ptrs.push_back(alloc.malloc(32, env));
    for (Addr p : ptrs)
        alloc.free(p, env);
    EXPECT_GT(stats.value("tcmalloc.releases"), 0u);
    // Released objects are reusable via the central list.
    for (int i = 0; i < 80; ++i)
        EXPECT_NE(alloc.malloc(32, env), kNullAddr);
}

TEST_F(TcMallocTest, PageHeapGrowsInLargeIncrements)
{
    alloc.malloc(64, env);
    EXPECT_EQ(stats.value("tcmalloc.heap_grows"), 1u);
    EXPECT_GT(stats.value("vm.mmap_calls"), 0u);
}

TEST_F(TcMallocTest, FunctionExitUnmapsRegions)
{
    for (int i = 0; i < 500; ++i)
        alloc.malloc(8 + (i % 64) * 8, env);
    const std::uint64_t munmaps = stats.value("vm.munmap_calls");
    alloc.functionExit(env);
    EXPECT_EQ(alloc.liveBytes(), 0u);
    EXPECT_GT(stats.value("vm.munmap_calls"), munmaps);
    // Reusable after teardown.
    EXPECT_NE(alloc.malloc(64, env), kNullAddr);
}

TEST_F(TcMallocTest, MallaccIdealizationIsCheaper)
{
    test::TestEnv e1, e2;
    StatRegistry stats2;
    BuddyAllocator buddy2(1ull << 22, 1ull << 30, stats2);
    VirtualMemory vm2(cfg, buddy2, stats2, "vm2");
    MallaccAllocator ideal(vm2, stats2);

    // Warm both so the comparison is fast-path-only.
    for (int i = 0; i < 64; ++i) {
        alloc.free(alloc.malloc(64, e1), e1);
        ideal.free(ideal.malloc(64, e2), e2);
    }
    const Cycles before1 = e1.ledger().total();
    const Cycles before2 = e2.ledger().total();
    for (int i = 0; i < 100; ++i) {
        alloc.free(alloc.malloc(64, e1), e1);
        ideal.free(ideal.malloc(64, e2), e2);
    }
    EXPECT_LT(e2.ledger().total() - before2,
              e1.ledger().total() - before1);
}

// ---------------------------------------------------------------------
// glibc large
// ---------------------------------------------------------------------

class GlibcTest : public AllocatorFixture
{
  protected:
    GlibcLargeAlloc alloc{vm, stats, "g"};
};

TEST_F(GlibcTest, MediumSizesReuseFreedChunks)
{
    Addr a = alloc.malloc(4096, env);
    alloc.free(a, env);
    Addr b = alloc.malloc(4000, env);
    EXPECT_EQ(a, b); // First-fit finds the coalesced chunk.
}

TEST_F(GlibcTest, HugeSizesGetOwnMapping)
{
    const std::uint64_t mmaps_before = stats.value("vm.mmap_calls");
    Addr a = alloc.malloc(256 << 10, env);
    EXPECT_EQ(stats.value("vm.mmap_calls"), mmaps_before + 1);
    const std::uint64_t munmaps_before = stats.value("vm.munmap_calls");
    alloc.free(a, env);
    EXPECT_EQ(stats.value("vm.munmap_calls"), munmaps_before + 1);
}

TEST_F(GlibcTest, CoalescingMergesNeighbours)
{
    Addr a = alloc.malloc(1024, env);
    Addr b = alloc.malloc(1024, env);
    Addr c = alloc.malloc(1024, env);
    (void)c;
    alloc.free(a, env);
    alloc.free(b, env);
    // A single chunk now spans a+b: allocating 2000 bytes fits there.
    Addr d = alloc.malloc(2000, env);
    EXPECT_EQ(d, a);
}

TEST_F(GlibcTest, OwnsOnlyLivePointers)
{
    Addr a = alloc.malloc(1000, env);
    EXPECT_TRUE(alloc.owns(a));
    EXPECT_FALSE(alloc.owns(a + 8));
    alloc.free(a, env);
    EXPECT_FALSE(alloc.owns(a));
}

// ---------------------------------------------------------------------
// Allocator conformance: one suite over every Allocator the machine
// builds, checking the §4 integration contract they all share.
// ---------------------------------------------------------------------

enum class Kind { Py, Je, Go, Tc, Mallacc, Memento };

/** The Memento hardware a MementoAllocator executes on. */
struct MementoHw
{
    MementoHw(const MachineConfig &cfg, BuddyAllocator &buddy,
              StatRegistry &stats)
        : geo(cfg.memento, cfg.layout),
          hot(cfg.memento, stats),
          pageAlloc(cfg, geo, buddy, stats),
          objAlloc(cfg, geo, hot, pageAlloc, stats),
          space(geo, pageAlloc.poolFrames())
    {
    }

    ArenaGeometry geo;
    Hot hot;
    HwPageAllocator pageAlloc;
    HwObjectAllocator objAlloc;
    MementoSpace space;
};

/**
 * Sized fixture: owns the OS plumbing (and, for Memento, the hardware)
 * and builds the allocator named by the parameter. The seed varies the
 * sizes each case draws.
 */
class AllocatorPropertyTest
    : public ::testing::TestWithParam<std::tuple<Kind, std::uint64_t>>
{
  protected:
    AllocatorPropertyTest()
        : kind(std::get<0>(GetParam())),
          rng(std::get<1>(GetParam())),
          cfg(kind == Kind::Memento ? test::smallMementoConfig()
                                    : MachineConfig{}),
          buddy(1ull << 22, 1ull << 30, stats),
          vm(cfg, buddy, stats, "vm")
    {
    }

    void
    SetUp() override
    {
        switch (kind) {
          case Kind::Py:
            alloc = std::make_unique<PyMalloc>(vm, stats);
            break;
          case Kind::Je:
            alloc = std::make_unique<JeMalloc>(vm, stats);
            break;
          case Kind::Go:
            alloc = std::make_unique<GoMalloc>(vm, stats);
            break;
          case Kind::Tc:
            alloc = std::make_unique<TcMalloc>(vm, stats);
            break;
          case Kind::Mallacc:
            alloc = std::make_unique<MallaccAllocator>(vm, stats);
            break;
          case Kind::Memento:
            hw = std::make_unique<MementoHw>(cfg, buddy, stats);
            alloc = std::make_unique<MementoAllocator>(
                hw->objAlloc, hw->space, vm, stats);
            break;
        }
    }

    /** Value of the large path's <prefix>.large_mallocs counter. */
    std::uint64_t
    largeMallocs() const
    {
        // Mallacc is TCMalloc underneath and keeps its counter prefix.
        const std::string prefix =
            kind == Kind::Mallacc ? "tcmalloc" : alloc->name();
        return stats.value(prefix + ".large_mallocs");
    }

    /** A small size of at least @p min bytes, drawn from the seed. */
    std::uint64_t
    smallSize(std::uint64_t min = 1)
    {
        return rng.nextRange(min, kMaxSmallSize);
    }

    const Kind kind;
    Rng rng;
    MachineConfig cfg;
    StatRegistry stats;
    BuddyAllocator buddy;
    VirtualMemory vm;
    TestEnv env;
    std::unique_ptr<MementoHw> hw;
    std::unique_ptr<Allocator> alloc;
};

TEST_P(AllocatorPropertyTest, RandomTrafficNeverOverlapsLiveObjects)
{
    std::map<Addr, std::uint64_t> live; // base -> size
    std::vector<Addr> order;
    std::uint64_t live_bytes = 0;

    for (int i = 0; i < 8000; ++i) {
        if (order.empty() || rng.nextBool(0.58)) {
            std::uint64_t size = rng.nextBool(0.97)
                                     ? rng.nextRange(1, 512)
                                     : rng.nextRange(513, 8192);
            Addr p = alloc->malloc(size, env);
            ASSERT_NE(p, kNullAddr);
            // Overlap check against neighbours in address order.
            auto next = live.lower_bound(p);
            if (next != live.end()) {
                ASSERT_GE(next->first, p + size)
                    << "overlap at iteration " << i;
            }
            if (next != live.begin()) {
                auto prev = std::prev(next);
                ASSERT_LE(prev->first + prev->second, p);
            }
            live[p] = size;
            order.push_back(p);
            live_bytes += size;
            ASSERT_TRUE(alloc->isLive(p));
        } else {
            std::size_t pick = rng.nextBelow(order.size());
            Addr p = order[pick];
            std::uint64_t size = live.at(p);
            alloc->free(p, env);
            ASSERT_FALSE(alloc->isLive(p));
            live.erase(p);
            order.erase(order.begin() + pick);
            live_bytes -= size;
        }
        ASSERT_EQ(alloc->liveBytes(), live_bytes);
    }

    alloc->functionExit(env);
    EXPECT_EQ(alloc->liveBytes(), 0u);
}

TEST_P(AllocatorPropertyTest, SizesAbove512TakeTheGlibcPath)
{
    const Addr small = alloc->malloc(kMaxSmallSize, env);
    EXPECT_EQ(largeMallocs(), 0u);
    const Addr large = alloc->malloc(kMaxSmallSize + 1, env);
    EXPECT_EQ(largeMallocs(), 1u);
    if (hw) {
        EXPECT_TRUE(hw->geo.inRegion(small));
        EXPECT_FALSE(hw->geo.inRegion(large));
    }
    EXPECT_EQ(alloc->liveBytes(), 2 * kMaxSmallSize + 1);
    alloc->free(large, env);
    EXPECT_FALSE(alloc->isLive(large));
    EXPECT_TRUE(alloc->isLive(small));
}

TEST_P(AllocatorPropertyTest, SmallObjectsAreEightByteAligned)
{
    for (int i = 0; i < 200; ++i) {
        const Addr p = alloc->malloc(smallSize(), env);
        EXPECT_EQ(p % 8, 0u) << "size class of malloc " << i;
    }
}

TEST_P(AllocatorPropertyTest, FreeThenSameClassMallocReusesTheSlot)
{
    const std::uint64_t size = smallSize();
    // Keep a neighbour live so the slot's pool/span/arena survives.
    const Addr keep = alloc->malloc(size, env);
    const Addr a = alloc->malloc(size, env);
    alloc->free(a, env);
    EXPECT_FALSE(alloc->isLive(a));
    // Go's free only records death; the slot is reclaimed by a sweep.
    if (auto *go = dynamic_cast<GoMalloc *>(alloc.get()))
        go->runGc(env);
    EXPECT_EQ(alloc->malloc(size, env), a);
    EXPECT_TRUE(alloc->isLive(keep));
}

TEST_P(AllocatorPropertyTest, ZeroSizeMallocPanics)
{
    EXPECT_DEATH(alloc->malloc(0, env), "panic: ");
}

TEST_P(AllocatorPropertyTest, DoubleFreePanics)
{
    const Addr a = alloc->malloc(smallSize(), env);
    alloc->free(a, env);
    EXPECT_DEATH(alloc->free(a, env), "panic: ");
}

TEST_P(AllocatorPropertyTest, InteriorFreePanics)
{
    const Addr a = alloc->malloc(smallSize(16), env);
    EXPECT_DEATH(alloc->free(a + 8, env), "panic: ");
}

INSTANTIATE_TEST_SUITE_P(
    AllAllocators, AllocatorPropertyTest,
    ::testing::Combine(::testing::Values(Kind::Py, Kind::Je, Kind::Go,
                                         Kind::Tc, Kind::Mallacc,
                                         Kind::Memento),
                       ::testing::Values(1u, 2u, 3u, 4u)));

} // namespace
} // namespace memento
