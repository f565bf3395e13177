/**
 * @file
 * Unit tests for the cache model, DRAM model, and the inclusive
 * hierarchy (hit/miss behaviour, LRU, inclusion maintenance,
 * writeback traffic, and the Memento bypass path).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "mem/cache.h"
#include "mem/cache_hierarchy.h"
#include "mem/dram.h"
#include "sim/rng.h"
#include "test_util.h"

namespace memento {
namespace {

using test::smallConfig;

class CacheTest : public ::testing::Test
{
  protected:
    StatRegistry stats;
    // 4 KiB, 4-way, 64 B lines -> 16 sets.
    Cache cache{"c", CacheConfig{4 << 10, 4, 3}, stats};

    /** Address falling in @p set with tag nonce @p n. */
    static Addr
    addrInSet(std::uint64_t set, std::uint64_t n)
    {
        return (set << kLineShift) + (n << (kLineShift + 4));
    }
};

TEST_F(CacheTest, MissThenHitAfterInstall)
{
    EXPECT_FALSE(cache.access(0x1000, false));
    cache.install(0x1000, false);
    EXPECT_TRUE(cache.access(0x1000, false));
    EXPECT_EQ(stats.value("c.hits"), 1u);
    EXPECT_EQ(stats.value("c.misses"), 1u);
}

TEST_F(CacheTest, SameLineDifferentBytesHit)
{
    cache.install(0x1000, false);
    EXPECT_TRUE(cache.access(0x103F, false));
    EXPECT_TRUE(cache.access(0x1001, true));
}

TEST_F(CacheTest, WriteSetsDirtyAndEvictionReportsIt)
{
    Addr target = addrInSet(7, 1);
    cache.install(target, false);
    EXPECT_TRUE(cache.access(target, true)); // Dirty now.

    // Fill the set until the dirty line is evicted.
    bool saw_dirty_victim = false;
    for (std::uint64_t n = 2; n < 8; ++n) {
        Cache::Eviction ev = cache.install(addrInSet(7, n), false);
        if (ev.valid && ev.lineAddr == lineBase(target)) {
            EXPECT_TRUE(ev.dirty);
            saw_dirty_victim = true;
        }
    }
    EXPECT_TRUE(saw_dirty_victim);
}

TEST_F(CacheTest, LruEvictsOldest)
{
    // Fill one set with 4 lines, touch the first to refresh it, then
    // install a 5th: the second line (now LRU) must be evicted.
    std::vector<Addr> addrs;
    for (std::uint64_t n = 0; n < 4; ++n) {
        Addr a = addrInSet(5, n + 1);
        addrs.push_back(a);
        cache.install(a, false);
    }
    EXPECT_TRUE(cache.access(addrs[0], false)); // Refresh LRU order.

    Cache::Eviction ev = cache.install(addrInSet(5, 9), false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, lineBase(addrs[1]));
    EXPECT_TRUE(cache.contains(addrs[0]));
    EXPECT_FALSE(cache.contains(addrs[1]));
}

TEST_F(CacheTest, DirtyEvictionFlagged)
{
    for (std::uint64_t n = 0; n < 4; ++n)
        cache.install(addrInSet(3, n + 1), false);
    cache.access(addrInSet(3, 1), true); // Dirty, and refreshes.

    // Evict three clean ones; dirty line remains until last.
    unsigned dirty_evictions = 0;
    for (std::uint64_t n = 10; n < 14; ++n) {
        Cache::Eviction ev = cache.install(addrInSet(3, n), false);
        if (ev.valid && ev.dirty)
            ++dirty_evictions;
    }
    EXPECT_EQ(dirty_evictions, 1u);
}

TEST_F(CacheTest, InvalidateReturnsDirtiness)
{
    cache.install(0x2000, false);
    EXPECT_FALSE(cache.invalidate(0x2000));
    EXPECT_FALSE(cache.contains(0x2000));

    cache.install(0x3000, true);
    EXPECT_TRUE(cache.invalidate(0x3000));
    EXPECT_FALSE(cache.invalidate(0x3000)); // Already gone.
}

TEST_F(CacheTest, InstallExistingLineMergesDirty)
{
    cache.install(0x4000, true);
    Cache::Eviction ev = cache.install(0x4000, false);
    EXPECT_FALSE(ev.valid);
    EXPECT_TRUE(cache.invalidate(0x4000)); // Still dirty.
}

TEST_F(CacheTest, FlushAllCountsDirtyLines)
{
    cache.install(0x1000, true);
    cache.install(0x2000, false);
    cache.install(0x3000, true);
    EXPECT_EQ(cache.flushAll(), 2u);
    EXPECT_EQ(cache.residentLines(), 0u);
}

TEST(CacheGeometry, ParamSweepResidency)
{
    // Property: a cache never holds more lines than its capacity and
    // re-accessing installed lines within capacity always hits.
    for (unsigned ways : {1u, 2u, 4u, 8u}) {
        for (std::uint64_t kb : {1u, 4u, 16u}) {
            StatRegistry stats;
            Cache cache("c", CacheConfig{kb << 10, ways, 1}, stats);
            const std::uint64_t lines = (kb << 10) / kLineSize;
            for (std::uint64_t i = 0; i < 4 * lines; ++i)
                cache.install(i * kLineSize, false);
            EXPECT_LE(cache.residentLines(), lines);

            // Sequential fill of exactly one set's worth always hits.
            for (unsigned w = 0; w < ways; ++w)
                cache.install((w * lines / ways) * kLineSize, false);
            for (unsigned w = 0; w < ways; ++w)
                EXPECT_TRUE(
                    cache.access((w * lines / ways) * kLineSize, false));
        }
    }
}

// ---------------------------------------------------------------------
// Differential victim order against a plain {valid, dirty, tag, stamp}
// model: fill the first invalid way, else evict the first way with the
// least LRU stamp.
// ---------------------------------------------------------------------

class RefCache
{
  public:
    RefCache(std::uint64_t sets, unsigned ways)
        : sets_(sets), ways_(ways), lines_(sets * ways)
    {
    }

    bool
    access(Addr paddr, bool is_write)
    {
        if (Line *line = find(paddr)) {
            line->stamp = ++clock_;
            line->dirty = line->dirty || is_write;
            return true;
        }
        return false;
    }

    bool contains(Addr paddr) { return find(paddr) != nullptr; }

    Cache::Eviction
    install(Addr paddr, bool dirty)
    {
        if (Line *line = find(paddr)) {
            line->stamp = ++clock_;
            line->dirty = line->dirty || dirty;
            return {};
        }
        Line *base = set(paddr);
        Line *victim = nullptr;
        for (unsigned w = 0; w < ways_ && !victim; ++w) {
            if (!base[w].valid)
                victim = &base[w];
        }
        Cache::Eviction ev;
        if (!victim) {
            victim = &base[0];
            for (unsigned w = 1; w < ways_; ++w) {
                if (base[w].stamp < victim->stamp)
                    victim = &base[w];
            }
            ev = {true, victim->tag << kLineShift, victim->dirty};
        }
        *victim = {true, dirty, paddr >> kLineShift, ++clock_};
        return ev;
    }

    bool
    invalidate(Addr paddr)
    {
        Line *line = find(paddr);
        if (!line)
            return false;
        const bool dirty = line->dirty;
        line->valid = false;
        line->dirty = false;
        return dirty;
    }

    bool
    tryMarkDirty(Addr paddr)
    {
        Line *line = find(paddr);
        if (line)
            line->dirty = true;
        return line != nullptr;
    }

    std::uint64_t
    flushAll()
    {
        std::uint64_t dirty = 0;
        for (Line &line : lines_) {
            dirty += line.valid && line.dirty;
            line.valid = false;
            line.dirty = false;
        }
        return dirty;
    }

    std::vector<std::pair<Addr, bool>>
    lines() const
    {
        std::vector<std::pair<Addr, bool>> out;
        for (const Line &line : lines_) {
            if (line.valid)
                out.emplace_back(line.tag << kLineShift, line.dirty);
        }
        return out;
    }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        std::uint64_t stamp = 0;
    };

    Line *
    set(Addr paddr)
    {
        return &lines_[((paddr >> kLineShift) & (sets_ - 1)) * ways_];
    }

    Line *
    find(Addr paddr)
    {
        Line *base = set(paddr);
        for (unsigned w = 0; w < ways_; ++w) {
            if (base[w].valid && base[w].tag == paddr >> kLineShift)
                return &base[w];
        }
        return nullptr;
    }

    std::uint64_t sets_;
    unsigned ways_;
    std::vector<Line> lines_;
    std::uint64_t clock_ = 0;
};

std::vector<std::pair<Addr, bool>>
linesOf(const Cache &cache)
{
    std::vector<std::pair<Addr, bool>> out;
    cache.forEachLine(
        [&](Addr line, bool dirty) { out.emplace_back(line, dirty); });
    return out;
}

void
expectSameEviction(const Cache::Eviction &got, const Cache::Eviction &want)
{
    ASSERT_EQ(got.valid, want.valid);
    if (want.valid) {
        ASSERT_EQ(got.lineAddr, want.lineAddr);
        ASSERT_EQ(got.dirty, want.dirty);
    }
}

class CacheDifferential
    : public ::testing::TestWithParam<std::pair<std::uint64_t, unsigned>>
{
};

TEST_P(CacheDifferential, MatchesReferenceVictimOrder)
{
    const auto [sets, ways] = GetParam();
    const std::uint64_t pool = sets * ways * 3; // Distinct lines touched.
    const std::uint64_t ops = std::max<std::uint64_t>(20000, pool * 2);
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        StatRegistry stats;
        Cache cache("c", CacheConfig{sets * ways * kLineSize, ways, 1},
                    stats);
        RefCache ref(sets, ways);
        Rng rng(seed);
        std::uint64_t evictions = 0;
        std::uint64_t dirty_evictions = 0;
        for (std::uint64_t i = 0; i < ops; ++i) {
            const Addr paddr =
                (rng.nextBelow(pool) << kLineShift) + rng.nextBelow(64);
            const bool flag = rng.nextBelow(2) != 0;
            Cache::Eviction want;
            switch (rng.nextBelow(100)) {
            case 0:
                if (rng.nextBelow(sets) == 0) { // Rarer in larger caches.
                    ASSERT_EQ(cache.flushAll(), ref.flushAll());
                }
                break;
            case 1: case 2: case 3: case 4: case 5:
                ASSERT_EQ(cache.invalidate(paddr), ref.invalidate(paddr));
                break;
            case 6: case 7: case 8: case 9: case 10:
                ASSERT_EQ(cache.tryMarkDirty(paddr),
                          ref.tryMarkDirty(paddr));
                break;
            case 11: case 12: case 13: case 14: case 15:
                ASSERT_EQ(cache.contains(paddr), ref.contains(paddr));
                break;
            default:
                if (rng.nextBelow(2)) {
                    want = ref.install(paddr, flag);
                    expectSameEviction(cache.install(paddr, flag), want);
                } else if (cache.access(paddr, flag)) {
                    ASSERT_TRUE(ref.access(paddr, flag));
                } else {
                    ASSERT_FALSE(ref.contains(paddr));
                    want = ref.install(paddr, flag);
                    expectSameEviction(cache.installAbsent(paddr, flag),
                                       want);
                }
                break;
            }
            evictions += want.valid;
            dirty_evictions += want.valid && want.dirty;
            if (i % 4096 == 0) {
                ASSERT_EQ(cache.residentLines(), ref.lines().size());
            }
        }
        EXPECT_EQ(linesOf(cache), ref.lines());
        EXPECT_EQ(cache.residentLines(), ref.lines().size());
        EXPECT_EQ(stats.value("c.evictions"), evictions);
        EXPECT_EQ(stats.value("c.dirty_evictions"), dirty_evictions);
        std::vector<std::string> violations;
        EXPECT_TRUE(cache.checkIntegrity(violations));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDifferential,
    ::testing::Values(std::pair<std::uint64_t, unsigned>{16, 1},
                      std::pair<std::uint64_t, unsigned>{16, 2},
                      std::pair<std::uint64_t, unsigned>{64, 8},
                      std::pair<std::uint64_t, unsigned>{32, 12},
                      std::pair<std::uint64_t, unsigned>{2048, 16}));

// ---------------------------------------------------------------------
// DRAM model
// ---------------------------------------------------------------------

TEST(Dram, RowHitFasterThanMiss)
{
    StatRegistry stats;
    DramConfig cfg;
    Dram dram(cfg, stats);
    Cycles first = dram.access(0x10000, false, 0);
    Cycles second = dram.access(0x10000 + kLineSize * cfg.banks, false,
                                first); // Same bank, same row region?
    (void)second;
    // First access opens the row (miss); an access to the same row on
    // the same bank afterwards is a hit.
    Cycles third = dram.access(0x10000, false, 10'000);
    EXPECT_GT(first, third);
    EXPECT_EQ(stats.value("dram.row_hits") +
                  stats.value("dram.row_misses"),
              3u);
}

TEST(Dram, TrafficAccounting)
{
    StatRegistry stats;
    Dram dram(DramConfig{}, stats);
    dram.access(0x0, false, 0);
    dram.access(0x40, true, 0);
    EXPECT_EQ(dram.totalBytes(), 2 * kLineSize);
    EXPECT_EQ(dram.readCount(), 1u);
    EXPECT_EQ(dram.writeCount(), 1u);
}

TEST(Dram, WritebacksReturnZeroLatency)
{
    StatRegistry stats;
    Dram dram(DramConfig{}, stats);
    EXPECT_EQ(dram.access(0x80, true, 0), 0u);
    EXPECT_GT(dram.access(0x80, false, 0), 0u);
}

TEST(Dram, BankQueuingPenalty)
{
    StatRegistry stats;
    DramConfig cfg;
    Dram dram(cfg, stats);
    // Two immediate accesses to the same bank and row: the second
    // queues behind the first.
    Cycles a = dram.access(0x0, false, 0);
    Cycles b = dram.access(0x0, false, 0);
    EXPECT_EQ(b, cfg.hitLatency + Dram::kBankBusyPenalty);
    (void)a;
}

// ---------------------------------------------------------------------
// Hierarchy
// ---------------------------------------------------------------------

class HierarchyTest : public ::testing::Test
{
  protected:
    StatRegistry stats;
    MachineConfig cfg = smallConfig();
    CacheHierarchy hier{cfg, stats};
};

TEST_F(HierarchyTest, ColdMissGoesToDram)
{
    AccessResult res = hier.access(0x10000, AccessType::Read, 0);
    EXPECT_EQ(stats.value("l1d.hits") + stats.value("l2.hits") +
                  stats.value("llc.hits"),
              0u);
    EXPECT_EQ(stats.value("dram.reads"), 1u);
    // Latency covers every level plus DRAM.
    EXPECT_GE(res.latency, cfg.l1d.latency + cfg.l2.latency +
                               cfg.llc.latency + cfg.dram.hitLatency);
}

TEST_F(HierarchyTest, SecondAccessHitsL1)
{
    hier.access(0x10000, AccessType::Read, 0);
    AccessResult res = hier.access(0x10000, AccessType::Read, 100);
    EXPECT_EQ(stats.value("l1d.hits"), 1u);
    EXPECT_EQ(res.latency, cfg.l1d.latency);
}

TEST_F(HierarchyTest, FetchUsesL1I)
{
    hier.access(0x20000, AccessType::Fetch, 0);
    EXPECT_EQ(stats.value("l1i.misses"), 1u);
    EXPECT_EQ(stats.value("l1d.misses"), 0u);
    hier.access(0x20000, AccessType::Fetch, 10);
    EXPECT_EQ(stats.value("l1i.hits"), 1u);
}

TEST_F(HierarchyTest, BypassInstantiatesAtLlcWithoutDram)
{
    AccessAttrs attrs;
    attrs.bypassCandidate = true;
    AccessResult res = hier.access(0x30000, AccessType::Write, 0, attrs);
    EXPECT_EQ(stats.value("hier.bypassed_lines"), 1u);
    EXPECT_EQ(stats.value("dram.reads"), 0u);
    EXPECT_EQ(hier.bypassedLines(), 1u);
    // The LLC supplies the line: no DRAM latency.
    EXPECT_EQ(res.latency,
              cfg.l1d.latency + cfg.l2.latency + cfg.llc.latency);

    // The line is now resident: subsequent access hits L1.
    hier.access(0x30000, AccessType::Read, 10);
    EXPECT_EQ(stats.value("l1d.hits"), 1u);
}

TEST_F(HierarchyTest, BypassIgnoredOnResidentLine)
{
    hier.access(0x40000, AccessType::Read, 0);
    AccessAttrs attrs;
    attrs.bypassCandidate = true;
    hier.access(0x40000, AccessType::Read, 10, attrs);
    EXPECT_EQ(stats.value("hier.bypassed_lines"), 0u);
    EXPECT_EQ(stats.value("l1d.hits"), 1u);
}

TEST_F(HierarchyTest, DirtyDataEventuallyWritesBack)
{
    // Write a large footprint so dirty lines cascade out of the LLC.
    const std::uint64_t llc_lines = cfg.llc.sizeBytes / kLineSize;
    for (std::uint64_t i = 0; i < llc_lines * 4; ++i)
        hier.access(0x100000 + i * kLineSize, AccessType::Write, i * 10);
    EXPECT_GT(stats.value("dram.writes"), 0u);
}

TEST_F(HierarchyTest, InclusionBackInvalidatesInnerLevels)
{
    // Fill far beyond LLC capacity, then verify no line is L1-resident
    // that is not also LLC-resident (spot check on a recent victim).
    const std::uint64_t llc_lines = cfg.llc.sizeBytes / kLineSize;
    Addr first = 0x200000;
    hier.access(first, AccessType::Read, 0);
    for (std::uint64_t i = 1; i <= llc_lines * 2; ++i)
        hier.access(first + i * kLineSize, AccessType::Read, i * 10);
    // The first line was certainly evicted from the LLC; inclusion
    // means it cannot be in the L1 anymore.
    EXPECT_FALSE(hier.llc().contains(first));
    EXPECT_FALSE(hier.l1d().contains(first));
    EXPECT_FALSE(hier.l2().contains(first));
}

TEST_F(HierarchyTest, InstallLineMakesL1HitWithoutDram)
{
    const std::uint64_t reads_before = stats.value("dram.reads");
    hier.installLine(0x50000, 0);
    EXPECT_EQ(stats.value("dram.reads"), reads_before);
    AccessResult res = hier.access(0x50000, AccessType::Read, 5);
    EXPECT_EQ(res.latency, cfg.l1d.latency);
}

TEST_F(HierarchyTest, WriteAllocatesIntoL1)
{
    hier.access(0x60000, AccessType::Write, 0);
    EXPECT_TRUE(hier.l1d().contains(0x60000));
    EXPECT_TRUE(hier.llc().contains(0x60000));
}

} // namespace
} // namespace memento
