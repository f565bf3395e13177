/**
 * @file
 * Unit tests for the TLB model.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "mem/tlb.h"
#include "sim/rng.h"

namespace memento {
namespace {

class TlbTest : public ::testing::Test
{
  protected:
    StatRegistry stats;
    Tlb tlb{"t", TlbConfig{16, 4}, stats};
};

TEST_F(TlbTest, MissThenHit)
{
    EXPECT_FALSE(tlb.translate(0x5000).has_value());
    tlb.insert(0x5000, 0x9000);
    auto hit = tlb.translate(0x5123);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, 0x9123u);
    EXPECT_EQ(stats.value("t.hits"), 1u);
    EXPECT_EQ(stats.value("t.misses"), 1u);
}

TEST_F(TlbTest, UpdateInPlace)
{
    tlb.insert(0x5000, 0x9000);
    tlb.insert(0x5000, 0xA000);
    EXPECT_EQ(*tlb.translate(0x5000), 0xA000u);
}

TEST_F(TlbTest, InvalidatePage)
{
    tlb.insert(0x5000, 0x9000);
    tlb.invalidatePage(0x5FFF);
    EXPECT_FALSE(tlb.translate(0x5000).has_value());
}

TEST_F(TlbTest, FlushAll)
{
    for (Addr p = 0; p < 8; ++p)
        tlb.insert(p << kPageShift, (p + 100) << kPageShift);
    tlb.flushAll();
    for (Addr p = 0; p < 8; ++p)
        EXPECT_FALSE(tlb.translate(p << kPageShift).has_value());
}

TEST_F(TlbTest, EvictsLruWithinSet)
{
    // 16 entries, 4 ways -> 4 sets; pages with the same (page % 4) map
    // to the same set.
    std::vector<Addr> pages;
    for (int i = 0; i < 4; ++i)
        pages.push_back((4ull * i) << kPageShift);
    for (Addr p : pages)
        tlb.insert(p, p + kPageSize);
    tlb.translate(pages[0]); // Refresh.
    tlb.insert((4ull * 10) << kPageShift, 0x1000);
    EXPECT_TRUE(tlb.translate(pages[0]).has_value());
    EXPECT_FALSE(tlb.translate(pages[1]).has_value());
}

TEST_F(TlbTest, PageOffsetIgnoredOnInsert)
{
    tlb.insert(0x7ABC, 0x3DEF);
    auto hit = tlb.translate(0x7000);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, 0x3000u); // Physical page base, not the raw value.
}

TEST_F(TlbTest, HugeEntryCoversWholeBlock)
{
    const std::uint64_t huge = 1ull << kHugePageShift;
    tlb.insert(0x4000'0000, 0x1200'0000, kHugePageShift);
    auto hit = tlb.translate(0x4000'0000 + huge - 5);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, 0x1200'0000 + huge - 5);
    // Outside the block: miss.
    EXPECT_FALSE(tlb.translate(0x4000'0000 + huge).has_value());
}

TEST_F(TlbTest, MixedGranularitiesCoexist)
{
    tlb.insert(0x5000, 0x9000);
    tlb.insert(0x4000'0000, 0x1200'0000, kHugePageShift);
    EXPECT_EQ(*tlb.translate(0x5123), 0x9123u);
    EXPECT_TRUE(tlb.translate(0x4010'0000).has_value());
    tlb.invalidatePage(0x4000'0000);
    EXPECT_FALSE(tlb.translate(0x4010'0000).has_value());
    EXPECT_TRUE(tlb.translate(0x5000).has_value());
}

TEST_F(TlbTest, TranslateReportsTheHitEntrysGranularity)
{
    tlb.insert(0x5000, 0x9000);
    tlb.insert(0x4000'0000, 0x1200'0000, kHugePageShift);
    unsigned shift = 0;
    ASSERT_TRUE(tlb.translate(0x5123, &shift).has_value());
    EXPECT_EQ(shift, kPageShift);
    ASSERT_TRUE(tlb.translate(0x4010'0000, &shift).has_value());
    EXPECT_EQ(shift, kHugePageShift);
    shift = 0;
    EXPECT_FALSE(tlb.translate(0x7000, &shift).has_value());
    EXPECT_EQ(shift, 0u); // Untouched on a miss.
}

TEST(TlbGeometry, NonDivisibleEntriesRoundDown)
{
    StatRegistry stats;
    // Table 3's 2048-entry 12-way TLB: sets round down to 170.
    Tlb tlb("t", TlbConfig{2048, 12}, stats);
    // Capacity still works for a burst of insert/translate pairs.
    for (Addr p = 0; p < 100; ++p) {
        tlb.insert(p << kPageShift, (p + 5) << kPageShift);
        EXPECT_TRUE(tlb.translate(p << kPageShift).has_value());
    }
}

TEST(TlbGeometry, SweepConfigurations)
{
    for (unsigned entries : {8u, 64u, 256u}) {
        for (unsigned ways : {1u, 2u, 4u}) {
            StatRegistry stats;
            Tlb tlb("t", TlbConfig{entries, ways}, stats);
            // Inserting up to one set of pages per set keeps them all.
            const unsigned sets = entries / ways;
            for (unsigned w = 0; w < ways; ++w) {
                Addr page = static_cast<Addr>(w) * sets;
                tlb.insert(page << kPageShift, 0x1000);
            }
            for (unsigned w = 0; w < ways; ++w) {
                Addr page = static_cast<Addr>(w) * sets;
                EXPECT_TRUE(tlb.translate(page << kPageShift).has_value());
            }
        }
    }
}

// ---------------------------------------------------------------------
// Set-index reduction
// ---------------------------------------------------------------------

TEST(FastMod, EqualsRemainderForEveryInputShape)
{
    using U64 = std::uint64_t;
    const U64 two32 = U64{1} << 32;
    const U64 max = ~U64{0};
    for (U64 n : {U64{1}, U64{3}, U64{5}, U64{170}, U64{1000}, two32 + 1,
                  max}) {
        const Uint128 c = fastModConstant(n);
        for (U64 a : {U64{0}, U64{1}, n - 1, n, two32 - 1, two32,
                      two32 + 1, U64{1} << 63, max})
            ASSERT_EQ(fastMod(a, c, n), a % n) << a << " % " << n;
        Rng rng(n);
        for (int i = 0; i < 1'000'000; ++i) {
            const U64 a = rng.next();
            ASSERT_EQ(fastMod(a, c, n), a % n) << a << " % " << n;
        }
    }
}

// ---------------------------------------------------------------------
// Differential victim order against a plain {valid, shift, vpage,
// stamp} model: update a resident copy in place, else fill the first
// invalid way, else evict the first way with the least LRU stamp.
// ---------------------------------------------------------------------

class RefTlb
{
  public:
    explicit RefTlb(const TlbConfig &cfg)
        : sets_(cfg.entries / cfg.ways), ways_(cfg.ways),
          entries_(sets_ * ways_)
    {
    }

    std::optional<Addr>
    translate(Addr vaddr)
    {
        for (unsigned shift : {kPageShift, kHugePageShift}) {
            if (Entry *e = find(vaddr >> shift, shift)) {
                e->stamp = ++clock_;
                return e->pbase + (vaddr & ((1ull << shift) - 1));
            }
        }
        return std::nullopt;
    }

    void
    insert(Addr vaddr, Addr paddr, unsigned shift)
    {
        const Addr vpage = vaddr >> shift;
        Entry *victim = find(vpage, shift);
        Entry *base = set(vpage);
        for (unsigned w = 0; w < ways_ && !victim; ++w) {
            if (!base[w].valid)
                victim = &base[w];
        }
        if (!victim) {
            victim = &base[0];
            for (unsigned w = 1; w < ways_; ++w) {
                if (base[w].stamp < victim->stamp)
                    victim = &base[w];
            }
        }
        *victim = {true, shift, vpage, paddr & ~((1ull << shift) - 1),
                   ++clock_};
    }

    void
    invalidatePage(Addr vaddr)
    {
        for (unsigned shift : {kPageShift, kHugePageShift}) {
            if (Entry *e = find(vaddr >> shift, shift))
                e->valid = false;
        }
    }

    void
    flushAll()
    {
        for (Entry &e : entries_)
            e.valid = false;
    }

  private:
    struct Entry
    {
        bool valid = false;
        unsigned shift = kPageShift;
        Addr vpage = 0;
        Addr pbase = 0;
        std::uint64_t stamp = 0;
    };

    Entry *set(Addr vpage) { return &entries_[(vpage % sets_) * ways_]; }

    Entry *
    find(Addr vpage, unsigned shift)
    {
        Entry *base = set(vpage);
        for (unsigned w = 0; w < ways_; ++w) {
            if (base[w].valid && base[w].shift == shift &&
                base[w].vpage == vpage)
                return &base[w];
        }
        return nullptr;
    }

    std::uint64_t sets_;
    unsigned ways_;
    std::vector<Entry> entries_;
    std::uint64_t clock_ = 0;
};

class TlbDifferential : public ::testing::TestWithParam<TlbConfig>
{
};

TEST_P(TlbDifferential, MatchesReferenceVictimOrder)
{
    const TlbConfig cfg = GetParam();
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        StatRegistry stats;
        Tlb tlb("t", cfg, stats);
        RefTlb ref(cfg);
        Rng rng(seed);
        // Pages scattered over the 48-bit space, three per entry, and a
        // few 2 MiB regions that overlap some of them.
        std::vector<Addr> pages(3 * cfg.entries);
        for (Addr &page : pages)
            page = rng.nextBelow(1ull << 48) & ~(kPageSize - 1);
        std::vector<Addr> huge(cfg.entries / 4 + 1);
        for (std::size_t i = 0; i < huge.size(); ++i)
            huge[i] = pages[i] & ~((1ull << kHugePageShift) - 1);

        std::uint64_t hits = 0;
        for (int i = 0; i < 200'000; ++i) {
            const bool is_huge = rng.nextBelow(10) == 0;
            const Addr vaddr =
                (is_huge ? huge[rng.nextBelow(huge.size())] +
                               rng.nextBelow(1ull << kHugePageShift)
                         : pages[rng.nextBelow(pages.size())]) +
                rng.nextBelow(kPageSize);
            const Addr paddr = rng.nextBelow(1ull << 40);
            switch (rng.nextBelow(100)) {
            case 0:
                if (rng.nextBelow(20) == 0) {
                    tlb.flushAll();
                    ref.flushAll();
                }
                break;
            case 1: case 2: case 3: case 4:
                tlb.invalidatePage(vaddr);
                ref.invalidatePage(vaddr);
                break;
            default:
                if (rng.nextBelow(2)) {
                    const unsigned shift =
                        is_huge ? kHugePageShift : kPageShift;
                    tlb.insert(vaddr, paddr, shift);
                    ref.insert(vaddr, paddr, shift);
                } else {
                    const std::optional<Addr> want = ref.translate(vaddr);
                    ASSERT_EQ(tlb.translate(vaddr), want) << "op " << i;
                    hits += want.has_value();
                }
                break;
            }
        }
        // Every page and region still agrees on residency and target.
        for (Addr page : pages) {
            const std::optional<Addr> want = ref.translate(page);
            ASSERT_EQ(tlb.translate(page), want);
            hits += want.has_value();
        }
        for (Addr region : huge) {
            const std::optional<Addr> want = ref.translate(region);
            ASSERT_EQ(tlb.translate(region), want);
            hits += want.has_value();
        }
        EXPECT_EQ(tlb.hitCount(), hits);
    }
}

INSTANTIATE_TEST_SUITE_P(Geometries, TlbDifferential,
                         ::testing::Values(TlbConfig{16, 1},
                                           TlbConfig{64, 4},
                                           TlbConfig{2048, 12}));

} // namespace
} // namespace memento
