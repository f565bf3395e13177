/**
 * @file
 * Unit and property tests for the physical buddy allocator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "os/buddy_allocator.h"
#include "sim/rng.h"

namespace memento {
namespace {

constexpr Addr kBase = 1ull << 22;
constexpr std::uint64_t kSize = 16ull << 20; // 16 MiB = 4096 pages.

class BuddyTest : public ::testing::Test
{
  protected:
    StatRegistry stats;
    BuddyAllocator buddy{kBase, kSize, stats};
};

TEST_F(BuddyTest, AllocateReturnsAlignedBlocks)
{
    for (unsigned order = 0; order <= BuddyAllocator::kMaxOrder;
         ++order) {
        Addr block = buddy.allocate(order);
        ASSERT_NE(block, kNullAddr);
        EXPECT_EQ((block - kBase) % (kPageSize << order), 0u);
        buddy.free(block, order);
    }
    EXPECT_TRUE(buddy.checkInvariants());
}

TEST_F(BuddyTest, PagesAreDistinct)
{
    std::vector<Addr> pages;
    for (int i = 0; i < 256; ++i)
        pages.push_back(buddy.allocatePage());
    std::sort(pages.begin(), pages.end());
    EXPECT_TRUE(std::adjacent_find(pages.begin(), pages.end()) ==
                pages.end());
    EXPECT_EQ(buddy.allocatedPages(), 256u);
}

TEST_F(BuddyTest, FreeCoalescesBackToFull)
{
    std::vector<Addr> pages;
    for (int i = 0; i < 1024; ++i)
        pages.push_back(buddy.allocatePage());
    for (Addr p : pages)
        buddy.freePage(p);
    EXPECT_EQ(buddy.allocatedPages(), 0u);
    EXPECT_TRUE(buddy.checkInvariants());
    // After full coalescing, a max-order block must be allocatable.
    Addr big = buddy.allocate(BuddyAllocator::kMaxOrder);
    EXPECT_NE(big, kNullAddr);
}

TEST_F(BuddyTest, ExhaustionReturnsNull)
{
    const std::uint64_t total = buddy.totalPages();
    std::vector<Addr> pages;
    for (std::uint64_t i = 0; i < total; ++i) {
        Addr p = buddy.allocatePage();
        ASSERT_NE(p, kNullAddr);
        pages.push_back(p);
    }
    EXPECT_EQ(buddy.allocatePage(), kNullAddr);
    EXPECT_EQ(buddy.freePages(), 0u);
    for (Addr p : pages)
        buddy.freePage(p);
    EXPECT_EQ(buddy.freePages(), total);
}

TEST_F(BuddyTest, PeakTracksHighWater)
{
    Addr a = buddy.allocatePage();
    Addr b = buddy.allocatePage();
    buddy.freePage(a);
    buddy.freePage(b);
    EXPECT_EQ(buddy.peakAllocatedPages(), 2u);
}

TEST_F(BuddyTest, MixedOrdersDoNotOverlap)
{
    std::map<Addr, std::uint64_t> live; // base -> bytes
    Rng rng(99);
    std::vector<std::pair<Addr, unsigned>> blocks;
    for (int i = 0; i < 300; ++i) {
        unsigned order = static_cast<unsigned>(rng.nextBelow(6));
        Addr block = buddy.allocate(order);
        if (block == kNullAddr)
            continue;
        const std::uint64_t bytes = kPageSize << order;
        // Check overlap against all live blocks.
        auto next = live.lower_bound(block);
        if (next != live.end()) {
            ASSERT_GE(next->first, block + bytes);
        }
        if (next != live.begin()) {
            auto prev = std::prev(next);
            ASSERT_LE(prev->first + prev->second, block);
        }
        live[block] = bytes;
        blocks.push_back({block, order});
        // Randomly free some.
        if (rng.nextBool(0.4) && !blocks.empty()) {
            auto pick = blocks.begin() + rng.nextBelow(blocks.size());
            buddy.free(pick->first, pick->second);
            live.erase(pick->first);
            blocks.erase(pick);
        }
    }
    for (auto &[block, order] : blocks)
        buddy.free(block, order);
    EXPECT_TRUE(buddy.checkInvariants());
    EXPECT_EQ(buddy.allocatedPages(), 0u);
}

/** Property sweep: random alloc/free traffic preserves the invariant
 *  free+live == total for several seeds. */
class BuddyPropertyTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BuddyPropertyTest, RandomTrafficKeepsInvariants)
{
    StatRegistry stats;
    BuddyAllocator buddy(kBase, 8ull << 20, stats);
    Rng rng(GetParam());
    std::vector<std::pair<Addr, unsigned>> live;
    for (int i = 0; i < 2000; ++i) {
        if (live.empty() || rng.nextBool(0.55)) {
            unsigned order = static_cast<unsigned>(rng.nextBelow(4));
            Addr block = buddy.allocate(order);
            if (block != kNullAddr)
                live.push_back({block, order});
        } else {
            std::size_t pick = rng.nextBelow(live.size());
            buddy.free(live[pick].first, live[pick].second);
            live.erase(live.begin() + pick);
        }
    }
    EXPECT_TRUE(buddy.checkInvariants());
    for (auto &[block, order] : live)
        buddy.free(block, order);
    EXPECT_TRUE(buddy.checkInvariants());
    EXPECT_EQ(buddy.allocatedPages(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

/**
 * Reference free-list model: every max-order block is listed from the
 * start, with no implicit range above a frontier.
 */
class SetBuddy
{
  public:
    static constexpr unsigned kMax = BuddyAllocator::kMaxOrder;

    SetBuddy(Addr base, std::uint64_t bytes) : base_(base), lists_(kMax + 1)
    {
        for (Addr a = base; a < base + bytes; a += kPageSize << kMax)
            lists_[kMax].insert(a);
    }

    Addr
    allocate(unsigned order)
    {
        unsigned avail = order;
        while (avail <= kMax && lists_[avail].empty())
            ++avail;
        if (avail > kMax)
            return kNullAddr;
        const Addr block = *lists_[avail].begin();
        lists_[avail].erase(lists_[avail].begin());
        while (avail > order) {
            --avail;
            lists_[avail].insert(block + (kPageSize << avail));
        }
        return block;
    }

    void
    free(Addr block, unsigned order)
    {
        while (order < kMax) {
            const Addr buddy = base_ + ((block - base_) ^ (kPageSize << order));
            const auto it = lists_[order].find(buddy);
            if (it == lists_[order].end())
                break;
            lists_[order].erase(it);
            block = std::min(block, buddy);
            ++order;
        }
        lists_[order].insert(block);
    }

  private:
    Addr base_;
    std::vector<std::set<Addr>> lists_;
};

/** A mixed order: mostly small, sometimes up to the max order. */
unsigned
randomOrder(Rng &rng)
{
    return static_cast<unsigned>(
        rng.nextBool(0.2) ? rng.nextBelow(BuddyAllocator::kMaxOrder + 1)
                          : rng.nextBelow(3));
}

TEST(BuddyReference, RandomTrafficPicksTheSameFramesAsTheSetModel)
{
    constexpr std::uint64_t kBytes = 64ull << 20; // 16 max-order blocks.
    for (const std::uint64_t seed : {1, 7, 42}) {
        StatRegistry stats;
        BuddyAllocator buddy(kBase, kBytes, stats);
        SetBuddy ref(kBase, kBytes);
        Rng rng(seed);
        std::vector<std::pair<Addr, unsigned>> live;
        std::vector<std::string> violations;
        for (int i = 0; i < 6000; ++i) {
            if (live.empty() || rng.nextBool(0.6)) {
                const unsigned order = randomOrder(rng);
                const Addr block = buddy.allocate(order);
                ASSERT_EQ(block, ref.allocate(order))
                    << "seed " << seed << " call " << i << " order "
                    << order;
                if (block != kNullAddr)
                    live.push_back({block, order});
            } else {
                const std::size_t pick = rng.nextBelow(live.size());
                buddy.free(live[pick].first, live[pick].second);
                ref.free(live[pick].first, live[pick].second);
                live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
            }
            ASSERT_TRUE(buddy.checkIntegrity(violations))
                << "seed " << seed << " call " << i << ": "
                << violations.front();
        }
    }
}

TEST(BuddyReference, ExhaustsAtTheSameCallAsTheSetModel)
{
    constexpr std::uint64_t kBytes = 8ull << 20; // 2 max-order blocks.
    StatRegistry stats;
    BuddyAllocator buddy(kBase, kBytes, stats);
    SetBuddy ref(kBase, kBytes);
    Rng rng(3);
    std::vector<std::string> violations;
    int first_null = -1;
    for (int i = 0; buddy.freePages() != 0; ++i) {
        ASSERT_LT(i, 100000);
        const unsigned order = randomOrder(rng);
        const Addr block = buddy.allocate(order);
        ASSERT_EQ(block, ref.allocate(order)) << "call " << i;
        if (block == kNullAddr && first_null < 0)
            first_null = i;
        ASSERT_TRUE(buddy.checkIntegrity(violations)) << violations.front();
    }
    EXPECT_GE(first_null, 0); // Some call failed before the last page.
    EXPECT_EQ(buddy.allocate(0), kNullAddr);
    EXPECT_EQ(ref.allocate(0), kNullAddr);
}

} // namespace
} // namespace memento
