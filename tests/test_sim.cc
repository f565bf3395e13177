/**
 * @file
 * Unit tests for the simulation kernel: cycle ledger, stats, RNG,
 * configuration, and size classes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_map>
#include <vector>

#include "hw/hw_page_allocator.h"
#include "mem/tlb.h"
#include "sim/addr_map.h"
#include "sim/config.h"
#include "sim/cycles.h"
#include "sim/rng.h"
#include "sim/size_class.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace memento {
namespace {

TEST(Types, PageAndLineMath)
{
    EXPECT_EQ(pageBase(0x1234), 0x1000u);
    EXPECT_EQ(pageBase(0x1000), 0x1000u);
    EXPECT_EQ(lineBase(0x12345), 0x12340u);
    EXPECT_EQ(alignUp(1, 8), 8u);
    EXPECT_EQ(alignUp(8, 8), 8u);
    EXPECT_EQ(alignUp(9, 8), 16u);
    EXPECT_TRUE(isPowerOfTwo(4096));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(12));
    EXPECT_EQ(log2Exact(4096), 12u);
}

TEST(SizeClass, RoundTrip)
{
    EXPECT_EQ(sizeClassIndex(1), 0u);
    EXPECT_EQ(sizeClassIndex(8), 0u);
    EXPECT_EQ(sizeClassIndex(9), 1u);
    EXPECT_EQ(sizeClassIndex(512), 63u);
    EXPECT_EQ(sizeClassBytes(0), 8u);
    EXPECT_EQ(sizeClassBytes(63), 512u);
    EXPECT_TRUE(isSmallSize(512));
    EXPECT_FALSE(isSmallSize(513));
    // Every size in [1, 512] maps to a class whose size covers it.
    for (std::uint64_t size = 1; size <= kMaxSmallSize; ++size) {
        const unsigned cls = sizeClassIndex(size);
        EXPECT_LT(cls, kNumSmallClasses);
        EXPECT_GE(sizeClassBytes(cls), size);
        EXPECT_LT(sizeClassBytes(cls) - size, kSizeClassStep);
    }
}

TEST(CycleLedger, ChargesCurrentCategory)
{
    CycleLedger ledger;
    ledger.charge(10);
    EXPECT_EQ(ledger.total(), 10u);
    EXPECT_EQ(ledger.category(CycleCategory::AppCompute), 10u);

    {
        CategoryScope scope(ledger, CycleCategory::UserAlloc);
        ledger.charge(5);
        {
            CategoryScope inner(ledger, CycleCategory::KernelFault);
            ledger.charge(3);
        }
        ledger.charge(2);
    }
    ledger.charge(1);

    EXPECT_EQ(ledger.total(), 21u);
    EXPECT_EQ(ledger.category(CycleCategory::UserAlloc), 7u);
    EXPECT_EQ(ledger.category(CycleCategory::KernelFault), 3u);
    EXPECT_EQ(ledger.category(CycleCategory::AppCompute), 11u);
}

TEST(CycleLedger, MemoryManagementTotal)
{
    CycleLedger ledger;
    ledger.charge(5, CycleCategory::UserAlloc);
    ledger.charge(7, CycleCategory::KernelFault);
    ledger.charge(11, CycleCategory::AppCompute);
    ledger.charge(13, CycleCategory::HwPage);
    EXPECT_EQ(ledger.memoryManagementTotal(), 25u);
}

TEST(CycleLedger, ResetClearsEverything)
{
    CycleLedger ledger;
    ledger.charge(5, CycleCategory::UserFree);
    ledger.reset();
    EXPECT_EQ(ledger.total(), 0u);
    EXPECT_EQ(ledger.category(CycleCategory::UserFree), 0u);
}

TEST(Stats, CountersPersistAndDump)
{
    StatRegistry stats;
    Counter a = stats.counter("x.a");
    Counter b = stats.counter("x.b");
    a += 3;
    ++b;
    b.raiseTo(10);
    b.raiseTo(5); // No effect.
    EXPECT_EQ(stats.value("x.a"), 3u);
    EXPECT_EQ(stats.value("x.b"), 10u);
    EXPECT_EQ(stats.value("missing"), 0u);
    EXPECT_EQ(stats.snapshot().at("x.a"), 3u);

    // Handles stay valid after more registrations.
    for (int i = 0; i < 100; ++i)
        stats.counter("y." + std::to_string(i));
    a += 1;
    EXPECT_EQ(stats.value("x.a"), 4u);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42), c(43);
    bool all_equal = true;
    bool any_diff_seed = false;
    for (int i = 0; i < 100; ++i) {
        const std::uint64_t va = a.next();
        if (va != b.next())
            all_equal = false;
        if (va != c.next())
            any_diff_seed = true;
    }
    EXPECT_TRUE(all_equal);
    EXPECT_TRUE(any_diff_seed);
}

TEST(Rng, BoundsRespected)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.nextBelow(17), 17u);
        const std::uint64_t r = rng.nextRange(5, 9);
        EXPECT_GE(r, 5u);
        EXPECT_LE(r, 9u);
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, WeightedRespectsZeroWeights)
{
    Rng rng(11);
    std::vector<double> weights = {0.0, 1.0, 0.0};
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(rng.nextWeighted(weights), 1u);
}

TEST(Rng, GeometricMeanRoughlyCorrect)
{
    Rng rng(3);
    const double p = 0.25;
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.nextGeometric(p));
    const double mean = sum / n;
    // Expected mean (1-p)/p = 3.
    EXPECT_NEAR(mean, 3.0, 0.15);
}

TEST(Rng, NextBelowDrawsAsTheTwoDivideReference)
{
    // The reference computes the rejection threshold before every draw.
    const auto reference = [](Rng &rng, std::uint64_t bound,
                              std::uint64_t &rejected) {
        const std::uint64_t threshold = -bound % bound;
        for (;;) {
            const std::uint64_t r = rng.next();
            if (r >= threshold)
                return r % bound;
            ++rejected;
        }
    };
    Rng picker(5);
    std::vector<std::uint64_t> bounds = {1,
                                         2,
                                         3,
                                         64,
                                         (1ull << 63) + 1,
                                         ~0ull - 1,
                                         ~0ull};
    for (int i = 0; i < 32; ++i)
        bounds.push_back(1 + (picker.next() >> (picker.next() % 64)));
    for (const std::uint64_t bound : bounds) {
        Rng fast(bound), ref(bound);
        std::uint64_t rejected = 0;
        for (int i = 0; i < 20000; ++i)
            ASSERT_EQ(fast.nextBelow(bound), reference(ref, bound, rejected))
                << "bound " << bound << " draw " << i;
        // Both consumed the same raw draws.
        EXPECT_EQ(fast.next(), ref.next()) << "bound " << bound;
        // About half of all draws fall below 2^63 - 1 and are redrawn.
        if (bound == (1ull << 63) + 1) {
            EXPECT_GT(rejected, 5000u);
        }
    }
}

TEST(Rng, GeometricWithAlternatingPMatchesTheUncachedFormula)
{
    const auto reference = [](Rng &rng, double p) -> std::uint64_t {
        if (p >= 1.0)
            return 0;
        double u = rng.nextDouble();
        if (u <= 0.0)
            u = 0x1.0p-53;
        return static_cast<std::uint64_t>(std::log(u) / std::log(1.0 - p));
    };
    const double ps[] = {0.2, 0.2, 1.0 / 400.0, 1.0 / 6.0, 1.0,
                         0.2, 1.0 / 6.0, 1e-9, 0.999, 0.2};
    Rng fast(17), ref(17);
    for (int i = 0; i < 50000; ++i) {
        const double p = ps[(i + i / 10) % 10];
        ASSERT_EQ(fast.nextGeometric(p), reference(ref, p))
            << "draw " << i << " p " << p;
    }
    EXPECT_EQ(fast.next(), ref.next());
}

TEST(AddrMap, MatchesAHashMapUnderRandomTraffic)
{
    // Keys in a few dense 8-byte-aligned runs, so chains collide and
    // take() has to shift entries back across them.
    AddrMap<std::uint64_t> map;
    std::unordered_map<Addr, std::uint64_t> ref;
    std::vector<Addr> keys;
    Rng rng(8);
    for (int i = 0; i < 200000; ++i) {
        const bool grow = rng.nextBool(i < 100000 ? 0.7 : 0.3);
        if (keys.empty() || grow) {
            const Addr key = (0x7000'0000ull << rng.nextBelow(3)) +
                             8 * rng.nextBelow(1u << 17);
            const std::uint64_t value = rng.next();
            if (ref.emplace(key, value).second)
                keys.push_back(key);
            else
                ref[key] = value;
            map.insert(key, value);
        } else {
            const std::size_t pick = rng.nextBelow(keys.size());
            const Addr key = keys[pick];
            keys[pick] = keys.back();
            keys.pop_back();
            ASSERT_EQ(map.take(key), ref.at(key)) << "op " << i;
            ref.erase(key);
            ASSERT_FALSE(map.contains(key));
            ASSERT_FALSE(map.take(key).has_value());
        }
        ASSERT_EQ(map.size(), ref.size());
    }
    for (const auto &[key, value] : ref) {
        ASSERT_NE(map.find(key), nullptr);
        ASSERT_EQ(*map.find(key), value);
        ASSERT_FALSE(map.contains(key + 4));
    }
    std::sort(keys.begin(), keys.end());
    EXPECT_EQ(map.sortedKeys(), keys);
    map.clear();
    EXPECT_TRUE(map.empty());
    EXPECT_FALSE(map.contains(keys.front()));
}

std::vector<Addr>
vectorValueOf(Addr key)
{
    return std::vector<Addr>(1 + key % 7, key);
}

TEST(AddrMap, VectorValuesSurviveGrowAndTake)
{
    // 3000 keys force several doublings from the 256-slot start, and
    // every take() shifts the chains after it: each move must carry
    // the vector, not leave it behind or copy a moved-from one.
    AddrMap<std::vector<Addr>> map;
    std::vector<Addr> keys;
    for (Addr key = 0x1000; keys.size() < 3000; key += 24) {
        map.insert(key, vectorValueOf(key));
        keys.push_back(key);
    }
    for (std::size_t i = 0; i < keys.size(); i += 2) {
        const std::optional<std::vector<Addr>> taken = map.take(keys[i]);
        ASSERT_TRUE(taken.has_value());
        ASSERT_EQ(*taken, vectorValueOf(keys[i])) << keys[i];
    }
    EXPECT_EQ(map.size(), keys.size() / 2);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const std::vector<Addr> *value = map.find(keys[i]);
        if (i % 2 == 0) {
            EXPECT_EQ(value, nullptr);
        } else {
            ASSERT_NE(value, nullptr);
            EXPECT_EQ(*value, vectorValueOf(keys[i])) << keys[i];
        }
    }
    map.clear();
    map.insert(keys[1], {});
    EXPECT_TRUE(map.at(keys[1]).empty());
}

TEST(AddrMap, WriteThroughFindIsVisibleToLaterFinds)
{
    AddrMap<std::vector<Addr>> map;
    map.insert(0x40, {1});
    map.insert(0x80, {2});
    map.find(0x40)->push_back(3);
    map.at(0x80).clear();
    ASSERT_NE(map.find(0x40), nullptr);
    EXPECT_EQ(*map.find(0x40), (std::vector<Addr>{1, 3}));
    EXPECT_TRUE(map.find(0x80)->empty());
    EXPECT_EQ(map.find(0xc0), nullptr);
}

TEST(AddrMap, NullKeyPanics)
{
    AddrMap<int> map;
    EXPECT_DEATH(map.insert(kNullAddr, 1), "panic: ");
}

TEST(Config, Table3Defaults)
{
    MachineConfig cfg = defaultConfig();
    EXPECT_FALSE(cfg.memento.enabled);
    EXPECT_EQ(cfg.l1d.sizeBytes, 32u << 10);
    EXPECT_EQ(cfg.l1d.ways, 8u);
    EXPECT_EQ(cfg.l1d.numSets(), 64u);
    EXPECT_EQ(cfg.llc.sizeBytes, 2u << 20);
    EXPECT_EQ(cfg.llc.ways, 16u);
    EXPECT_EQ(cfg.l1Tlb.entries, 64u);
    EXPECT_EQ(cfg.l2Tlb.entries, 2048u);
    EXPECT_EQ(kL1TlbLatency, 1u);
    EXPECT_EQ(kL2TlbLatency, 7u);
    EXPECT_EQ(kNumSmallClasses, 64u);
    EXPECT_EQ(kMaxSmallSize, 512u);
    EXPECT_EQ(cfg.memento.objectsPerArena, 256u);
    EXPECT_EQ(cfg.memento.hotLatency, 2u);
    EXPECT_EQ(HwPageAllocator::kAacLatency, 1u);

    MachineConfig mcfg = mementoConfig();
    EXPECT_TRUE(mcfg.memento.enabled);
}

TEST(Config, CycleTimeConversions)
{
    MachineConfig cfg = defaultConfig();
    // 3 GHz: 1 ms = 3M cycles.
    EXPECT_EQ(cfg.msToCycles(1.0), 3'000'000u);
    EXPECT_DOUBLE_EQ(cfg.cyclesToMs(3'000'000), 1.0);
}

TEST(Config, MementoRegionLayout)
{
    MachineConfig cfg = defaultConfig();
    const Addr end = cfg.layout.mementoRegionEnd();
    EXPECT_EQ(end - cfg.layout.mementoRegionStart,
              64ull * cfg.layout.perClassRegionBytes);
}

} // namespace
} // namespace memento
