/**
 * @file
 * Shared test helpers: a recording Env stub for unit-testing software
 * and hardware models without a full Machine, and small machine
 * configurations that keep tests fast.
 */

#ifndef MEMENTO_TESTS_TEST_UTIL_H
#define MEMENTO_TESTS_TEST_UTIL_H

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "mem/env.h"
#include "sim/config.h"
#include "sim/rng.h"
#include "wl/distributions.h"
#include "wl/workloads.h"

namespace memento::test {

/** Env stub that records activity and charges trivial costs. */
class TestEnv : public Env
{
  public:
    void
    chargeInstructions(InstCount n) override
    {
        instructions += n;
        ledger_.charge((n + 1) / 2);
    }

    void chargeCycles(Cycles n) override { ledger_.charge(n); }

    Cycles
    accessVirtual(Addr vaddr, AccessType type) override
    {
        (type == AccessType::Write ? virtWrites : virtReads)
            .push_back(vaddr);
        ledger_.charge(2);
        return 2;
    }

    Cycles
    accessPhysical(Addr paddr, AccessType type, AccessAttrs) override
    {
        (type == AccessType::Write ? physWrites : physReads)
            .push_back(paddr);
        ledger_.charge(2);
        return 2;
    }

    Cycles
    installPhysical(Addr paddr) override
    {
        installs.push_back(paddr);
        ledger_.charge(2);
        return 2;
    }

    Cycles now() const override { return ledger_.total(); }
    CycleLedger &ledger() override { return ledger_; }

    void
    tlbInvalidate(Addr vaddr) override
    {
        tlbInvalidations.push_back(vaddr);
    }

    InstCount instructions = 0;
    std::vector<Addr> virtReads, virtWrites;
    std::vector<Addr> physReads, physWrites;
    std::vector<Addr> installs;
    std::vector<Addr> tlbInvalidations;

  private:
    CycleLedger ledger_;
};

/** A small but structurally valid machine configuration. */
inline MachineConfig
smallConfig()
{
    MachineConfig cfg;
    cfg.l1d = CacheConfig{4 << 10, 4, 2};
    cfg.l1i = CacheConfig{4 << 10, 4, 2};
    cfg.l2 = CacheConfig{16 << 10, 4, 14};
    cfg.llc = CacheConfig{64 << 10, 8, 40};
    cfg.l1Tlb = TlbConfig{16, 4};
    cfg.l2Tlb = TlbConfig{64, 4};
    cfg.dram.sizeBytes = 512ull << 20;
    return cfg;
}

/** smallConfig() with Memento enabled. */
inline MachineConfig
smallMementoConfig()
{
    MachineConfig cfg = smallConfig();
    cfg.memento.enabled = true;
    return cfg;
}

/** An 8-byte-granule size range within the small-object span. */
inline SizeBucket
randomSmallBucket(Rng &rng)
{
    const std::uint64_t lo = 8 * rng.nextRange(1, 32);       // 8..256
    const std::uint64_t hi = lo + 8 * rng.nextRange(0, 32);  // <= 512
    return {rng.nextRange(1, 10) / 1.0, lo,
            std::min<std::uint64_t>(hi, 512)};
}

/**
 * A random but structurally valid workload spec (the fuzz-corpus
 * generator, shared by the trace fuzzer and the static-analysis corpus
 * test). Every stochastic parameter flows from @p seed alone, so a
 * failing case replays exactly from its seed.
 */
inline WorkloadSpec
randomSpec(std::uint64_t seed)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x2545F4914F6CDD1Dull);
    WorkloadSpec spec;
    spec.id = "fuzz-" + std::to_string(seed);
    spec.description = "property fuzz case";
    spec.seed = seed + 1;

    const Language langs[] = {Language::Python, Language::Cpp,
                              Language::Golang};
    spec.lang = langs[rng.nextBelow(3)];
    spec.domain = Domain::Function;

    spec.numAllocs = rng.nextRange(40, 220);

    std::vector<SizeBucket> buckets;
    const unsigned nbuckets = 1 + rng.nextBelow(3);
    for (unsigned b = 0; b < nbuckets; ++b)
        buckets.push_back(randomSmallBucket(rng));
    spec.sizeDist = SizeDistribution(buckets);

    spec.lifetime.pShort = 0.3 + 0.65 * rng.nextDouble();
    spec.lifetime.meanShortDistance = 1.0 + 15.0 * rng.nextDouble();
    spec.lifetime.pLongFreed = 0.3 * rng.nextDouble();
    spec.lifetime.meanLongDistance = 50.0 + 750.0 * rng.nextDouble();

    spec.pLarge = 0.1 * rng.nextDouble();
    spec.largeDist =
        SizeDistribution({{1.0, 1 << 10, 32 << 10}});
    spec.pLargeShort = rng.nextDouble();

    spec.computePerAlloc = rng.nextRange(0, 300);
    spec.touchStores = rng.nextBelow(4);
    spec.touchLoads = rng.nextBelow(4);
    spec.staticWsBytes = 4096 * rng.nextRange(1, 16);
    spec.staticAccesses = rng.nextBelow(4);
    spec.rpcBytes = 1024 * rng.nextBelow(8);

    if (rng.nextBool(0.3)) {
        spec.burstEvery = rng.nextRange(20, 100);
        spec.burstBytes = 1024 * rng.nextRange(1, 64);
        spec.burstObjSize = 8 * rng.nextRange(8, 256);
    }
    return spec;
}

/**
 * The data lines of tests/golden/@p name: every line that is neither
 * empty nor a `#` comment, in file order. Empty when the file is
 * missing, so a caller's size check fails loudly.
 */
inline std::vector<std::string>
readGoldenLines(const std::string &name)
{
    std::ifstream in(std::string(MEMENTO_TEST_GOLDEN_DIR) + "/" + name);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) {
        if (!line.empty() && line[0] != '#')
            lines.push_back(line);
    }
    return lines;
}

} // namespace memento::test

#endif // MEMENTO_TESTS_TEST_UTIL_H
