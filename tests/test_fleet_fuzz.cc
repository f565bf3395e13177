/**
 * @file
 * Fuzzed conservation invariants for the fleet scheduler: 100 seeded
 * random (arrival trace, profile set, fleet config) triples, each
 * checked against the invariants the scheduler must hold regardless of
 * shape — every arrival completes or is rejected exactly once, every
 * completion is either a cold start or a warm hit, node RSS never
 * exceeds the memory budget, percentiles are ordered, and a repeat run
 * is bit-identical down to the fleet-state digest. A golden file pins
 * each shape's digest and policy counters.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "fleet/arrivals.h"
#include "fleet/fleet.h"
#include "sim/rng.h"
#include "test_util.h"
#include "val/digest.h"

namespace memento {
namespace {

/** Random profile set: 1-4 workloads with varied footprints. */
std::vector<FleetProfile>
fuzzProfiles(Rng &rng)
{
    const std::size_t n = 1 + rng.nextBelow(4);
    std::vector<FleetProfile> profiles;
    for (std::size_t i = 0; i < n; ++i) {
        FleetProfile p;
        p.id = "fuzz" + std::to_string(i);
        p.serviceCycles = rng.nextRange(100, 2'000'000);
        p.pages = rng.nextRange(1, 2000);
        p.hotValidEntries = rng.nextBelow(64);
        profiles.push_back(p);
    }
    return profiles;
}

/** Random fleet shape: cores, arrival process, keep-alive, budget. */
MachineConfig
fuzzConfig(Rng &rng, std::uint64_t seed)
{
    static const char *kKinds[] = {"poisson", "bursty", "diurnal"};
    MachineConfig cfg = defaultConfig();
    cfg.fleet.seed = seed;
    cfg.fleet.cores = static_cast<unsigned>(rng.nextRange(1, 8));
    cfg.fleet.invocations = rng.nextRange(50, 400);
    cfg.fleet.ratePerSec =
        static_cast<double>(rng.nextRange(100, 50'000));
    cfg.fleet.arrival = kKinds[rng.nextBelow(3)];
    cfg.fleet.keepAliveMs =
        rng.nextBool(0.3) ? 0.0
                          : static_cast<double>(rng.nextRange(1, 50));
    cfg.fleet.memoryBudgetPages =
        rng.nextBool(0.4) ? 0 : rng.nextRange(500, 20'000);
    return cfg;
}

/** One fuzz shape: everything simulateFleet needs, from its seed. */
struct FuzzShape
{
    MachineConfig cfg;
    std::vector<FleetProfile> profiles;
    std::vector<Arrival> arrivals;
};

FuzzShape
fuzzShape(std::uint64_t seed)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull);
    FuzzShape s;
    s.cfg = fuzzConfig(rng, seed);
    s.profiles = fuzzProfiles(rng);
    s.arrivals = generateArrivals(s.cfg, s.profiles.size());
    return s;
}

constexpr std::uint64_t kShapes = 100;

TEST(FleetFuzz, ConservationInvariantsHoldOverRandomTraces)
{
    for (std::uint64_t seed = 1; seed <= kShapes; ++seed) {
        const FuzzShape shape = fuzzShape(seed);
        const MachineConfig &cfg = shape.cfg;
        const std::vector<FleetProfile> &profiles = shape.profiles;
        const std::vector<Arrival> &arrivals = shape.arrivals;
        ASSERT_EQ(arrivals.size(), cfg.fleet.invocations)
            << "seed " << seed;

        const FleetMetrics m = simulateFleet(arrivals, profiles, cfg);
        SCOPED_TRACE("seed " + std::to_string(seed) + " arrival " +
                     cfg.fleet.arrival + " cores " +
                     std::to_string(cfg.fleet.cores) + " budget " +
                     std::to_string(cfg.fleet.memoryBudgetPages));

        // Every arrival is accounted for exactly once.
        EXPECT_EQ(m.arrivals, arrivals.size());
        EXPECT_EQ(m.completed + m.rejected, m.arrivals);
        // Every completion is a cold start or a warm hit.
        EXPECT_EQ(m.coldStarts + m.warmHits, m.completed);
        // An instance expires or is evicted at most once, and only
        // after it was cold-started.
        EXPECT_LE(m.evictions + m.expirations, m.coldStarts);
        // The pressure policy is a hard cap.
        if (cfg.fleet.memoryBudgetPages != 0) {
            EXPECT_LE(m.peakRssPages, cfg.fleet.memoryBudgetPages);
        }
        // Percentiles are nearest ranks of one latency vector, and no
        // latency outlasts the makespan.
        if (m.completed != 0) {
            EXPECT_LE(m.p50Cycles, m.p99Cycles);
            EXPECT_LE(m.p99Cycles, m.p999Cycles);
            EXPECT_LE(m.p999Cycles, m.makespanCycles);
            EXPECT_GT(m.peakRssPages, 0u);
        } else {
            EXPECT_EQ(m.p999Cycles, 0u);
        }
        // Residency area is bounded by (live instances) x makespan;
        // live instances never exceed completed cold starts.
        if (m.makespanCycles != 0) {
            EXPECT_LE(m.residencyCycleArea,
                      static_cast<std::uint64_t>(m.coldStarts) *
                          m.makespanCycles);
        }

        // Determinism: the same inputs reproduce every field,
        // including the digest.
        const FleetMetrics again =
            simulateFleet(arrivals, profiles, cfg);
        EXPECT_TRUE(m == again);
        EXPECT_NE(m.digest, 0u);
    }
}

// The exact outcome of every shape, pinned: the digest covers each
// arrival's latency and the final node state, and the counters name
// the policy paths taken (20 shapes evict, 50 reject, 32 expire).
TEST(FleetFuzz, OutcomesMatchGolden)
{
    const std::vector<std::string> golden =
        test::readGoldenLines("fleet_fuzz.txt");
    ASSERT_EQ(golden.size(), kShapes);
    for (std::uint64_t seed = 1; seed <= kShapes; ++seed) {
        const FuzzShape shape = fuzzShape(seed);
        const FleetMetrics m =
            simulateFleet(shape.arrivals, shape.profiles, shape.cfg);
        std::ostringstream line;
        line << seed << ' ' << digestToHex(m.digest) << ' '
             << m.evictions << ' ' << m.rejected << ' ' << m.expirations;
        EXPECT_EQ(line.str(), golden[seed - 1]);
    }
}

} // namespace
} // namespace memento
