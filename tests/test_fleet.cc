/**
 * @file
 * Property and differential tests for the fleet-scale node simulation
 * (src/fleet): arrival-process determinism, exact scheduler semantics
 * on hand-built traces, the cost-model contract against a live
 * Machine, and byte-identity of the full `fleet` pipeline across
 * worker counts and result-store resumes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <unistd.h>

#include "fleet/arrivals.h"
#include "fleet/fleet.h"
#include "machine/function_executor.h"
#include "machine/machine.h"
#include "machine/result_store.h"
#include "machine/sweep.h"
#include "os/kernel_cost.h"
#include "sim/error.h"
#include "sim/rng.h"
#include "wl/trace_generator.h"
#include "wl/workloads.h"

namespace memento {
namespace {

namespace fs = std::filesystem;

/** A unique store directory per test, removed on destruction. */
class TempStoreDir
{
  public:
    explicit TempStoreDir(const std::string &tag)
    {
        static int counter = 0;
        path_ = (fs::temp_directory_path() /
                 ("memento-fleet-test-" + std::to_string(::getpid()) +
                  "-" + tag + "-" + std::to_string(counter++)))
                    .string();
        fs::remove_all(path_);
    }

    ~TempStoreDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** A small fleet config over one cheap workload. */
MachineConfig
smallFleetConfig()
{
    MachineConfig cfg = defaultConfig();
    cfg.fleet.mix = "aes";
    cfg.fleet.invocations = 200;
    cfg.fleet.cores = 4;
    cfg.fleet.ratePerSec = 4000.0;
    return cfg;
}

/** runFleet through an engine of @p jobs workers over @p store. */
FleetReport
runFleetWith(const MachineConfig &cfg, unsigned jobs = 0,
             ResultStore *store = nullptr)
{
    SweepOptions so;
    so.jobs = jobs;
    so.store = store;
    SweepEngine engine(so);
    std::optional<FleetReport> report = runFleet(cfg, engine);
    EXPECT_TRUE(report.has_value()) << "no stop flag, yet stopped";
    return report.value_or(FleetReport{});
}

// ---- Arrival processes ----------------------------------------------

TEST(FleetArrivals, DeterministicPerSeedAndSortedByTime)
{
    for (const char *kind : {"poisson", "bursty", "diurnal"}) {
        MachineConfig cfg = defaultConfig();
        cfg.fleet.arrival = kind;
        cfg.fleet.invocations = 500;
        cfg.fleet.seed = 42;

        const std::vector<Arrival> a = generateArrivals(cfg, 5);
        const std::vector<Arrival> b = generateArrivals(cfg, 5);
        ASSERT_EQ(a.size(), 500u) << kind;
        ASSERT_EQ(b.size(), a.size()) << kind;
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].atCycles, b[i].atCycles) << kind;
            EXPECT_EQ(a[i].workloadIndex, b[i].workloadIndex) << kind;
            EXPECT_LT(a[i].workloadIndex, 5u) << kind;
            if (i > 0) {
                EXPECT_GE(a[i].atCycles, a[i - 1].atCycles) << kind;
            }
        }

        cfg.fleet.seed = 43;
        const std::vector<Arrival> c = generateArrivals(cfg, 5);
        bool differs = false;
        for (std::size_t i = 0; i < a.size() && !differs; ++i)
            differs = a[i].atCycles != c[i].atCycles ||
                      a[i].workloadIndex != c[i].workloadIndex;
        EXPECT_TRUE(differs)
            << kind << ": different seeds produced identical traces";
    }
}

TEST(FleetArrivals, MeanRateIsPreservedByEveryProcess)
{
    // All three processes are mean-preserving: N arrivals at rate R
    // should span roughly N/R seconds. The bound is deliberately loose
    // (3x either way) — this guards the rate normalization, not the
    // variance.
    for (const char *kind : {"poisson", "bursty", "diurnal"}) {
        MachineConfig cfg = defaultConfig();
        cfg.fleet.arrival = kind;
        cfg.fleet.invocations = 2000;
        cfg.fleet.ratePerSec = 1000.0;

        const std::vector<Arrival> a = generateArrivals(cfg, 1);
        const double span_sec =
            cfg.cyclesToMs(a.back().atCycles) / 1000.0;
        const double expect_sec = 2000.0 / 1000.0;
        EXPECT_GT(span_sec, expect_sec / 3.0) << kind;
        EXPECT_LT(span_sec, expect_sec * 3.0) << kind;
    }
}

TEST(FleetArrivals, UnknownKindThrowsConfigError)
{
    MachineConfig cfg = defaultConfig();
    cfg.fleet.arrival = "uniform";
    try {
        generateArrivals(cfg, 1);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::Config);
    }
}

// ---- Cost-model contract against a live Machine ---------------------

TEST(FleetCostModel, SwitchCostMatchesKernelCostModelOnRealMachine)
{
    // Run two function instances round-robin on one simulated core
    // (the sens_multiproc recipe) and check that every context
    // switch's measured ContextSwitch-category cost equals
    // fleetSwitchCost() for the HOT residue observed just before the
    // switch. This pins the fleet scheduler to the machine's own cost
    // model: if chargeContextSwitch ever changes, this fails.
    const MachineConfig cfg = mementoConfig();
    const std::vector<WorkloadSpec> functions =
        workloadsByDomain(Domain::Function);
    const WorkloadSpec &wa = functions[0];
    const WorkloadSpec &wb = functions[1];

    Machine machine(cfg);
    machine.createProcess(wa);
    machine.createProcess(wb);
    const Trace ta = TraceGenerator(wa).generate();
    const Trace tb = TraceGenerator(wb).generate();
    FunctionExecutor ea(machine);
    FunctionExecutor eb(machine);

    constexpr std::size_t kSlice = 1500;
    std::size_t ca = 0, cb = 0;
    unsigned switches_checked = 0;
    bool progress = true;
    while (progress) {
        progress = false;
        for (unsigned p = 0; p < 2; ++p) {
            const Trace &trace = p == 0 ? ta : tb;
            std::size_t &cursor = p == 0 ? ca : cb;
            if (cursor >= trace.size())
                continue;
            progress = true;

            const std::uint64_t hot_valid =
                machine.hot() != nullptr ? machine.hot()->validEntries()
                                         : 0;
            const Cycles cs_before = machine.cycleLedger().category(
                CycleCategory::ContextSwitch);
            machine.switchTo(p);
            const Cycles charged = machine.cycleLedger().category(
                                       CycleCategory::ContextSwitch) -
                                   cs_before;
            if (charged != 0) { // switchTo(same) is free
                EXPECT_EQ(charged, fleetSwitchCost(cfg, hot_valid));
                ++switches_checked;
            }

            const std::size_t end =
                std::min(cursor + kSlice, trace.size());
            (p == 0 ? ea : eb).runRange(p == 0 ? wa : wb, trace, cursor,
                                        end);
            cursor = end;
        }
    }
    EXPECT_GE(switches_checked, 4u);
}

TEST(FleetCostModel, ColdSetupCostMatchesContainerSetupCharge)
{
    const MachineConfig cfg = defaultConfig();
    Machine machine(cfg);
    machine.createProcess(workloadsByDomain(Domain::Function)[0]);
    const Cycles before = machine.cycleLedger().total();
    machine.kernelCosts().chargeContainerSetup(machine);
    const Cycles charged = machine.cycleLedger().total() - before;
    EXPECT_EQ(charged, fleetColdSetupCost(cfg));
}

TEST(FleetCostModel, MementoReclaimIsArenaGranular)
{
    MachineConfig base = defaultConfig();
    MachineConfig mem = mementoConfig();
    // 256 objects x 512 B per arena = 32 pages per arena span.
    const std::uint64_t pages = 640;
    const Cycles base_cost = fleetReclaimCost(base, pages);
    const Cycles mem_cost = fleetReclaimCost(mem, pages);
    EXPECT_LT(mem_cost, base_cost);
    // Exact formulae (instructions / baseIpc, rounded like the
    // machine's chargeInstructions).
    const auto cycles_of = [](const MachineConfig &cfg,
                              std::uint64_t units) {
        const InstCount instr =
            VirtualMemory::kMunmapBaseInstructions +
            VirtualMemory::kMunmapPerPageInstructions * units;
        return static_cast<Cycles>(
            static_cast<double>(instr) / cfg.core.baseIpc + 0.5);
    };
    EXPECT_EQ(base_cost, cycles_of(base, 640));
    EXPECT_EQ(mem_cost, cycles_of(mem, 640 / 32));
}

// ---- Scheduler semantics on hand-built traces -----------------------

/** One-workload profile with round numbers for exact expectations. */
std::vector<FleetProfile>
singleProfile(Cycles service, std::uint64_t pages,
              std::uint64_t hot_valid = 0)
{
    FleetProfile p;
    p.id = "unit";
    p.serviceCycles = service;
    p.pages = pages;
    p.hotValidEntries = hot_valid;
    return {p};
}

MachineConfig
handConfig(unsigned cores, double keep_alive_ms,
           std::uint64_t budget_pages)
{
    MachineConfig cfg = defaultConfig();
    cfg.fleet.cores = cores;
    cfg.fleet.keepAliveMs = keep_alive_ms;
    cfg.fleet.memoryBudgetPages = budget_pages;
    return cfg;
}

TEST(FleetScheduler, WarmHitWithinKeepAliveColdStartAfterExpiry)
{
    const MachineConfig cfg = handConfig(1, 1.0 /* ms */, 0);
    const Cycles service = 1000;
    const Cycles keep_alive = cfg.msToCycles(cfg.fleet.keepAliveMs);
    const Cycles cs = fleetSwitchCost(cfg, 0);
    const Cycles setup = fleetColdSetupCost(cfg);
    const Cycles end0 = cs + setup + service;

    std::vector<Arrival> arrivals;
    arrivals.push_back({0, 0});            // cold start
    arrivals.push_back({end0 + 1, 0});     // idle, warm hit
    const Cycles end1 = end0 + 1 + service; // no switch: same instance
    arrivals.push_back({end1 + keep_alive, 0}); // expired: cold again

    const FleetMetrics m =
        simulateFleet(arrivals, singleProfile(service, 10), cfg);
    EXPECT_EQ(m.arrivals, 3u);
    EXPECT_EQ(m.completed, 3u);
    EXPECT_EQ(m.rejected, 0u);
    EXPECT_EQ(m.coldStarts, 2u);
    EXPECT_EQ(m.warmHits, 1u);
    EXPECT_EQ(m.expirations, 1u);
    EXPECT_EQ(m.evictions, 0u);
    // Exact latencies: the sorted set is {service, cs+setup+service x2}
    // (second cold start pays the same switch cost: the core's HOT
    // residue is 0 either way).
    EXPECT_EQ(m.p50Cycles, cs + setup + service);
    EXPECT_EQ(m.p99Cycles, cs + setup + service);
    EXPECT_EQ(m.peakRssPages, 10u);
}

TEST(FleetScheduler, SwitchCostChargedOnlyWhenCoreChangesInstance)
{
    // Two workload profiles pinned to one core: alternating arrivals
    // must pay the switch cost every time, while repeated arrivals of
    // one workload (same instance) must not.
    const MachineConfig cfg = handConfig(1, 1e6, 0);
    const Cycles service = 500;
    std::vector<FleetProfile> profiles =
        singleProfile(service, 1, /*hot_valid=*/7);
    profiles.push_back(profiles[0]);
    profiles[1].id = "unit2";

    // Arrivals far enough apart that the node is idle in between.
    std::vector<Arrival> alternating;
    for (std::size_t i = 0; i < 6; ++i)
        alternating.push_back({i * 1'000'000'000ull, i % 2});
    const FleetMetrics alt = simulateFleet(alternating, profiles, cfg);

    std::vector<Arrival> pinned;
    for (std::size_t i = 0; i < 6; ++i)
        pinned.push_back({i * 1'000'000'000ull, 0});
    const FleetMetrics pin = simulateFleet(pinned, profiles, cfg);

    // Alternating: every arrival after the first switches instances
    // and flushes the previous instance's 7 HOT entries.
    EXPECT_EQ(alt.p99Cycles,
              fleetSwitchCost(cfg, 7) + fleetColdSetupCost(cfg) +
                  service);
    // Pinned: one cold start, then pure service time.
    EXPECT_EQ(pin.p50Cycles, service);
    EXPECT_EQ(pin.coldStarts, 1u);
    EXPECT_EQ(pin.warmHits, 5u);
}

TEST(FleetScheduler, BudgetEvictsIdleLruThenRejects)
{
    const MachineConfig cfg = handConfig(2, 1e6 /* effectively forever */,
                                         100);
    const Cycles service = 1000;
    std::vector<FleetProfile> profiles = singleProfile(service, 60);
    profiles.push_back(profiles[0]);
    profiles[1].id = "unit2";
    profiles[1].pages = 50;

    std::vector<Arrival> arrivals;
    arrivals.push_back({0, 0}); // A: rss 60
    // B arrives after A went idle: 60 + 50 > 100, A is idle -> evicted.
    arrivals.push_back({1'000'000'000ull, 1});
    // Two simultaneous A's much later: first colds (B evicted),
    // second cannot fit while the first is busy -> rejected.
    arrivals.push_back({2'000'000'000ull, 0});
    arrivals.push_back({2'000'000'000ull, 0});

    const FleetMetrics m = simulateFleet(arrivals, profiles, cfg);
    EXPECT_EQ(m.completed, 3u);
    EXPECT_EQ(m.rejected, 1u);
    EXPECT_EQ(m.coldStarts, 3u);
    EXPECT_EQ(m.evictions, 2u);
    EXPECT_LE(m.peakRssPages, 100u);
}

TEST(FleetScheduler, OversizedInstanceIsRejectedOutright)
{
    const MachineConfig cfg = handConfig(1, 1.0, 50);
    std::vector<Arrival> arrivals{{0, 0}};
    const FleetMetrics m =
        simulateFleet(arrivals, singleProfile(1000, 60), cfg);
    EXPECT_EQ(m.completed, 0u);
    EXPECT_EQ(m.rejected, 1u);
    EXPECT_EQ(m.peakRssPages, 0u);
}

TEST(FleetScheduler, RepeatRunsProduceIdenticalMetricsAndDigest)
{
    MachineConfig cfg = smallFleetConfig();
    cfg.fleet.memoryBudgetPages = 400;
    const std::vector<Arrival> arrivals = generateArrivals(cfg, 1);
    const std::vector<FleetProfile> profiles = singleProfile(50'000, 141);
    const FleetMetrics a = simulateFleet(arrivals, profiles, cfg);
    const FleetMetrics b = simulateFleet(arrivals, profiles, cfg);
    EXPECT_TRUE(a == b);
    EXPECT_NE(a.digest, 0u);
}

// ---- Full pipeline: determinism across jobs, seeds, cores -----------

using DetParam = std::tuple<std::uint64_t /*seed*/, unsigned /*cores*/>;

class FleetDeterminism : public testing::TestWithParam<DetParam>
{
};

TEST_P(FleetDeterminism, OutputByteIdenticalAcrossJobLevels)
{
    const auto [seed, cores] = GetParam();
    MachineConfig cfg = smallFleetConfig();
    cfg.fleet.seed = seed;
    cfg.fleet.cores = cores;

    std::string first_text, first_json;
    std::uint64_t first_digest = 0;
    for (const unsigned jobs : {1u, 2u, 8u}) {
        const FleetReport report = runFleetWith(cfg, jobs);

        std::ostringstream text, json;
        printFleetText(text, report, cfg);
        writeFleetJson(json, report, cfg);
        if (jobs == 1) {
            first_text = text.str();
            first_json = json.str();
            first_digest = report.metrics.digest;
            EXPECT_NE(first_digest, 0u);
            continue;
        }
        EXPECT_EQ(text.str(), first_text) << "jobs=" << jobs;
        EXPECT_EQ(json.str(), first_json) << "jobs=" << jobs;
        EXPECT_EQ(report.metrics.digest, first_digest)
            << "jobs=" << jobs;
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndCores, FleetDeterminism,
    testing::Combine(testing::Values<std::uint64_t>(1, 7),
                     testing::Values<unsigned>(1, 4)));

TEST(FleetPipeline, ResumeFromStoreIsByteIdentical)
{
    TempStoreDir dir("fleet-resume");
    MachineConfig cfg = smallFleetConfig();

    const auto render = [&cfg](const FleetReport &report) {
        std::ostringstream text, json;
        printFleetText(text, report, cfg);
        writeFleetJson(json, report, cfg);
        return text.str() + json.str();
    };

    std::string fresh;
    {
        ResultStore store(
            {.dir = dir.path(), .codeVersion = "fleet-test"});
        const FleetReport report = runFleetWith(cfg, 2, &store);
        EXPECT_EQ(store.stats().hits, 0u);
        fresh = render(report);
    }
    {
        ResultStore store(
            {.dir = dir.path(), .codeVersion = "fleet-test"});
        const FleetReport report = runFleetWith(cfg, 1, &store);
        // Every profile is served from the store; the event loop reruns.
        EXPECT_EQ(render(report), fresh);
        EXPECT_EQ(store.stats().hits, report.profiles.size());
        EXPECT_EQ(store.stats().misses, 0u);
    }
}

TEST(FleetPipeline, JsonCarriesVersionedEnvelopeAndDigest)
{
    MachineConfig cfg = smallFleetConfig();
    cfg.fleet.invocations = 50;
    const FleetReport report = runFleetWith(cfg);

    std::ostringstream os;
    writeFleetJson(os, report, cfg);
    const std::string doc = os.str();
    EXPECT_EQ(doc.rfind("{\n  \"schema_version\": 1,\n"
                        "  \"kind\": \"fleet\",\n",
                        0),
              0u)
        << doc;
    EXPECT_NE(doc.find("\"metrics\": {"), std::string::npos);
    EXPECT_NE(doc.find("\"p99_ms\": "), std::string::npos);
    EXPECT_NE(doc.find("\"throughput_rps\": "), std::string::npos);
    EXPECT_NE(doc.find("\"packing_density\": "), std::string::npos);
    EXPECT_NE(doc.find("\"offered_load\": "), std::string::npos);
    EXPECT_NE(doc.find("\"digest\": \""), std::string::npos);

    std::ostringstream text;
    printFleetText(text, report, cfg);
    EXPECT_NE(text.str().find("fleet digest "), std::string::npos);
    EXPECT_NE(text.str().find("offered load rho"), std::string::npos);
}

TEST(FleetPercentile, SelectionMatchesSortedNearestRank)
{
    const auto sorted_rank = [](std::vector<Cycles> v, std::uint64_t num,
                                std::uint64_t den) -> Cycles {
        if (v.empty())
            return 0;
        std::sort(v.begin(), v.end());
        const std::uint64_t rank = std::max<std::uint64_t>(
            1, (num * v.size() + den - 1) / den);
        return v[rank - 1];
    };
    Rng rng(2023);
    std::vector<std::vector<Cycles>> cases;
    for (const std::size_t n : {0, 1, 2, 999, 1000, 1001}) {
        std::vector<Cycles> random(n), dups(n);
        for (std::size_t i = 0; i < n; ++i) {
            random[i] = rng.nextBelow(1'000'000'000);
            dups[i] = rng.nextBelow(3); // Heavy duplicates.
        }
        cases.push_back(random);
        cases.push_back(dups);
        cases.push_back(std::vector<Cycles>(n, 42));
    }
    for (const std::vector<Cycles> &values : cases) {
        // Chained as LatencyLog selects in each of its vectors: p99 on
        // the suffix p50 left, p999 on the suffix p99 left.
        std::vector<Cycles> chained = values;
        std::size_t chained_from = 0;
        for (const auto &[num, den] :
             {std::pair<std::uint64_t, std::uint64_t>{50, 100},
              {99, 100},
              {999, 1000}}) {
            std::vector<Cycles> scratch = values;
            std::size_t from = 0;
            EXPECT_EQ(nearestRank(scratch, num, den, from),
                      sorted_rank(values, num, den))
                << "n " << values.size() << " at " << num << "/" << den;
            EXPECT_EQ(nearestRank(chained, num, den, chained_from),
                      sorted_rank(values, num, den))
                << "chained, n " << values.size() << " at " << num << "/"
                << den;
        }
    }
}

TEST(FleetPercentile, TwoWidthLogMatchesNearestRankOnPlainVector)
{
    constexpr Cycles kNarrowMax = 0xffff'ffffull;
    Rng rng(31);
    const auto straddling = [&](std::size_t n, Cycles lo, Cycles span) {
        std::vector<Cycles> v(n);
        for (Cycles &x : v)
            x = lo + rng.nextBelow(span);
        return v;
    };
    std::vector<std::vector<Cycles>> cases = {
        {},
        {7},
        {kNarrowMax},
        {kNarrowMax + 1},
        {kNarrowMax, kNarrowMax + 1},
        {kNarrowMax + 1, kNarrowMax, kNarrowMax + 1, 0},
        std::vector<Cycles>(1000, kNarrowMax),
        std::vector<Cycles>(1000, kNarrowMax + 1),
    };
    for (const std::size_t n : {1, 2, 999, 1000, 1001, 5000}) {
        cases.push_back(straddling(n, 0, kNarrowMax + 1));          // Narrow.
        cases.push_back(straddling(n, kNarrowMax + 1, 1ull << 40)); // Wide.
        cases.push_back(straddling(n, kNarrowMax - 2000, 4000));    // Both.
        cases.push_back(straddling(n, 0, 1ull << 34));              // Both.
        cases.push_back(straddling(n, kNarrowMax - 1, 3)); // Duplicates.
    }
    for (const std::vector<Cycles> &values : cases) {
        LatencyLog log(values.size());
        for (const Cycles v : values)
            log.push(v);
        ASSERT_EQ(log.size(), values.size());
        std::vector<Cycles> plain = values;
        std::size_t from = 0;
        for (const auto &[num, den] :
             {std::pair<std::uint64_t, std::uint64_t>{50, 100},
              {99, 100},
              {999, 1000}}) {
            EXPECT_EQ(log.nearestRank(num, den),
                      nearestRank(plain, num, den, from))
                << "n " << values.size() << " at " << num << "/" << den;
        }
    }
}

TEST(FleetArrivals, WidestArrivalRoundTripsBothFields)
{
    const Arrival a{(1ull << 56) - 1, 255};
    EXPECT_EQ(a.atCycles, (1ull << 56) - 1);
    EXPECT_EQ(a.workloadIndex, 255u);
}

TEST(FleetArrivals, MixBeyondTheIndexWidthThrowsConfigError)
{
    MachineConfig cfg = defaultConfig();
    cfg.fleet.invocations = 1000;
    const std::vector<Arrival> a = generateArrivals(cfg, 256);
    EXPECT_TRUE(std::any_of(a.begin(), a.end(), [](const Arrival &x) {
        return x.workloadIndex > 200;
    }));
    try {
        generateArrivals(cfg, 257);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::Config);
        EXPECT_NE(std::string(e.what()).find("256"), std::string::npos)
            << e.what();
    }
}

TEST(FleetArrivals, WindowPastTheCycleLimitThrowsConfigError)
{
    // 300K arrivals at 0.01 rps span about 3e7 s, 9e16 cycles at
    // 3 GHz: past 2^56 (about 7.2e16) well before the last arrival.
    MachineConfig cfg = defaultConfig();
    cfg.fleet.ratePerSec = 0.01;
    cfg.fleet.invocations = 300'000;
    try {
        generateArrivals(cfg, 1);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::Config);
        EXPECT_NE(std::string(e.what()).find("2^56"), std::string::npos)
            << e.what();
    }
}

TEST(FleetReport, OfferedLoadIsRateTimesMeanServiceOverCores)
{
    MachineConfig cfg = defaultConfig();
    cfg.core.freqGhz = 3.0;
    cfg.fleet.ratePerSec = 1000.0;
    cfg.fleet.cores = 4;
    std::vector<FleetProfile> profiles(2);
    profiles[0].serviceCycles = 3'000'000; // 1 ms
    profiles[1].serviceCycles = 9'000'000; // 3 ms
    // E[S] = 2 ms: rho = 1000/s * 0.002 s / 4 = 0.5.
    EXPECT_DOUBLE_EQ(fleetOfferedLoad(cfg, profiles), 0.5);
    EXPECT_DOUBLE_EQ(fleetOfferedLoad(cfg, {}), 0.0);

    // Printed in both renderings, flagged in text once overloaded.
    FleetReport report;
    report.fleet = cfg.fleet;
    report.profiles = profiles;
    std::ostringstream text, json;
    printFleetText(text, report, cfg);
    writeFleetJson(json, report, cfg);
    EXPECT_NE(text.str().find("/ cores = 0.500\n"), std::string::npos)
        << text.str();
    EXPECT_NE(json.str().find("\"offered_load\": 0.5"), std::string::npos)
        << json.str();

    cfg.fleet.ratePerSec = 4000.0;
    std::ostringstream overloaded;
    printFleetText(overloaded, report, cfg);
    EXPECT_NE(overloaded.str().find("= 2.000 (overloaded"),
              std::string::npos)
        << overloaded.str();
}

TEST(FleetPipeline, UnknownArrivalKindThrowsBeforeProfiling)
{
    MachineConfig cfg = smallFleetConfig();
    cfg.fleet.arrival = "lognormal";
    SweepEngine engine;
    try {
        runFleet(cfg, engine);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::Config);
    }
}

TEST(FleetPipeline, WindowPastTheArrivalLimitThrowsBeforeProfiling)
{
    // 300,000 invocations at 0.01/s span 3e7 s, 9e16 cycles at 3 GHz:
    // past 2^56. The error must come before any profile cell is run
    // or stored.
    TempStoreDir dir("fleet-window");
    ResultStore store({.dir = dir.path(), .codeVersion = "fleet-test"});
    MachineConfig cfg = smallFleetConfig();
    cfg.fleet.ratePerSec = 0.01;
    cfg.fleet.invocations = 300000;
    SweepOptions so;
    so.store = &store;
    SweepEngine engine(so);
    try {
        runFleet(cfg, engine);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::Config);
        EXPECT_NE(std::string(e.what()).find("2^56"), std::string::npos)
            << e.what();
    }
    EXPECT_EQ(store.stats().misses, 0u);
    EXPECT_EQ(store.stats().stores, 0u);
}

TEST(FleetPipeline, StopFlagEndsTheProfileStageWithoutAReport)
{
    // A stop raised before profiling (SIGINT under --cache) must skip
    // every profile cell and say so with nullopt: a failed profile
    // throws instead, and the CLI maps the two to different exits.
    TempStoreDir dir("fleet-stop");
    ResultStore store({.dir = dir.path(), .codeVersion = "fleet-test"});
    std::atomic<bool> stop{true};
    SweepOptions so;
    so.jobs = 2;
    so.store = &store;
    so.stopFlag = &stop;
    SweepEngine engine(so);
    std::optional<FleetReport> report;
    EXPECT_NO_THROW(report = runFleet(smallFleetConfig(), engine));
    EXPECT_FALSE(report.has_value());
    EXPECT_EQ(store.stats().misses, 0u);
    EXPECT_EQ(store.stats().stores, 0u);
    EXPECT_TRUE(store.listCellFiles().empty());
}

} // namespace
} // namespace memento
