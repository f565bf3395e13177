/**
 * @file
 * End-to-end experiment invariants: the paired baseline/Memento runs
 * must agree on the work performed, and the paper's headline effects
 * must hold directionally even at tiny scale.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "machine/breakdown.h"
#include "machine/experiment.h"
#include "machine/function_executor.h"
#include "machine/machine.h"
#include "wl/trace_generator.h"
#include "wl/workloads.h"

namespace memento {
namespace {

WorkloadSpec
smallWorkload(Language lang)
{
    WorkloadSpec spec;
    spec.id = "e2e";
    spec.lang = lang;
    spec.numAllocs = 4000;
    spec.sizeDist = SizeDistribution(
        {SizeBucket{0.7, 16, 128}, SizeBucket{0.3, 129, 512}});
    spec.largeDist = SizeDistribution({SizeBucket{1.0, 520, 4096}});
    spec.lifetime = {.pShort = lang == Language::Golang ? 0.0 : 0.8,
                     .meanShortDistance = 4.0,
                     .pLongFreed = 0.0,
                     .meanLongDistance = 100.0};
    spec.pLarge = 0.01;
    spec.computePerAlloc = 120;
    spec.staticWsBytes = 256 << 10;
    spec.rpcBytes = 2048;
    spec.seed = 77;
    return spec;
}

class ExperimentTest : public ::testing::TestWithParam<Language>
{
};

TEST_P(ExperimentTest, MementoWinsAndReducesKernelWork)
{
    Comparison cmp = Experiment::compareDefault(smallWorkload(GetParam()));

    // Memento must be faster on allocation-heavy work.
    EXPECT_GT(cmp.speedup(), 1.0);
    // The kernel memory-management cycles must collapse.
    EXPECT_LT(cmp.memento.kernelMmCycles(), cmp.base.kernelMmCycles());
    // Memento replaces userspace allocator work with hardware work.
    EXPECT_LT(cmp.memento.userMmCycles(), cmp.base.userMmCycles());
    EXPECT_GT(cmp.memento.hwMmCycles(), 0u);
    EXPECT_EQ(cmp.base.hwMmCycles(), 0u);
    // Fewer page faults on the Memento machine.
    EXPECT_LE(cmp.memento.pageFaults(), cmp.base.pageFaults());
}

TEST_P(ExperimentTest, PairedRunsDoTheSameApplicationWork)
{
    const WorkloadSpec spec = smallWorkload(GetParam());
    Comparison cmp = Experiment::compareDefault(spec);
    // Identical traces: identical application compute cycles.
    EXPECT_EQ(cmp.base.category(CycleCategory::AppCompute),
              cmp.memento.category(CycleCategory::AppCompute));
    EXPECT_EQ(cmp.base.category(CycleCategory::Rpc),
              cmp.memento.category(CycleCategory::Rpc));
    // Same number of small allocations performed.
    EXPECT_EQ(cmp.base.objAllocs(), cmp.memento.objAllocs());
}

TEST_P(ExperimentTest, BypassSavesTrafficNotCorrectness)
{
    Comparison cmp = Experiment::compareDefault(smallWorkload(GetParam()));
    EXPECT_GT(cmp.memento.bypassedLines(), 0u);
    EXPECT_EQ(cmp.mementoNoBypass.bypassedLines(), 0u);
    EXPECT_LE(cmp.memento.dramBytes(), cmp.mementoNoBypass.dramBytes());
}

TEST_P(ExperimentTest, BreakdownSharesAreNormalized)
{
    Comparison cmp = Experiment::compareDefault(smallWorkload(GetParam()));
    Breakdown bd = computeBreakdown(cmp);
    const double sum =
        bd.objAlloc + bd.objFree + bd.pageMgmt + bd.bypass;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_GE(bd.objAlloc, 0.0);
    EXPECT_GE(bd.objFree, 0.0);
    EXPECT_GE(bd.pageMgmt, 0.0);
    EXPECT_GE(bd.bypass, 0.0);
    EXPECT_GT(bd.savedCycles, 0u);
}

/**
 * The metrics as the runner read them before RunResult carried counter
 * readings: every counter resolved by name on the live machine, and the
 * small-object counts picked by configuration.
 */
struct LiveReads
{
    std::map<std::string, std::uint64_t> start, end;
    std::uint64_t dramBytes, bypassedLines, pageFaults, mmapCalls,
        poolRefills, hotAllocHits, hotAllocMisses, hotFreeHits,
        hotFreeMisses, allocListOps, freeListOps, objAllocs, objFrees,
        aggUserPages, aggKernelPages;
};

LiveReads
readLive(const WorkloadSpec &spec, const Trace &trace,
         const MachineConfig &cfg)
{
    Machine machine(cfg);
    machine.createProcess(spec);
    const StatRegistry &stats = machine.stats();
    LiveReads r;
    r.start = stats.snapshot();
    FunctionExecutor(machine).run(spec, trace, RunOptions{});
    r.end = stats.snapshot();

    auto delta = [&](const std::string &name) {
        const auto it = r.start.find(name);
        return stats.value(name) - (it == r.start.end() ? 0 : it->second);
    };
    const std::string vm = "vm" + std::to_string(machine.process().pid());
    r.dramBytes = delta("dram.bytes");
    r.bypassedLines = delta("hier.bypassed_lines");
    r.pageFaults = delta(vm + ".faults");
    r.mmapCalls = delta(vm + ".mmap_calls");
    r.poolRefills = delta("hwpage.pool_refills");
    r.hotAllocHits = delta("hot.alloc_hits");
    r.hotAllocMisses = delta("hot.alloc_misses");
    r.hotFreeHits = delta("hot.free_hits");
    r.hotFreeMisses = delta("hot.free_misses");
    r.allocListOps = delta("hwobj.alloc_list_ops");
    r.freeListOps = delta("hwobj.free_list_ops");
    if (cfg.memento.enabled && !cfg.memento.mallaccMode) {
        r.objAllocs = r.hotAllocHits + r.hotAllocMisses;
        r.objFrees = r.hotFreeHits + r.hotFreeMisses;
    } else {
        r.objAllocs = delta("pymalloc.small_mallocs") +
                      delta("jemalloc.small_mallocs") +
                      delta("gomalloc.small_mallocs");
        r.objFrees = delta("pymalloc.small_frees") +
                     delta("jemalloc.small_frees") +
                     delta("gomalloc.deaths");
    }
    r.aggUserPages = stats.value(vm + ".agg_user_pages") +
                     stats.value("hwpage.agg_os_pages");
    r.aggKernelPages = stats.value(vm + ".agg_kernel_pages") +
                       stats.value(vm + ".agg_vma_bytes") / kPageSize;
    return r;
}

TEST_P(ExperimentTest, AccessorsMatchLiveRegistryReads)
{
    const WorkloadSpec spec = smallWorkload(GetParam());
    const Trace trace = TraceGenerator(spec).generate();
    MachineConfig mallacc = mementoConfig();
    mallacc.memento.mallaccMode = true;
    for (const MachineConfig &cfg :
         {defaultConfig(), mementoConfig(), mallacc}) {
        SCOPED_TRACE(cfg.memento.mallaccMode ? "mallacc"
                     : cfg.memento.enabled   ? "memento"
                                             : "baseline");
        const RunResult r = Experiment::runOne(spec, trace, cfg);
        const LiveReads live = readLive(spec, trace, cfg);

        // The readings are the registry itself, at both window edges.
        ASSERT_EQ(r.counters.size(), live.end.size());
        auto it = live.end.begin();
        for (const CounterReading &c : r.counters) {
            EXPECT_EQ(c.name, it->first);
            EXPECT_EQ(c.end, it->second) << c.name;
            const auto s = live.start.find(c.name);
            EXPECT_EQ(c.start, s == live.start.end() ? 0 : s->second)
                << c.name;
            ++it;
        }

        EXPECT_EQ(r.dramBytes(), live.dramBytes);
        EXPECT_EQ(r.bypassedLines(), live.bypassedLines);
        EXPECT_EQ(r.pageFaults(), live.pageFaults);
        EXPECT_EQ(r.mmapCalls(), live.mmapCalls);
        EXPECT_EQ(r.poolRefills(), live.poolRefills);
        EXPECT_EQ(r.hotAllocHits(), live.hotAllocHits);
        EXPECT_EQ(r.hotAllocMisses(), live.hotAllocMisses);
        EXPECT_EQ(r.hotFreeHits(), live.hotFreeHits);
        EXPECT_EQ(r.hotFreeMisses(), live.hotFreeMisses);
        EXPECT_EQ(r.allocListOps(), live.allocListOps);
        EXPECT_EQ(r.freeListOps(), live.freeListOps);
        EXPECT_EQ(r.objAllocs(), live.objAllocs);
        EXPECT_EQ(r.objFrees(), live.objFrees);
        EXPECT_EQ(r.aggUserPages(), live.aggUserPages);
        EXPECT_EQ(r.aggKernelPages(), live.aggKernelPages);

        // The §6.7 table prints "-" for Mallacc's small-object columns.
        if (cfg.memento.mallaccMode) {
            EXPECT_EQ(r.objAllocs(), 0u);
            EXPECT_EQ(r.objFrees(), 0u);
        } else {
            EXPECT_GT(r.objAllocs(), 0u);
        }
    }
}

/** Counter namespaces of the Memento hardware units. */
bool
isHardwareCounter(const std::string &name)
{
    for (const char *prefix :
         {"aac.", "bypass.", "hot.", "hwobj.", "hwpage.", "memento."}) {
        if (name.rfind(prefix, 0) == 0)
            return true;
    }
    return false;
}

TEST_P(ExperimentTest, AccountingIdentitiesAndBypassRelationHold)
{
    const Comparison cmp =
        Experiment::compareDefault(smallWorkload(GetParam()));
    const struct
    {
        const char *name;
        const RunResult &run;
    } runs[] = {{"baseline", cmp.base},
                {"memento", cmp.memento},
                {"memento-no-bypass", cmp.mementoNoBypass}};
    for (const auto &[name, r] : runs) {
        SCOPED_TRACE(name);
        // R3: DRAM traffic is whole lines, and every access is a row
        // hit or a row miss.
        const std::uint64_t accesses =
            r.delta("dram.reads") + r.delta("dram.writes");
        EXPECT_EQ(r.dramBytes(), accesses * kLineSize);
        EXPECT_EQ(r.delta("dram.row_hits") + r.delta("dram.row_misses"),
                  accesses);
        // R3: the cycle categories partition the run's cycles.
        Cycles by_category = 0;
        for (Cycles c : r.byCategory)
            by_category += c;
        EXPECT_EQ(by_category, r.cycles);
    }

    // R3: with Memento off, no hardware unit counts anything.
    for (const CounterReading &c : cmp.base.counters) {
        if (isHardwareCounter(c.name)) {
            EXPECT_EQ(c.end - c.start, 0u) << c.name;
        }
    }
    EXPECT_EQ(cmp.base.hwMmCycles(), 0u);

    // R2: bypass changes DRAM traffic, never a cache hit or miss; each
    // line it bypasses is a demand fill the no-bypass run makes.
    for (const char *cache : {"l1d", "l1i", "l2", "llc"}) {
        for (const char *event : {".hits", ".misses"}) {
            const std::string counter = std::string(cache) + event;
            EXPECT_EQ(cmp.mementoNoBypass.delta(counter),
                      cmp.memento.delta(counter))
                << counter;
        }
    }
    EXPECT_GT(cmp.memento.bypassedLines(), 0u);
    EXPECT_EQ(cmp.mementoNoBypass.bypassedLines(), 0u);
    EXPECT_EQ(cmp.mementoNoBypass.delta("hier.demand_fills"),
              cmp.memento.delta("hier.demand_fills") +
                  cmp.memento.bypassedLines());
}

INSTANTIATE_TEST_SUITE_P(Languages, ExperimentTest,
                         ::testing::Values(Language::Python,
                                           Language::Cpp,
                                           Language::Golang));

TEST(ExperimentInvariants, HotHitRateIsHighOnChurn)
{
    Comparison cmp =
        Experiment::compareDefault(smallWorkload(Language::Cpp));
    const double alloc_rate =
        static_cast<double>(cmp.memento.hotAllocHits()) /
        (cmp.memento.hotAllocHits() + cmp.memento.hotAllocMisses());
    EXPECT_GT(alloc_rate, 0.97);
}

TEST(ExperimentInvariants, MallaccModeUsesSoftwarePaths)
{
    MachineConfig mallacc = mementoConfig();
    mallacc.memento.mallaccMode = true;
    const WorkloadSpec spec = smallWorkload(Language::Cpp);
    const Trace trace = TraceGenerator(spec).generate();
    RunResult res = Experiment::runOne(spec, trace, mallacc);
    // No HOT activity: Mallacc is a software allocator accelerator.
    EXPECT_EQ(res.hotAllocHits() + res.hotAllocMisses(), 0u);
    EXPECT_EQ(res.hwMmCycles(), 0u);
}

TEST(ExperimentInvariants, ColdStartSlowerThanWarm)
{
    const WorkloadSpec spec = smallWorkload(Language::Python);
    const Trace trace = TraceGenerator(spec).generate();
    RunResult warm = Experiment::runOne(spec, trace, defaultConfig());
    RunOptions cold_opts;
    cold_opts.coldStart = true;
    RunResult cold =
        Experiment::runOne(spec, trace, defaultConfig(), cold_opts);
    EXPECT_GT(cold.cycles, warm.cycles);
}

TEST(ExperimentInvariants, IdenticalConfigsGiveIdenticalResults)
{
    const WorkloadSpec spec = smallWorkload(Language::Cpp);
    const Trace trace = TraceGenerator(spec).generate();
    RunResult a = Experiment::runOne(spec, trace, defaultConfig());
    RunResult b = Experiment::runOne(spec, trace, defaultConfig());
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.dramBytes(), b.dramBytes());
    EXPECT_EQ(a.pageFaults(), b.pageFaults());
    EXPECT_EQ(a.instructions, b.instructions);
}

TEST(ExperimentInvariants, MapPopulateRaisesFootprintLowersFaults)
{
    const WorkloadSpec spec = smallWorkload(Language::Golang);
    const Trace trace = TraceGenerator(spec).generate();
    RunResult lazy = Experiment::runOne(spec, trace, defaultConfig());
    MachineConfig pop = defaultConfig();
    pop.kernel.mapPopulate = true;
    RunResult eager = Experiment::runOne(spec, trace, pop);
    EXPECT_LT(eager.pageFaults(), lazy.pageFaults());
    EXPECT_GT(eager.peakResidentPages, lazy.peakResidentPages);
}

/**
 * A kernel.thp=true run's cycles and the huge faults behind them,
 * pinned. The THP figure prints ratios that round away a few cycles
 * per huge fault, so only the exact count catches a drift in the
 * zeroing cost. The window is RunResult::cycles': from after set-up
 * to the end of the run. Of the THP figure's workloads, only the Go
 * ones take huge faults.
 */
TEST(ThpContract, CyclesAndHugeFaultsArePinned)
{
    struct Pin
    {
        const char *id;
        Cycles cycles;
        std::uint64_t hugeFaults;
    };
    for (const Pin &pin :
         {Pin{"html-go", 85'361'331, 8}, Pin{"bfs-go", 85'259'482, 4}}) {
        const WorkloadSpec &spec = workloadById(pin.id);
        const Trace trace = TraceGenerator(spec).generate();
        MachineConfig cfg = defaultConfig();
        cfg.kernel.transparentHugePages = true;
        Machine machine(cfg);
        machine.createProcess(spec);
        const Cycles before = machine.cycleLedger().total();
        FunctionExecutor(machine).run(spec, trace, RunOptions{});
        const Cycles cycles = machine.cycleLedger().total() - before;
        const std::uint64_t huge = machine.process().vm().hugeFaultCount();
        EXPECT_EQ(cycles, pin.cycles) << pin.id;
        EXPECT_EQ(huge, pin.hugeFaults) << pin.id;
    }
}

} // namespace
} // namespace memento
