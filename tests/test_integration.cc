/**
 * @file
 * Cross-module integration and property tests: translation coherence,
 * traffic conservation, Memento across every size class, GC/scavenge
 * and decay interplay with the VM, and the breakdown attribution.
 */

#include <gtest/gtest.h>

#include <set>

#include "machine/breakdown.h"
#include "machine/experiment.h"
#include "machine/machine.h"
#include "os/kernel_cost.h"
#include "os/process.h"
#include "rt/gomalloc.h"
#include "test_util.h"
#include "wl/trace_generator.h"

namespace memento {
namespace {

// ---------------------------------------------------------------------
// Process / kernel cost model
// ---------------------------------------------------------------------

TEST(ProcessTest, RegistersInitializedFromLayout)
{
    MachineConfig cfg = test::smallMementoConfig();
    StatRegistry stats;
    BuddyAllocator buddy(1ull << 22, 1ull << 28, stats);
    Process proc(7, "test", cfg, buddy, stats);
    EXPECT_EQ(proc.pid(), 7);
    EXPECT_EQ(proc.name(), "test");
    EXPECT_EQ(proc.mementoRegs().mrs, cfg.layout.mementoRegionStart);
    EXPECT_EQ(proc.mementoRegs().mre, cfg.layout.mementoRegionEnd());
    EXPECT_EQ(proc.mementoRegs().mptr, 0u); // Set when a space binds.
}

TEST(KernelCostTest, ContextSwitchScalesWithHotEntries)
{
    MachineConfig cfg;
    EXPECT_EQ(contextSwitchCycles(cfg, 0), kContextSwitchCycles);
    EXPECT_EQ(contextSwitchCycles(cfg, 64),
              kContextSwitchCycles + 64 * cfg.memento.hotLatency);
}

TEST(KernelCostTest, ContainerSetupIsExpensive)
{
    MachineConfig cfg;
    // Millions of instructions -> millions of cycles at IPC 2.
    EXPECT_GT(cfg.core.instructionCycles(kContainerSetupInstructions),
              1'000'000u);
}

// ---------------------------------------------------------------------
// Translation coherence
// ---------------------------------------------------------------------

TEST(TranslationTest, RepeatedAccessesAreStable)
{
    Machine m(test::smallConfig());
    WorkloadSpec spec;
    spec.id = "t";
    spec.lang = Language::Cpp;
    spec.staticWsBytes = 64 << 10;
    m.createProcess(spec);
    Addr heap = m.process().vm().mmap(32 * kPageSize, nullptr);

    // Touch all pages twice; the second sweep must not fault.
    for (Addr va = heap; va < heap + 32 * kPageSize; va += kPageSize)
        m.appAccess(va, AccessType::Write);
    const std::uint64_t faults = m.process().vm().faultCount();
    EXPECT_EQ(faults, 32u);
    for (Addr va = heap; va < heap + 32 * kPageSize; va += kPageSize)
        m.appAccess(va, AccessType::Read);
    EXPECT_EQ(m.process().vm().faultCount(), faults);
}

TEST(TranslationTest, MadvisedPageRefaultsAfterTlbShootdown)
{
    Machine m(test::smallConfig());
    WorkloadSpec spec;
    spec.id = "t";
    spec.lang = Language::Cpp;
    m.createProcess(spec);
    VirtualMemory &vm = m.process().vm();
    Addr heap = vm.mmap(kPageSize, nullptr);

    m.appAccess(heap, AccessType::Write);
    EXPECT_EQ(vm.faultCount(), 1u);
    vm.madviseFree(heap, kPageSize, &m);
    // The shootdown removed the TLB entry: the next touch must fault
    // again rather than use a stale translation.
    m.appAccess(heap, AccessType::Read);
    EXPECT_EQ(vm.faultCount(), 2u);
}

// ---------------------------------------------------------------------
// Memento across every size class
// ---------------------------------------------------------------------

class AllClassesTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(AllClassesTest, AllocFillFreeCycleWorks)
{
    const unsigned cls = GetParam();
    const std::uint64_t size = sizeClassBytes(cls);
    Machine m(test::smallMementoConfig());
    WorkloadSpec spec;
    spec.id = "cls";
    spec.lang = Language::Cpp;
    m.createProcess(spec);
    Allocator &alloc = m.allocator();

    // Fill more than one arena, touch every object, free everything.
    std::vector<Addr> ptrs;
    for (unsigned i = 0; i < 300; ++i) {
        Addr p = alloc.malloc(size, m);
        m.appAccess(p, AccessType::Write);
        m.appAccess(p + size - 1, AccessType::Read);
        ptrs.push_back(p);
    }
    std::set<Addr> unique(ptrs.begin(), ptrs.end());
    EXPECT_EQ(unique.size(), ptrs.size());
    for (Addr p : ptrs)
        alloc.free(p, m);
    EXPECT_EQ(alloc.liveBytes(), 0u);
    // No OS page faults were needed for any of it.
    EXPECT_EQ(m.cycleLedger().category(CycleCategory::KernelFault), 0u);
}

INSTANTIATE_TEST_SUITE_P(SizeClasses, AllClassesTest,
                         ::testing::Values(0u, 1u, 3u, 7u, 15u, 31u,
                                           47u, 63u));

// ---------------------------------------------------------------------
// Traffic conservation property
// ---------------------------------------------------------------------

TEST(TrafficTest, DramBytesMatchAccessCounts)
{
    Machine m(test::smallConfig());
    WorkloadSpec spec;
    spec.id = "t";
    spec.lang = Language::Cpp;
    m.createProcess(spec);
    Addr heap = m.process().vm().mmap(1 << 20, nullptr);
    for (Addr va = heap; va < heap + (1 << 20); va += kLineSize)
        m.appAccess(va, AccessType::Read);
    const auto &dram = m.hierarchy().dram();
    EXPECT_EQ(dram.totalBytes(),
              (dram.readCount() + dram.writeCount()) * kLineSize);
    EXPECT_GT(dram.readCount(), 0u);
}

TEST(TrafficTest, LlcSizedWorkingSetStopsMissing)
{
    MachineConfig cfg = test::smallConfig();
    Machine m(cfg);
    WorkloadSpec spec;
    spec.id = "t";
    spec.lang = Language::Cpp;
    m.createProcess(spec);
    // Working set = half the LLC.
    const std::uint64_t ws = cfg.llc.sizeBytes / 2;
    Addr heap = m.process().vm().mmap(ws, nullptr);
    for (int pass = 0; pass < 3; ++pass)
        for (Addr va = heap; va < heap + ws; va += kLineSize)
            m.appAccess(va, AccessType::Read);
    const std::uint64_t reads_after_warm =
        m.hierarchy().dram().readCount();
    for (Addr va = heap; va < heap + ws; va += kLineSize)
        m.appAccess(va, AccessType::Read);
    // Fully cache-resident now: no further DRAM reads.
    EXPECT_EQ(m.hierarchy().dram().readCount(),
              reads_after_warm);
}

// ---------------------------------------------------------------------
// Breakdown attribution
// ---------------------------------------------------------------------

TEST(BreakdownTest, ZeroSavingsGiveZeroShares)
{
    Comparison cmp;
    cmp.base.cycles = 100;
    cmp.memento.cycles = 100;
    cmp.mementoNoBypass.cycles = 100;
    Breakdown bd = computeBreakdown(cmp);
    EXPECT_EQ(bd.savedCycles, 0u);
    EXPECT_EQ(bd.objAlloc + bd.objFree + bd.pageMgmt + bd.bypass, 0.0);
}

TEST(BreakdownTest, AttributesToTheRightMechanism)
{
    Comparison cmp;
    cmp.base.cycles = 1000;
    cmp.memento.cycles = 800;
    cmp.mementoNoBypass.cycles = 850;
    // Baseline spent 100 in user alloc; Memento spends 10 in hw alloc.
    cmp.base.byCategory[static_cast<int>(CycleCategory::UserAlloc)] =
        100;
    cmp.memento.byCategory[static_cast<int>(CycleCategory::HwAlloc)] =
        10;
    Breakdown bd = computeBreakdown(cmp);
    EXPECT_GT(bd.objAlloc, 0.5);
    EXPECT_GT(bd.bypass, 0.0);
    EXPECT_EQ(bd.savedCycles, 200u);
}

// ---------------------------------------------------------------------
// GC + decay against the VM
// ---------------------------------------------------------------------

TEST(RuntimeVmInterplay, GoScavengeReturnsPagesToOs)
{
    // Run against a real Machine so the allocator's object-zeroing
    // writes actually demand-fault pages.
    MachineConfig cfg = test::smallConfig();
    cfg.tuning.goGcTriggerBytes = 128 << 10;
    Machine m(cfg);
    WorkloadSpec spec;
    spec.id = "go-scav";
    spec.lang = Language::Golang;
    spec.domain = Domain::Platform; // GC enabled.
    spec.staticWsBytes = 64 << 10;  // Keep residency heap-dominated.
    m.createProcess(spec);
    Allocator &alloc = m.allocator();
    VirtualMemory &vm = m.process().vm();

    // Allocate a wave, kill it all, keep churning so GC runs and the
    // scavenger returns the idle spans' pages.
    std::vector<Addr> wave;
    for (int i = 0; i < 4000; ++i)
        wave.push_back(alloc.malloc(64, m));
    for (Addr p : wave)
        alloc.free(p, m);
    const std::uint64_t faults_before_churn = vm.faultCount();
    for (int i = 0; i < 4000; ++i)
        alloc.free(alloc.malloc(64, m), m);

    EXPECT_GT(m.stats().value("gomalloc.gc_runs"), 0u);
    // Scavenged spans demand-fault back in when reused.
    EXPECT_GT(vm.faultCount(), faults_before_churn);
    // Residency stays far below the total bytes ever allocated.
    EXPECT_LT(vm.residentUserPages() * kPageSize, 4000u * 64 * 2);
}

TEST(RuntimeVmInterplay, MementoNeverTouchesTheOsForSmallObjects)
{
    WorkloadSpec spec;
    spec.id = "pure-small";
    spec.lang = Language::Python;
    spec.numAllocs = 3000;
    spec.sizeDist = SizeDistribution({SizeBucket{1.0, 16, 512}});
    spec.largeDist = SizeDistribution({SizeBucket{1.0, 520, 1024}});
    spec.lifetime = {.pShort = 0.7, .meanShortDistance = 4.0,
                     .pLongFreed = 0.0, .meanLongDistance = 100.0};
    spec.pLarge = 0.0; // Small objects only.
    spec.rpcBytes = 0;
    spec.seed = 5;
    const Trace trace = TraceGenerator(spec).generate();

    RunResult mem = Experiment::runOne(spec, trace, mementoConfig());
    EXPECT_EQ(mem.pageFaults(), 0u);
    EXPECT_EQ(mem.mmapCalls(), 0u);
    EXPECT_EQ(mem.category(CycleCategory::KernelFault), 0u);
    EXPECT_EQ(mem.category(CycleCategory::KernelMmap), 0u);
}

TEST(RuntimeVmInterplay, BaselinePaysKernelForTheSameTrace)
{
    WorkloadSpec spec;
    spec.id = "pure-small";
    spec.lang = Language::Python;
    spec.numAllocs = 3000;
    spec.sizeDist = SizeDistribution({SizeBucket{1.0, 16, 512}});
    spec.largeDist = SizeDistribution({SizeBucket{1.0, 520, 1024}});
    spec.lifetime = {.pShort = 0.7, .meanShortDistance = 4.0,
                     .pLongFreed = 0.0, .meanLongDistance = 100.0};
    spec.pLarge = 0.0;
    spec.rpcBytes = 0;
    spec.seed = 5;
    const Trace trace = TraceGenerator(spec).generate();

    RunResult base = Experiment::runOne(spec, trace, defaultConfig());
    EXPECT_GT(base.pageFaults(), 0u);
    EXPECT_GT(base.category(CycleCategory::KernelFault), 0u);
}

// ---------------------------------------------------------------------
// Eager arena prefetch ablation
// ---------------------------------------------------------------------

TEST(AblationTest, EagerPrefetchRaisesAllocHitRate)
{
    WorkloadSpec spec;
    spec.id = "prefetch";
    spec.lang = Language::Cpp;
    spec.numAllocs = 5000;
    spec.sizeDist = SizeDistribution({SizeBucket{1.0, 64, 64}});
    spec.largeDist = SizeDistribution({SizeBucket{1.0, 520, 1024}});
    spec.lifetime = {.pShort = 0.0, .meanShortDistance = 4.0,
                     .pLongFreed = 0.0, .meanLongDistance = 100.0};
    spec.pLarge = 0.0;
    spec.rpcBytes = 0;
    spec.seed = 9;
    const Trace trace = TraceGenerator(spec).generate();

    MachineConfig eager = mementoConfig();
    MachineConfig lazy = mementoConfig();
    lazy.memento.eagerArenaPrefetch = false;

    RunResult with = Experiment::runOne(spec, trace, eager);
    RunResult without = Experiment::runOne(spec, trace, lazy);
    EXPECT_LT(with.hotAllocMisses(), without.hotAllocMisses());
    EXPECT_EQ(with.objAllocs(), without.objAllocs());
}

} // namespace
} // namespace memento
