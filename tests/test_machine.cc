/**
 * @file
 * Integration tests for the Machine: translation path (TLBs, walks,
 * faults), Memento-region handling, Env semantics, process creation
 * and context switching, and the executor.
 */

#include <gtest/gtest.h>

#include <array>

#include "machine/function_executor.h"
#include "machine/machine.h"
#include "sim/error.h"
#include "test_util.h"
#include "wl/trace_generator.h"

namespace memento {
namespace {

WorkloadSpec
tinySpec(Language lang, std::uint64_t allocs = 500)
{
    WorkloadSpec spec;
    spec.id = "tiny";
    spec.lang = lang;
    spec.numAllocs = allocs;
    spec.sizeDist = SizeDistribution({SizeBucket{1.0, 16, 128}});
    spec.largeDist = SizeDistribution({SizeBucket{1.0, 520, 2048}});
    spec.lifetime = {.pShort = 0.8, .meanShortDistance = 4.0,
                     .pLongFreed = 0.0, .meanLongDistance = 100.0};
    spec.pLarge = 0.01;
    spec.computePerAlloc = 50;
    spec.staticWsBytes = 64 << 10;
    spec.rpcBytes = 1024;
    spec.seed = 42;
    return spec;
}

TEST(MachineTest, ChargeInstructionsUsesBaseIpc)
{
    Machine m(test::smallConfig());
    m.appCompute(100);
    // IPC 2.0 -> 50 cycles.
    EXPECT_EQ(m.cycleLedger().total(), 50u);
    EXPECT_EQ(m.instructions(), 100u);
    EXPECT_EQ(m.cycleLedger().category(CycleCategory::AppCompute), 50u);
}

TEST(MachineTest, FirstTouchFaultsThenTlbHits)
{
    Machine m(test::smallConfig());
    m.createProcess(tinySpec(Language::Cpp));
    Addr heap = m.process().vm().mmap(4 * kPageSize, nullptr);

    const std::uint64_t faults_before = m.process().vm().faultCount();
    m.appAccess(heap, AccessType::Read);
    EXPECT_EQ(m.process().vm().faultCount(), faults_before + 1);

    // Second access: TLB hit, no new fault.
    m.appAccess(heap + 8, AccessType::Read);
    EXPECT_EQ(m.process().vm().faultCount(), faults_before + 1);
    EXPECT_GT(m.stats().value("l1tlb.hits"), 0u);
}

TEST(MachineTest, SegfaultRaisesTraceError)
{
    Machine m(test::smallConfig());
    m.createProcess(tinySpec(Language::Cpp));
    try {
        m.appAccess(0xDEAD'0000'0000ull, AccessType::Read);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::Trace);
        EXPECT_NE(std::string(e.what()).find("segfault"),
                  std::string::npos);
    }
}

TEST(MachineTest, MementoRegionWalksBypassKernel)
{
    Machine m(test::smallMementoConfig());
    m.createProcess(tinySpec(Language::Python));
    Allocator &alloc = m.allocator();
    EXPECT_EQ(alloc.name(), "memento");

    Addr obj = alloc.malloc(64, m);
    const std::uint64_t faults_before = m.process().vm().faultCount();
    m.appAccess(obj, AccessType::Write);
    m.appAccess(obj, AccessType::Read);
    // The region access never reaches the OS fault handler.
    EXPECT_EQ(m.process().vm().faultCount(), faults_before);
    EXPECT_EQ(m.cycleLedger().category(CycleCategory::KernelFault), 0u);
}

TEST(MachineTest, MementoBodyPagesPopulateOnFirstTouch)
{
    MachineConfig cfg = test::smallMementoConfig();
    Machine m(cfg);
    m.createProcess(tinySpec(Language::Python));
    Allocator &alloc = m.allocator();

    // Class 63 arenas span multiple pages: allocate enough objects to
    // cross into a lazily-backed body page and touch one.
    Addr obj = kNullAddr;
    for (int i = 0; i < 16; ++i)
        obj = alloc.malloc(512, m);
    const std::uint64_t populates_before =
        m.stats().value("hwpage.walk_populates");
    m.appAccess(obj, AccessType::Write);
    EXPECT_GT(m.stats().value("hwpage.walk_populates"),
              populates_before);
}

TEST(MachineTest, BypassClassifiedOnRegionStores)
{
    Machine m(test::smallMementoConfig());
    m.createProcess(tinySpec(Language::Python));
    Addr obj = m.allocator().malloc(64, m);
    const std::uint64_t before = m.hierarchy().bypassedLines();
    m.appAccess(obj, AccessType::Write);
    EXPECT_GT(m.hierarchy().bypassedLines(), before);
}

TEST(MachineTest, AllocatorSelectionFollowsLanguage)
{
    for (auto [lang, name] :
         {std::pair{Language::Python, "pymalloc"},
          std::pair{Language::Cpp, "jemalloc"},
          std::pair{Language::Golang, "gomalloc"}}) {
        Machine m(test::smallConfig());
        m.createProcess(tinySpec(lang));
        EXPECT_EQ(m.allocator().name(), name);
    }
}

TEST(MachineTest, ContextSwitchFlushesHotAndTlbs)
{
    Machine m(test::smallMementoConfig());
    unsigned p0 = m.createProcess(tinySpec(Language::Python));
    unsigned p1 = m.createProcess(tinySpec(Language::Python));

    m.allocator().malloc(64, m); // Warms HOT entry for class 8.
    const Cycles before = m.cycleLedger().total();
    m.switchTo(p1);
    EXPECT_GT(m.cycleLedger().category(CycleCategory::ContextSwitch),
              0u);
    EXPECT_GT(m.cycleLedger().total(), before);
    EXPECT_EQ(m.stats().value("hot.flushes"), 1u);

    // The two processes have independent Memento spaces.
    Addr other = m.allocator().malloc(64, m);
    m.switchTo(p0);
    Addr mine = m.allocator().malloc(64, m);
    EXPECT_NE(other, kNullAddr);
    EXPECT_NE(mine, kNullAddr);
}

TEST(MachineTest, SwitchToSameProcessIsFree)
{
    Machine m(test::smallConfig());
    unsigned p0 = m.createProcess(tinySpec(Language::Cpp));
    const Cycles before = m.cycleLedger().total();
    m.switchTo(p0);
    EXPECT_EQ(m.cycleLedger().total(), before);
}

// ---------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------

TEST(ExecutorTest, RunsTraceToCompletion)
{
    WorkloadSpec spec = tinySpec(Language::Python);
    const Trace trace = TraceGenerator(spec).generate();
    Machine m(test::smallConfig());
    m.createProcess(spec);
    FunctionExecutor ex(m);
    ex.run(spec, trace);
    EXPECT_EQ(ex.liveObjects(), 0u);
    EXPECT_EQ(m.allocator().liveBytes(), 0u);
    EXPECT_GT(m.cycleLedger().total(), 0u);
}

TEST(ExecutorTest, RpcChargedWhenEnabled)
{
    WorkloadSpec spec = tinySpec(Language::Cpp, 10);
    const Trace trace = TraceGenerator(spec).generate();
    Machine m(test::smallConfig());
    m.createProcess(spec);
    FunctionExecutor ex(m);
    ex.run(spec, trace);
    EXPECT_GT(m.cycleLedger().category(CycleCategory::Rpc), 0u);

    // A workload without RPC says so with rpcBytes = 0.
    spec.rpcBytes = 0;
    Machine m2(test::smallConfig());
    m2.createProcess(spec);
    FunctionExecutor ex2(m2);
    ex2.run(spec, trace);
    EXPECT_EQ(m2.cycleLedger().category(CycleCategory::Rpc), 0u);
}

TEST(ExecutorTest, ColdStartAddsContainerSetup)
{
    WorkloadSpec spec = tinySpec(Language::Cpp, 10);
    const Trace trace = TraceGenerator(spec).generate();

    Machine warm(test::smallConfig());
    warm.createProcess(spec);
    FunctionExecutor we(warm);
    we.run(spec, trace);

    Machine cold(test::smallConfig());
    cold.createProcess(spec);
    FunctionExecutor ce(cold);
    RunOptions opts;
    opts.coldStart = true;
    ce.run(spec, trace, opts);

    EXPECT_GT(cold.cycleLedger().total(), warm.cycleLedger().total());
    EXPECT_GT(cold.cycleLedger().category(CycleCategory::KernelOther),
              warm.cycleLedger().category(CycleCategory::KernelOther));
}

TEST(ExecutorTest, RunRangeInterleavesAcrossProcesses)
{
    WorkloadSpec spec = tinySpec(Language::Python, 200);
    const Trace trace = TraceGenerator(spec).generate();
    Machine m(test::smallMementoConfig());
    unsigned p0 = m.createProcess(spec);
    unsigned p1 = m.createProcess(spec);
    FunctionExecutor e0(m), e1(m);

    std::size_t half = trace.size() / 2;
    m.switchTo(p0);
    e0.runRange(spec, trace, 0, half);
    m.switchTo(p1);
    e1.runRange(spec, trace, 0, half);
    m.switchTo(p0);
    e0.runRange(spec, trace, half, trace.size());
    m.switchTo(p1);
    e1.runRange(spec, trace, half, trace.size());

    EXPECT_EQ(e0.liveObjects(), 0u);
    EXPECT_EQ(e1.liveObjects(), 0u);
}

TEST(ExecutorTest, StaticOffsetsWrapAtTheWorkingSet)
{
    // Generated offsets stay below staticWsBytes; a handwritten trace's
    // larger ones must wrap exactly as the plain remainder does.
    WorkloadSpec spec = tinySpec(Language::Cpp);
    spec.rpcBytes = 0;
    const std::uint64_t ws = spec.staticWsBytes;
    const std::uint64_t raw[] = {ws, ws + 64, kTraceFieldMax};
    auto replay = [&](bool reduced) {
        Trace trace;
        for (std::uint64_t off : raw) {
            const auto o =
                static_cast<std::uint32_t>(reduced ? off % ws : off);
            trace.push_back({OpKind::StaticLoad, 0, 0, o});
            trace.push_back({OpKind::StaticStore, 0, 0, o});
        }
        trace.push_back({OpKind::FunctionEnd, 0, 0, 0});
        Machine m(test::smallConfig());
        m.createProcess(spec);
        FunctionExecutor(m).run(spec, trace);
        return std::array<std::uint64_t, 3>{m.cycleLedger().total(),
                                            m.stats().value("l1d.hits"),
                                            m.stats().value("l1d.misses")};
    };
    const auto wrapped = replay(false);
    EXPECT_EQ(wrapped, replay(true));
    EXPECT_GT(wrapped[1], 0u); // Each store hits its load's line.
}

TEST(ExecutorTest, FragSampleCapturedBeforeTeardown)
{
    WorkloadSpec spec = tinySpec(Language::Python);
    spec.lifetime.pShort = 0.5; // Leave some live objects at exit.
    const Trace trace = TraceGenerator(spec).generate();
    Machine m(test::smallConfig());
    m.createProcess(spec);
    FunctionExecutor ex(m);
    ex.run(spec, trace);
    EXPECT_GT(ex.fragSample(), 0.0);
    EXPECT_LT(ex.fragSample(), 1.0);
}

} // namespace
} // namespace memento
