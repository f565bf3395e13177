/**
 * @file
 * Deterministic fault-injection tests: every inject.* fault, and every
 * allocator tuning value a model cannot use, must surface as a
 * structured, recoverable SimError captured by the fault-tolerant
 * runner (Experiment::tryRunOne), never as an abort, and a plan scoped
 * to another workload must leave the run untouched.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "machine/experiment.h"
#include "sa/trace_check.h"
#include "sim/config.h"
#include "sim/config_file.h"
#include "sim/error.h"
#include "test_util.h"
#include "wl/trace_generator.h"

namespace memento {
namespace {

WorkloadSpec
tinySpec(Language lang, const std::string &id = "tiny")
{
    WorkloadSpec spec;
    spec.id = id;
    spec.lang = lang;
    spec.numAllocs = 400;
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

// ---------------------------------------------------------------------
// Fault matrix: each armed inject.* key yields its expected category.
// ---------------------------------------------------------------------

struct FaultCase
{
    const char *name;
    bool memento; ///< Memento config + Python, else baseline + C++.
    std::uint64_t FaultPlan::*field;
    std::uint64_t at;
    std::uint64_t checkInterval; ///< Armed for corruption detection.
    ErrorCategory expected;
    const char *substr;
};

// gtest would otherwise dump the raw bytes, pointers included, into the
// listed test name, so the name would change with the binary's layout.
void
PrintTo(const FaultCase &fc, std::ostream *os)
{
    *os << fc.name;
}

constexpr FaultCase kFaultCases[] = {
    {"PoolExhaust", true, &FaultPlan::poolExhaustAtPage, 4, 0,
     ErrorCategory::OutOfMemory, "pool exhausted"},
    {"MmapFail", false, &FaultPlan::mmapFailAt, 2, 0,
     ErrorCategory::OutOfMemory, "mmap failed"},
    {"TraceTruncate", false, &FaultPlan::traceTruncateAt, 50, 0,
     ErrorCategory::Trace, "truncated"},
    {"TraceCorrupt", false, &FaultPlan::traceCorruptAt, 20, 0,
     ErrorCategory::Trace, "unknown object"},
    {"ArenaBitFlip", true, &FaultPlan::arenaBitFlipAt, 10, 1,
     ErrorCategory::Corruption, "invariant check failed"},
};

class FaultMatrixTest : public ::testing::TestWithParam<FaultCase>
{
};

TEST_P(FaultMatrixTest, CapturedAsStructuredFailure)
{
    const FaultCase &fc = GetParam();
    const WorkloadSpec spec =
        tinySpec(fc.memento ? Language::Python : Language::Cpp);
    const Trace trace = TraceGenerator(spec).generate();
    MachineConfig cfg =
        fc.memento ? test::smallMementoConfig() : test::smallConfig();
    cfg.inject.*fc.field = fc.at;
    cfg.check.interval = fc.checkInterval;

    const RunResult res = Experiment::tryRunOne(spec, trace, cfg);
    ASSERT_TRUE(res.failed());
    EXPECT_EQ(res.error->category, fc.expected) << res.error->message;
    EXPECT_NE(res.error->message.find(fc.substr), std::string::npos)
        << res.error->message;
}

INSTANTIATE_TEST_SUITE_P(
    Faults, FaultMatrixTest, ::testing::ValuesIn(kFaultCases),
    [](const ::testing::TestParamInfo<FaultCase> &info) {
        return std::string(info.param.name);
    });

// ---------------------------------------------------------------------
// Failure localisation and partial metrics
// ---------------------------------------------------------------------

TEST(FaultInjectionTest, TraceCorruptionTagsOffendingOp)
{
    const WorkloadSpec spec = tinySpec(Language::Cpp);
    const Trace trace = TraceGenerator(spec).generate();
    MachineConfig cfg = test::smallConfig();
    cfg.inject.traceCorruptAt = 20; // 1-based op 20 = index 19.

    const RunResult res = Experiment::tryRunOne(spec, trace, cfg);
    ASSERT_TRUE(res.failed());
    ASSERT_TRUE(res.error->hasOpIndex());
    EXPECT_EQ(res.error->opIndex, 19u);
    // The partial window up to the fault is still reported.
    EXPECT_GT(res.cycles, 0u);
}

TEST(FaultInjectionTest, CorruptRecordFreesAnIdNoMallocUses)
{
    const WorkloadSpec spec = tinySpec(Language::Cpp);
    const Trace trace = TraceGenerator(spec).generate();
    for (const TraceOp &op : trace) {
        if (op.kind == OpKind::Malloc) {
            ASSERT_NE(op.objId, kCorruptObjId);
        }
    }
    MachineConfig cfg = test::smallConfig();
    cfg.inject.traceCorruptAt = 20;

    // The static image of the plan and the executor corrupt the same
    // record into the same free.
    const Trace corrupted =
        applyTraceFaultPlan(trace, cfg.inject, spec.id);
    EXPECT_EQ(corrupted[19].kind, OpKind::Free);
    EXPECT_EQ(corrupted[19].objId, kCorruptObjId);

    const RunResult res = Experiment::tryRunOne(spec, trace, cfg);
    ASSERT_TRUE(res.failed());
    EXPECT_EQ(res.error->category, ErrorCategory::Trace);
    EXPECT_EQ(res.error->opIndex, 19u);
    EXPECT_NE(res.error->message.find("free of unknown object " +
                                      std::to_string(kCorruptObjId)),
              std::string::npos)
        << res.error->message;
}

TEST(FaultInjectionTest, SetupFailureCapturedWithoutMetrics)
{
    const WorkloadSpec spec = tinySpec(Language::Python);
    const Trace trace = TraceGenerator(spec).generate();
    MachineConfig cfg = test::smallMementoConfig();
    cfg.inject.poolExhaustAtPage = 1; // Fires creating the process.

    const RunResult res = Experiment::tryRunOne(spec, trace, cfg);
    ASSERT_TRUE(res.failed());
    EXPECT_EQ(res.error->category, ErrorCategory::OutOfMemory);
    EXPECT_FALSE(res.error->hasOpIndex());
}

TEST(FaultInjectionTest, RunOneThrowsWhatTryRunOneCaptures)
{
    const WorkloadSpec spec = tinySpec(Language::Cpp);
    const Trace trace = TraceGenerator(spec).generate();
    MachineConfig cfg = test::smallConfig();
    cfg.inject.traceCorruptAt = 20;

    try {
        Experiment::runOne(spec, trace, cfg);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::Trace);
        EXPECT_EQ(e.opIndex(), 19u);
    }
}

// ---------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------

TEST(WatchdogTest, OpBudgetExceededRaisesTimeout)
{
    const WorkloadSpec spec = tinySpec(Language::Cpp);
    const Trace trace = TraceGenerator(spec).generate();
    MachineConfig cfg = test::smallConfig();
    cfg.check.maxOps = 10;

    const RunResult res = Experiment::tryRunOne(spec, trace, cfg);
    ASSERT_TRUE(res.failed());
    EXPECT_EQ(res.error->category, ErrorCategory::Timeout);
    EXPECT_NE(res.error->message.find("watchdog"), std::string::npos);
    EXPECT_EQ(res.error->opIndex, 10u);
}

TEST(WatchdogTest, CycleBudgetExceededRaisesTimeout)
{
    const WorkloadSpec spec = tinySpec(Language::Cpp);
    const Trace trace = TraceGenerator(spec).generate();
    MachineConfig cfg = test::smallConfig();
    cfg.check.maxCycles = 100; // Exhausted within the first few ops.

    const RunResult res = Experiment::tryRunOne(spec, trace, cfg);
    ASSERT_TRUE(res.failed());
    EXPECT_EQ(res.error->category, ErrorCategory::Timeout);
}

// ---------------------------------------------------------------------
// Workload scoping and sweep isolation
// ---------------------------------------------------------------------

TEST(FaultInjectionTest, PlanScopedToOtherWorkloadIsStripped)
{
    const WorkloadSpec spec = tinySpec(Language::Python);
    const Trace trace = TraceGenerator(spec).generate();
    MachineConfig cfg = test::smallMementoConfig();
    cfg.inject.traceCorruptAt = 20;
    cfg.inject.workload = "other"; // Not this run's workload.

    const RunResult res = Experiment::tryRunOne(spec, trace, cfg);
    EXPECT_FALSE(res.failed()) << res.error->message;
    EXPECT_GT(res.cycles, 0u);
}

TEST(FaultInjectionTest, PlanScopedToMatchingWorkloadApplies)
{
    const WorkloadSpec spec = tinySpec(Language::Python);
    const Trace trace = TraceGenerator(spec).generate();
    MachineConfig cfg = test::smallMementoConfig();
    cfg.inject.traceCorruptAt = 20;
    cfg.inject.workload = spec.id;

    const RunResult res = Experiment::tryRunOne(spec, trace, cfg);
    ASSERT_TRUE(res.failed());
    EXPECT_EQ(res.error->category, ErrorCategory::Trace);
}

TEST(FaultInjectionTest, SweepIsolatesFailureToTargetedWorkload)
{
    // A keep-going sweep with a plan targeting one workload must finish
    // the others cleanly and report exactly one structured failure.
    MachineConfig cfg = test::smallMementoConfig();
    cfg.inject.traceCorruptAt = 20;
    cfg.inject.workload = "tiny-b";

    unsigned failures = 0;
    for (const char *id : {"tiny-a", "tiny-b", "tiny-c"}) {
        const WorkloadSpec spec = tinySpec(Language::Python, id);
        const Trace trace = TraceGenerator(spec).generate();
        const RunResult res = Experiment::tryRunOne(spec, trace, cfg);
        if (res.failed()) {
            ++failures;
            EXPECT_EQ(spec.id, "tiny-b");
            EXPECT_EQ(res.error->category, ErrorCategory::Trace);
            EXPECT_EQ(res.error->opIndex, 19u);
        } else {
            EXPECT_GT(res.cycles, 0u);
        }
    }
    EXPECT_EQ(failures, 1u);
}

// ---------------------------------------------------------------------
// Healthy runs under the checking machinery
// ---------------------------------------------------------------------

TEST(FaultInjectionTest, PeriodicChecksPassOnHealthyRun)
{
    const WorkloadSpec spec = tinySpec(Language::Python);
    const Trace trace = TraceGenerator(spec).generate();
    MachineConfig cfg = test::smallMementoConfig();
    cfg.check.interval = 64;

    const RunResult res = Experiment::tryRunOne(spec, trace, cfg);
    EXPECT_FALSE(res.failed()) << res.error->message;
}

// ---------------------------------------------------------------------
// Allocator tuning values the models cannot use
// ---------------------------------------------------------------------

/** Run a tiny @p lang workload with @p key set to @p value. */
RunResult
runWithTuning(Language lang, const std::string &key,
              const std::string &value)
{
    const WorkloadSpec spec = tinySpec(lang);
    MachineConfig cfg = test::smallConfig();
    applyConfigOption(key, value, cfg);
    return Experiment::tryRunOne(spec, TraceGenerator(spec).generate(),
                                 cfg);
}

TEST(FaultInjectionTest, PymallocArenaOffThePoolSizeIsAConfigFailure)
{
    const RunResult res =
        runWithTuning(Language::Python, "tuning.pymalloc_arena", "6000");
    ASSERT_TRUE(res.failed());
    EXPECT_EQ(res.error->category, ErrorCategory::Config);
    EXPECT_NE(res.error->message.find("tuning.pymalloc_arena"),
              std::string::npos)
        << res.error->message;
    EXPECT_FALSE(
        runWithTuning(Language::Python, "tuning.pymalloc_arena", "8192")
            .failed());
}

TEST(FaultInjectionTest, JemallocChunkOffTheSlabSizeIsAConfigFailure)
{
    const RunResult res =
        runWithTuning(Language::Cpp, "tuning.jemalloc_chunk", "20480");
    ASSERT_TRUE(res.failed());
    EXPECT_EQ(res.error->category, ErrorCategory::Config);
    EXPECT_NE(res.error->message.find("tuning.jemalloc_chunk"),
              std::string::npos)
        << res.error->message;
    EXPECT_FALSE(
        runWithTuning(Language::Cpp, "tuning.jemalloc_chunk", "32768")
            .failed());
}

} // namespace
} // namespace memento
