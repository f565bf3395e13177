/**
 * @file
 * Tests for the figure registry (an/figures.h): the registry's ids,
 * cell deduplication across entries, and that a deduplicated cell
 * reports exactly what a direct Experiment::runOne gives.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "an/figures.h"
#include "machine/experiment.h"
#include "machine/sweep.h"
#include "sim/error.h"
#include "test_util.h"
#include "wl/trace_generator.h"
#include "wl/workloads.h"

namespace memento {
namespace {

/** html shrunk so each run takes milliseconds. */
WorkloadSpec
tinySpec()
{
    WorkloadSpec s = workloadById("html");
    s.numAllocs = 2000;
    s.staticWsBytes = 64 << 10;
    s.rpcBytes = 4 << 10;
    return s;
}

MachineConfig
noBypassConfig()
{
    MachineConfig cfg = test::smallMementoConfig();
    cfg.memento.bypassEnabled = false;
    return cfg;
}

/** Every RunResult the test renders were handed, in render order. */
std::vector<RunResult> &
rendered()
{
    static std::vector<RunResult> runs;
    return runs;
}

void
capture(const FigureInput &in, std::ostream &os)
{
    for (const RunResult &r : in.runs) {
        rendered().push_back(r);
        os << r.workload << ' ' << r.cycles << '\n';
    }
}

// Two entries that share the Memento cell.
std::vector<SweepTask>
cellsA()
{
    return {{tinySpec(), test::smallConfig(), {}, nullptr, {}},
            {tinySpec(), test::smallMementoConfig(), {}, nullptr, {}}};
}

std::vector<SweepTask>
cellsB()
{
    return {{tinySpec(), test::smallMementoConfig(), {}, nullptr, {}},
            {tinySpec(), noBypassConfig(), {}, nullptr, {}}};
}

std::vector<SweepTask>
cellsFaulted()
{
    MachineConfig cfg = test::smallMementoConfig();
    cfg.inject.traceCorruptAt = 120;
    cfg.inject.workload = "html";
    return {{tinySpec(), cfg, {}, nullptr, {}}};
}

const Figure kFigA{"a", cellsA, false, capture};
const Figure kFigB{"b", cellsB, false, capture};
const Figure kFigFaulted{"faulted", cellsFaulted, false, capture};

TEST(Figures, RegistryIdsAreTheFormerBinaries)
{
    const std::set<std::string> expected = {
        "fig02_alloc_size", "fig03_lifetime", "tab01_joint",
        "tab02_cycles", "tab03_config", "fig08_speedup",
        "fig09_breakdown", "fig10_bandwidth", "fig11_memusage",
        "fig12_hot_hitrate", "fig13_arena_list_ops", "fig14_pricing",
        "sens_iso_storage", "sens_populate", "sens_multiproc",
        "sens_thp", "sens_tuning", "sens_fragmentation",
        "sens_coldstart", "comp_mallacc", "abl_design"};
    std::set<std::string> ids;
    for (const Figure &fig : allFigures()) {
        EXPECT_TRUE(ids.insert(std::string(fig.id)).second)
            << "duplicate id " << fig.id;
        EXPECT_EQ(findFigure(fig.id), &fig);
        // Exactly one of render / runCustom drives each entry.
        EXPECT_NE(fig.render == nullptr, fig.runCustom == nullptr)
            << fig.id;
    }
    EXPECT_EQ(ids, expected);
    EXPECT_EQ(allFigures().size(), 21u);
    EXPECT_EQ(findFigure("bench"), nullptr);
}

TEST(Figures, SharedCellReachesTheEngineOnce)
{
    for (unsigned jobs : {1u, 3u}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        rendered().clear();
        std::size_t starts = 0;
        SweepOptions so;
        so.jobs = jobs;
        so.onTaskStart = [&](const SweepTask &, std::size_t) { ++starts; };
        SweepEngine engine(so);
        std::ostringstream os;
        runFigures({&kFigA, &kFigB}, engine, os);

        // Four requested cells, three distinct: the Memento cell runs
        // once and both entries see its result.
        EXPECT_EQ(starts, 3u);
        EXPECT_EQ(engine.traceCache().generations(), 1u);
        ASSERT_EQ(rendered().size(), 4u);
        EXPECT_EQ(rendered()[1], rendered()[2]);
        EXPECT_NE(rendered()[0].cycles, rendered()[1].cycles);
    }
}

TEST(Figures, DedupedCellEqualsRunOne)
{
    rendered().clear();
    SweepOptions so;
    so.jobs = 2;
    SweepEngine engine(so);
    std::ostringstream os;
    runFigures({&kFigA, &kFigB}, engine, os);

    const WorkloadSpec spec = tinySpec();
    const Trace trace = TraceGenerator(spec).generate();
    const RunResult base =
        Experiment::runOne(spec, trace, test::smallConfig());
    const RunResult memento =
        Experiment::runOne(spec, trace, test::smallMementoConfig());
    const RunResult no_bypass =
        Experiment::runOne(spec, trace, noBypassConfig());
    ASSERT_EQ(rendered().size(), 4u);
    EXPECT_EQ(rendered()[0], base);
    EXPECT_EQ(rendered()[1], memento);
    EXPECT_EQ(rendered()[2], memento);
    EXPECT_EQ(rendered()[3], no_bypass);
}

TEST(Figures, FailedCellThrowsWithItsCategory)
{
    SweepEngine engine(SweepOptions{});
    std::ostringstream os;
    try {
        runFigures({&kFigA, &kFigFaulted}, engine, os);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::Trace);
        EXPECT_NE(std::string(e.what()).find("html"), std::string::npos);
    }
    EXPECT_TRUE(os.str().empty());
}

} // namespace
} // namespace memento
