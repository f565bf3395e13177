/**
 * @file
 * Tests for the figure registry (an/figures.h): the registry's ids,
 * that a data entry's row k-th run is the run of its k-th config, cell
 * deduplication across entries, and that a deduplicated cell reports
 * exactly what a direct Experiment::runOne gives.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "an/figures.h"
#include "an/report.h"
#include "machine/experiment.h"
#include "machine/sweep.h"
#include "sim/error.h"
#include "test_util.h"
#include "wl/trace_generator.h"
#include "wl/workloads.h"

namespace memento {
namespace {

/** Workload @p id shrunk so each run takes milliseconds. */
WorkloadSpec
tinySpec(const std::string &id = "html")
{
    WorkloadSpec s = workloadById(id);
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

/** Every row the test entries' footers were handed, in render order. */
std::vector<FigureRow> &
rendered()
{
    static std::vector<FigureRow> rows;
    return rows;
}

void
capture(const std::vector<FigureRow> &rows, std::ostream &)
{
    rendered().insert(rendered().end(), rows.begin(), rows.end());
}

std::string
cyclesCell(const FigureRow &row)
{
    return std::to_string(row.runs[0].cycles);
}

std::vector<MachineConfig>
threeConfigs()
{
    return {test::smallConfig(), test::smallMementoConfig(),
            noBypassConfig()};
}

// A 2-row x 3-config table.
std::vector<FigureRow>
rowsGrid()
{
    return {{tinySpec("html"), threeConfigs(), {}},
            {tinySpec("aes"), threeConfigs(), {}}};
}

// Two entries that share the Memento cell.
std::vector<FigureRow>
rowsA()
{
    return {{tinySpec(),
             {test::smallConfig(), test::smallMementoConfig()},
             {}}};
}

std::vector<FigureRow>
rowsB()
{
    return {{tinySpec(), {test::smallMementoConfig(), noBypassConfig()}, {}}};
}

std::vector<FigureRow>
rowsFaulted()
{
    MachineConfig cfg = test::smallMementoConfig();
    cfg.inject.traceCorruptAt = 120;
    cfg.inject.workload = "html";
    return {{tinySpec(), {cfg}, {}}};
}

const Figure kGrid{.id = "grid", .title = "Grid", .rows = rowsGrid,
                   .footer = capture, .columns = {{"cycles", cyclesCell}}};
const Figure kFigA{.id = "a", .title = "A", .rows = rowsA, .footer = capture};
const Figure kFigB{.id = "b", .title = "B", .rows = rowsB, .footer = capture};
const Figure kFigFaulted{.id = "faulted", .title = "Faulted",
                         .rows = rowsFaulted, .footer = capture};

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
        // A code entry renders itself; a data entry is rows and columns.
        if (fig.render == nullptr) {
            EXPECT_NE(fig.rows, nullptr) << fig.id;
            EXPECT_FALSE(fig.columns.empty()) << fig.id;
        } else {
            EXPECT_TRUE(fig.columns.empty()) << fig.id;
            EXPECT_EQ(fig.footer, nullptr) << fig.id;
        }
    }
    EXPECT_EQ(ids, expected);
    EXPECT_EQ(allFigures().size(), 21u);
    EXPECT_EQ(findFigure("bench"), nullptr);
}

TEST(Figures, RowRunsAreTheRunsOfItsConfigs)
{
    const std::vector<FigureRow> grid = rowsGrid();
    for (unsigned jobs : {1u, 3u}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        rendered().clear();
        SweepOptions so;
        so.jobs = jobs;
        SweepEngine engine(so);
        std::ostringstream os;
        runFigures({&kGrid}, engine, os);

        ASSERT_EQ(rendered().size(), grid.size());
        // The generic renderer: title, then Workload and the columns.
        TextTable table({"Workload", "cycles"});
        std::ostringstream want;
        want << "=== Grid ===\n\n";
        for (const FigureRow &row : rendered())
            table.row({row.spec.id, cyclesCell(row)});
        table.print(want);
        EXPECT_EQ(os.str(), want.str());

        for (std::size_t i = 0; i < grid.size(); ++i) {
            const FigureRow &row = rendered()[i];
            EXPECT_EQ(row.spec.id, grid[i].spec.id);
            const Trace trace = TraceGenerator(grid[i].spec).generate();
            ASSERT_EQ(row.runs.size(), grid[i].configs.size());
            for (std::size_t k = 0; k < row.runs.size(); ++k) {
                EXPECT_EQ(row.runs[k],
                          Experiment::runOne(grid[i].spec, trace,
                                             grid[i].configs[k]))
                    << "row " << i << " config " << k;
            }
        }
    }
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
        ASSERT_EQ(rendered().size(), 2u);
        ASSERT_EQ(rendered()[0].runs.size(), 2u);
        ASSERT_EQ(rendered()[1].runs.size(), 2u);
        EXPECT_EQ(rendered()[0].runs[1], rendered()[1].runs[0]);
        EXPECT_NE(rendered()[0].runs[0].cycles,
                  rendered()[0].runs[1].cycles);
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
    ASSERT_EQ(rendered().size(), 2u);
    EXPECT_EQ(rendered()[0].runs,
              (std::vector<RunResult>{base, memento}));
    EXPECT_EQ(rendered()[1].runs,
              (std::vector<RunResult>{memento, no_bypass}));
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
