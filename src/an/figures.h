/**
 * @file
 * The paper's evidence as one registry. Every figure, table and study
 * (Figs. 2-3 and 8-14, Tables 1-3, the §6.1/§6.6/§6.7 studies and the
 * design ablations) is an entry with a stable id and a title.
 *
 * A data entry is a per-workload table: its rows (each a workload and
 * the configs it runs), its columns (each a header and a function of
 * one row) and a footer over all rows. One renderer prints every data
 * entry. A code entry is a render function, for what is not such a
 * table: the trace profiles, the configuration, the multi-process
 * mixes and the ablation.
 *
 * runFigures() derives the selected entries' cells as rows x configs,
 * row-major, runs each distinct cell once through one SweepEngine
 * (deduplicated by cellIdentity(), the result store's notion of "the
 * same cell") and hands each row its own runs. Every cell is a pure
 * function of its identity, so the output is byte-identical at any
 * --jobs level and to running each entry on its own.
 */

#ifndef MEMENTO_AN_FIGURES_H
#define MEMENTO_AN_FIGURES_H

#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "an/lifetime.h"
#include "machine/experiment.h"
#include "machine/sweep.h"

namespace memento {

/** One row of an entry: a workload and the configs it runs. */
struct FigureRow
{
    WorkloadSpec spec;
    std::vector<MachineConfig> configs;
    /** runs[k] is the run of configs[k]; filled in by runFigures(). */
    std::vector<RunResult> runs;
};

/** One column of a data entry. */
struct FigureColumn
{
    std::string_view header;
    std::string (*cell)(const FigureRow &row);
};

/** allWorkloads()' trace profiles, in order; computed on first call. */
using FigureProfiles = std::function<const std::vector<TraceProfile> &()>;

/** One registry entry: a code entry when render is set, else data. */
struct Figure
{
    /** Stable id, e.g. "fig08_speedup". */
    std::string_view id;
    /** Printed as "=== <title> ===" above the entry. */
    std::string_view title;
    /** The entry's rows, without runs; null when it runs no cells. */
    std::vector<FigureRow> (*rows)() = nullptr;
    /** Options of every run of the entry. */
    RunOptions opts = {};
    /** Data entry: the lines after the table; null for none. */
    void (*footer)(const std::vector<FigureRow> &rows,
                   std::ostream &os) = nullptr;
    /** Data entry: the columns after Workload. */
    std::vector<FigureColumn> columns = {};
    /**
     * Code entry: prints everything below the title from the entry's
     * rows (with their runs), the trace profiles and the engine.
     */
    void (*render)(const std::vector<FigureRow> &rows,
                   const FigureProfiles &profiles, SweepEngine &engine,
                   std::ostream &os) = nullptr;
};

/** The registry, in render order. */
const std::vector<Figure> &allFigures();

/** Registry lookup; nullptr when @p id is unknown. */
const Figure *findFigure(std::string_view id);

/**
 * Run the union of @p figs' cells once on @p engine, deduplicated by
 * cell identity, then render each entry to @p os in the given order.
 * Throws SimError with the first failed cell's category and message.
 */
void runFigures(const std::vector<const Figure *> &figs,
                SweepEngine &engine, std::ostream &os);

} // namespace memento

#endif // MEMENTO_AN_FIGURES_H
