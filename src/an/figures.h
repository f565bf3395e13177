/**
 * @file
 * The paper's evidence as one registry. Every figure, table and study
 * (Figs. 2-3 and 8-14, Tables 1-3, the §6.1/§6.6/§6.7 studies and the
 * design ablations) is an entry that names the sweep cells it needs
 * and renders them to a stream.
 *
 * runFigures() takes the union of the selected entries' cells,
 * deduplicates it by cellIdentity() (the result store's notion of "the
 * same cell"), runs each distinct cell once through one SweepEngine,
 * and renders the entries in the order given. Every cell is a pure
 * function of its identity, so the output is byte-identical at any
 * --jobs level and to running each entry on its own.
 */

#ifndef MEMENTO_AN_FIGURES_H
#define MEMENTO_AN_FIGURES_H

#include <ostream>
#include <string_view>
#include <vector>

#include "an/lifetime.h"
#include "machine/experiment.h"
#include "machine/sweep.h"

namespace memento {

/** What an entry's render function reads. */
struct FigureInput
{
    /** Results of the entry's cells, in the order cells() lists them. */
    std::vector<RunResult> runs;
    /**
     * Trace profile of every workload in allWorkloads() order; filled
     * only for entries with Figure::needsProfiles.
     */
    std::vector<TraceProfile> profiles;
};

/** One registry entry. */
struct Figure
{
    /** Stable id, e.g. "fig08_speedup". */
    std::string_view id;
    /** The sweep cells the entry needs (none for trace-only entries). */
    std::vector<SweepTask> (*cells)();
    /** The entry reads FigureInput::profiles. */
    bool needsProfiles;
    /** Write the entry's report; pure in its input. */
    void (*render)(const FigureInput &in, std::ostream &os);
    /**
     * Replaces cells/render for an experiment that is not a set of
     * single-run cells (sens_multiproc's time-shared mixes). Draws
     * traces from the engine's cache and fans its trials over the
     * engine's worker count. Null for every other entry.
     */
    void (*runCustom)(SweepEngine &engine, std::ostream &os) = nullptr;
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
