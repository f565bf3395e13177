/**
 * @file
 * Quickstart: run one serverless function (SeBS dynamic-html) on the
 * baseline machine and on Memento, and print the headline numbers.
 *
 * This is the 60-second tour of the public API:
 *   1. pick a workload spec (wl/workloads.h),
 *   2. synthesize its trace (wl/trace_generator.h),
 *   3. run it on machines via Experiment (machine/experiment.h),
 *   4. read speedup / traffic / HOT behaviour off the Comparison.
 */

#include <iostream>

#include "an/report.h"
#include "machine/breakdown.h"
#include "machine/experiment.h"
#include "wl/workloads.h"

using namespace memento;

int
main()
{
    const WorkloadSpec &spec = workloadById("html");
    std::cout << "Workload: " << spec.id << " (" << spec.description
              << ", " << languageName(spec.lang) << ")\n\n";

    Comparison cmp = Experiment::compareDefault(spec);
    const Breakdown bd = computeBreakdown(cmp);

    const MachineConfig cfg = defaultConfig();
    TextTable t({"Metric", "Baseline", "Memento"});
    t.newRow();
    t.cell("cycles");
    t.cell(cmp.base.cycles);
    t.cell(cmp.memento.cycles);
    t.newRow();
    t.cell("execution (ms)");
    t.cell(cmp.base.executionMs(cfg), 3);
    t.cell(cmp.memento.executionMs(cfg), 3);
    t.newRow();
    t.cell("DRAM traffic (KB)");
    t.cell(cmp.base.dramBytes() >> 10);
    t.cell(cmp.memento.dramBytes() >> 10);
    t.newRow();
    t.cell("page faults");
    t.cell(cmp.base.pageFaults());
    t.cell(cmp.memento.pageFaults());
    t.print(std::cout);

    std::cout << "\nSpeedup:              " << cmp.speedup() << "x\n";
    std::cout << "Bandwidth reduction:  "
              << percentStr(cmp.bandwidthReduction()) << "\n";
    std::cout << "HOT alloc hit rate:   "
              << percentStr(
                     static_cast<double>(cmp.memento.hotAllocHits()) /
                     (cmp.memento.hotAllocHits() +
                      cmp.memento.hotAllocMisses()))
              << "\n";
    std::cout << "Gains breakdown:      alloc "
              << percentStr(bd.objAlloc) << ", free "
              << percentStr(bd.objFree) << ", page "
              << percentStr(bd.pageMgmt) << ", bypass "
              << percentStr(bd.bypass) << "\n";
    return 0;
}
