/**
 * @file
 * Domain example: bring your own workload.
 *
 * Shows the full user-facing pipeline for a workload that is not part
 * of the paper's suite: define a WorkloadSpec from profiled statistics
 * (size mixture, lifetime, allocation intensity), synthesize its
 * trace, persist it with the record/replay format, and evaluate the
 * baseline-vs-Memento question for it.
 */

#include <fstream>
#include <iostream>
#include <sstream>

#include "an/lifetime.h"
#include "an/report.h"
#include "machine/breakdown.h"
#include "machine/experiment.h"
#include "wl/trace.h"
#include "wl/trace_generator.h"

using namespace memento;

int
main()
{
    // A hypothetical thumbnailing function: bursts of mid-sized pixel
    // row buffers, a few large scratch planes, modest compute.
    WorkloadSpec spec;
    spec.id = "thumbnail";
    spec.description = "custom image-thumbnail function";
    spec.lang = Language::Cpp;
    spec.domain = Domain::Function;
    spec.numAllocs = 50'000;
    spec.sizeDist = SizeDistribution(
        {SizeBucket{0.5, 64, 256}, SizeBucket{0.5, 257, 512}});
    spec.largeDist = SizeDistribution({SizeBucket{1.0, 4096, 65536}});
    spec.lifetime = {.pShort = 0.9, .meanShortDistance = 3.0,
                     .pLongFreed = 0.05, .meanLongDistance = 400.0};
    spec.pLarge = 0.01;
    spec.computePerAlloc = 400;
    spec.touchStores = 4;
    spec.touchLoads = 2;
    spec.staticWsBytes = 1 << 20;
    spec.rpcBytes = 64 << 10; // Ships the image in and out.
    spec.seed = 20260706;

    // Synthesize and persist the trace (record/replay round trip).
    const Trace trace = TraceGenerator(spec).generate();
    {
        std::ofstream out("thumbnail.trace");
        writeTrace(trace, out);
    }
    std::ifstream in("thumbnail.trace");
    const Trace replayed = readTrace(in);
    std::cout << "Trace round trip: " << trace.size() << " ops, replay "
              << (replayed == trace ? "matches" : "DIFFERS") << "\n";

    // Characterize it the way Fig. 2/3 do.
    const TraceProfile profile = profileTrace(replayed);
    std::cout << "Profile: " << profile.allocations << " allocations, "
              << percentStr(profile.sizeHist.percent(0) / 100.0)
              << " below 512B, "
              << percentStr(profile.lifetimeHist.percent(0) / 100.0)
              << " freed within 16 same-class allocations, MallocPKI "
              << profile.mallocPki << "\n\n";

    // Evaluate.
    Comparison cmp = Experiment::compareDefault(spec);
    Breakdown bd = computeBreakdown(cmp);
    TextTable t({"Metric", "Baseline", "Memento"});
    t.newRow();
    t.cell("cycles");
    t.cell(cmp.base.cycles);
    t.cell(cmp.memento.cycles);
    t.newRow();
    t.cell("DRAM KB");
    t.cell(cmp.base.dramBytes() >> 10);
    t.cell(cmp.memento.dramBytes() >> 10);
    t.newRow();
    t.cell("page faults");
    t.cell(cmp.base.pageFaults());
    t.cell(cmp.memento.pageFaults());
    t.print(std::cout);

    std::cout << "\nSpeedup " << cmp.speedup() << "x; gains: alloc "
              << percentStr(bd.objAlloc) << ", free "
              << percentStr(bd.objFree) << ", page "
              << percentStr(bd.pageMgmt) << ", bypass "
              << percentStr(bd.bypass) << "\n";
    return 0;
}
