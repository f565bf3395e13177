/**
 * @file
 * Domain example: anatomy of one serverless function invocation.
 *
 * Runs the pyaes function workload end to end on the baseline and the
 * Memento machine and dissects where the cycles go per CycleCategory,
 * what the memory system did, and what the invocation would be billed
 * — the full per-invocation story the paper tells across §2 and §6.
 */

#include <iostream>

#include "an/pricing.h"
#include "an/report.h"
#include "machine/experiment.h"
#include "wl/trace_generator.h"

using namespace memento;

int
main()
{
    const WorkloadSpec &spec = workloadById("aes");
    std::cout << "Function: " << spec.id << " (" << spec.description
              << ")\n\n";

    const Trace trace = TraceGenerator(spec).generate();
    std::cout << "Trace: " << countOps(trace, OpKind::Malloc)
              << " allocations, " << countOps(trace, OpKind::Free)
              << " frees, "
              << countOps(trace, OpKind::Load) +
                     countOps(trace, OpKind::Store)
              << " object accesses\n\n";

    RunResult base = Experiment::runOne(spec, trace, defaultConfig());
    RunResult mem = Experiment::runOne(spec, trace, mementoConfig());

    std::cout << "Cycle breakdown per category:\n";
    TextTable t({"Category", "Baseline", "Memento"});
    for (std::size_t i = 0; i < kNumCycleCategories; ++i) {
        const auto cat = static_cast<CycleCategory>(i);
        if (base.category(cat) == 0 && mem.category(cat) == 0)
            continue;
        t.newRow();
        t.cell(std::string(cycleCategoryName(cat)));
        t.cell(base.category(cat));
        t.cell(mem.category(cat));
    }
    t.newRow();
    t.cell("TOTAL");
    t.cell(base.cycles);
    t.cell(mem.cycles);
    t.print(std::cout);

    const MachineConfig cfg = defaultConfig();
    const PricingModel pricing;
    const double base_ms = base.executionMs(cfg);
    const double mem_ms = mem.executionMs(cfg);
    const double base_mb =
        static_cast<double>(base.peakResidentPages) * kPageSize / (1 << 20);
    const double mem_mb =
        static_cast<double>(mem.peakResidentPages) * kPageSize / (1 << 20);

    std::cout << "\nMemory system:\n";
    std::cout << "  page faults:    " << base.pageFaults() << " -> "
              << mem.pageFaults() << "\n";
    std::cout << "  DRAM traffic:   " << (base.dramBytes() >> 10)
              << " KB -> " << (mem.dramBytes() >> 10) << " KB\n";
    std::cout << "  bypassed lines: " << mem.bypassedLines() << "\n";
    std::cout << "  HOT hit rates:  alloc "
              << percentStr(static_cast<double>(mem.hotAllocHits()) /
                            (mem.hotAllocHits() + mem.hotAllocMisses()))
              << ", free "
              << percentStr(static_cast<double>(mem.hotFreeHits()) /
                            (mem.hotFreeHits() + mem.hotFreeMisses()))
              << "\n";

    std::cout << "\nBilling (per million invocations):\n";
    std::cout << "  baseline: $"
              << pricing.runtimeCostUsd(base_ms, base_mb) * 1e6 << "\n";
    std::cout << "  memento:  $"
              << pricing.runtimeCostUsd(mem_ms, mem_mb) * 1e6 << "\n";
    std::cout << "\nSpeedup: "
              << static_cast<double>(base.cycles) / mem.cycles << "x\n";
    return 0;
}
