#include "an/figures.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <exception>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "an/cacti_lite.h"
#include "an/pricing.h"
#include "an/report.h"
#include "machine/breakdown.h"
#include "machine/machine.h"
#include "machine/result_store.h"
#include "sim/error.h"
#include "sim/rng.h"
#include "wl/trace_generator.h"
#include "wl/workloads.h"

namespace memento {
namespace {

// ---- Cells and grouping ----------------------------------------------

std::vector<WorkloadSpec>
specsOf(std::initializer_list<const char *> ids)
{
    std::vector<WorkloadSpec> specs;
    specs.reserve(ids.size());
    for (const char *id : ids)
        specs.push_back(workloadById(id));
    return specs;
}

/** One cell per (spec, config), spec-major: the study's loop order. */
std::vector<SweepTask>
crossCells(const std::vector<WorkloadSpec> &specs,
           const std::vector<MachineConfig> &cfgs, RunOptions opts = {})
{
    std::vector<SweepTask> tasks;
    tasks.reserve(specs.size() * cfgs.size());
    for (const WorkloadSpec &spec : specs) {
        for (const MachineConfig &cfg : cfgs)
            tasks.push_back({spec, cfg, opts, nullptr, {}});
    }
    return tasks;
}

/** Experiment::compareDefault's cells: baseline, Memento, no-bypass. */
std::vector<SweepTask>
compareCells(const std::vector<WorkloadSpec> &specs, RunOptions opts = {})
{
    MachineConfig no_bypass = mementoConfig();
    no_bypass.memento.bypassEnabled = false;
    return crossCells(specs, {defaultConfig(), mementoConfig(), no_bypass},
                      opts);
}

/** Regroup compareCells() results into one Comparison per spec. */
std::vector<Comparison>
comparisons(const std::vector<WorkloadSpec> &specs,
            const std::vector<RunResult> &runs)
{
    std::vector<Comparison> cmps(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        cmps[i] = {specs[i], runs[3 * i], runs[3 * i + 1], runs[3 * i + 2]};
    return cmps;
}

double
speedupOf(const RunResult &base, const RunResult &other)
{
    return static_cast<double>(base.cycles) /
           static_cast<double>(other.cycles);
}

/** Average of @p f over the comparisons in @p domain (0 when none). */
double
averageOver(const std::vector<Comparison> &cmps, Domain domain,
            const std::function<double(const Comparison &)> &f)
{
    double sum = 0.0;
    unsigned n = 0;
    for (const Comparison &c : cmps) {
        if (c.spec.domain == domain) {
            sum += f(c);
            ++n;
        }
    }
    return n == 0 ? 0.0 : sum / n;
}

/** Language group label used in figure rows ("Python", "C++", ...). */
std::string
groupLabel(const WorkloadSpec &spec)
{
    if (spec.domain == Domain::DataProc)
        return "DataProc";
    if (spec.domain == Domain::Platform)
        return "Platform";
    return languageName(spec.lang);
}

std::vector<SweepTask>
noCells()
{
    return {};
}

// ---- Characterization (§2.2): Figs. 2-3, Tables 1-3 ------------------

/**
 * Per-group sums of per-workload percentage histograms and the group
 * sizes; printed as averages, each workload weighted equally (the
 * paper normalizes per function).
 */
struct GroupHistogram
{
    std::map<std::string, std::vector<double>> pct;
    std::map<std::string, unsigned> n;
};

GroupHistogram
printGroupHistogram(const std::vector<TraceProfile> &profiles,
                    Histogram TraceProfile::*which, std::ostream &os)
{
    GroupHistogram g;
    const std::vector<WorkloadSpec> &specs = allWorkloads();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const Histogram &h = profiles[i].*which;
        auto &acc = g.pct[groupLabel(specs[i])];
        acc.resize(h.buckets(), 0.0);
        for (std::size_t b = 0; b < h.buckets(); ++b)
            acc[b] += h.percent(b);
        ++g.n[groupLabel(specs[i])];
    }

    std::vector<std::string> headers = {"Bucket"};
    headers.reserve(g.n.size() + 1);
    for (const auto &[label, n] : g.n)
        headers.push_back(label);
    TextTable t(headers);
    const Histogram &shape = profiles.front().*which;
    for (std::size_t b = 0; b < shape.buckets(); ++b) {
        t.newRow();
        t.cell(shape.label(b));
        for (const auto &[label, n] : g.n)
            t.cell(g.pct[label][b] / n, 1);
    }
    t.print(os);
    return g;
}

void
renderFig02(const FigureInput &in, std::ostream &os)
{
    os << "=== Fig. 2: Allocation size (Bytes) ===\n\n";
    GroupHistogram g =
        printGroupHistogram(in.profiles, &TraceProfile::sizeHist, os);
    os << "\n% of allocations <= 512 B per group:\n";
    for (const auto &[label, n] : g.n)
        os << "  " << label << ": "
           << percentStr(g.pct[label][0] / n / 100.0) << "\n";
    os << "\nPaper: functions 93% (several >98%), DataProc 98%, "
          "Platform 99% below 512 B\n";
}

void
renderFig03(const FigureInput &in, std::ostream &os)
{
    os << "=== Fig. 3: Allocation lifetime (malloc-free distance) ===\n\n";
    printGroupHistogram(in.profiles, &TraceProfile::lifetimeHist, os);
    double func_short = 0.0;
    unsigned func_n = 0;
    for (std::size_t i = 0; i < allWorkloads().size(); ++i) {
        if (allWorkloads()[i].domain == Domain::Function) {
            func_short += in.profiles[i].lifetimeHist.percent(0);
            ++func_n;
        }
    }
    os << "\nFunction allocations freed within 16 same-class "
          "allocations: "
       << percentStr(func_short / func_n / 100.0) << "\n";
    os << "Paper: 71% within 16; 27% long-lived ([257,Inf] incl. "
          "never-freed)\n";
}

void
renderTab01(const FigureInput &in, std::ostream &os)
{
    os << "=== Table 1: Combined distribution of size and lifetime "
          "===\n\n";
    auto print_joint = [&](const char *title, Domain domain) {
        JointDistribution j;
        unsigned n = 0;
        for (std::size_t i = 0; i < allWorkloads().size(); ++i) {
            if (allWorkloads()[i].domain != domain)
                continue;
            const JointDistribution &w = in.profiles[i].joint;
            j.smallShort += w.smallShort;
            j.smallLong += w.smallLong;
            j.largeShort += w.largeShort;
            j.largeLong += w.largeLong;
            ++n;
        }
        os << title << "\n";
        TextTable t({"", "Small (<=512B)", "Large"});
        t.row({"Short-lived", percentStr(j.smallShort / n, 2),
               percentStr(j.largeShort / n, 2)});
        t.row({"Long-lived", percentStr(j.smallLong / n, 2),
               percentStr(j.largeLong / n, 2)});
        t.print(os);
        os << "\n";
    };
    print_joint("Functions (paper: 61% / 6.55% ; 32% / 0.45%):",
                Domain::Function);
    print_joint("Data processing (paper: ~97% small+short):",
                Domain::DataProc);
    print_joint("Serverless platform (paper: ~99% small, long-lived):",
                Domain::Platform);
}

std::vector<SweepTask>
cellsTab02()
{
    return crossCells(allWorkloads(), {defaultConfig()});
}

void
renderTab02(const FigureInput &in, std::ostream &os)
{
    os << "=== Table 2: Memory management cycles breakdown (baseline) "
          "===\n\n";
    struct Group
    {
        double user = 0.0;
        double kernel = 0.0;
        double mmShare = 0.0;
        unsigned n = 0;
    };
    std::map<std::string, Group> groups;

    TextTable t({"Workload", "Group", "User MM", "Kernel MM",
                 "User/Kernel", "MM share of cycles"});
    for (std::size_t i = 0; i < allWorkloads().size(); ++i) {
        const WorkloadSpec &spec = allWorkloads()[i];
        const RunResult &base = in.runs[i];
        const double user = static_cast<double>(base.userMmCycles());
        const double kernel = static_cast<double>(base.kernelMmCycles());
        const double total = user + kernel;
        const double user_pct = total > 0 ? user / total : 0.0;
        const double mm_share =
            static_cast<double>(base.cycles) > 0
                ? total / static_cast<double>(base.cycles)
                : 0.0;
        t.row({spec.id, groupLabel(spec),
               std::to_string(static_cast<std::uint64_t>(user)),
               std::to_string(static_cast<std::uint64_t>(kernel)),
               percentStr(user_pct) + "/" + percentStr(1.0 - user_pct),
               percentStr(mm_share)});

        Group &g = groups[groupLabel(spec)];
        g.user += user_pct;
        g.kernel += 1.0 - user_pct;
        g.mmShare += mm_share;
        ++g.n;
    }
    t.print(os);

    os << "\nPer-group averages (user% / kernel%):\n";
    for (const auto &[label, g] : groups) {
        os << "  " << label << ": " << percentStr(g.user / g.n) << " / "
           << percentStr(g.kernel / g.n) << "   (MM share of all cycles: "
           << percentStr(g.mmShare / g.n) << ")\n";
    }
    os << "\nPaper: Python 48/52, C++ 96/4, Golang 56/44, "
          "Platform 59/41, DataProc 38/62\n";
}

/** Table 3: the simulated configuration and CACTI-style SRAM costs. */
void
renderTab03(const FigureInput &, std::ostream &os)
{
    const MachineConfig cfg = mementoConfig();
    const CactiLite cacti(22.0);
    auto cost = [](const SramCost &c) {
        char buf[80];
        std::snprintf(buf, sizeof(buf), "%.2fmW, %.4fmm^2", c.powerMw,
                      c.areaMm2);
        return std::string(buf);
    };
    // The core is an IPC model whose memory stalls are partly hidden,
    // not an out-of-order pipeline: print its parameters.
    char cpu[80];
    std::snprintf(cpu, sizeof(cpu),
                  "%g GHz, IPC %g + memory stalls (%.0f%%/%.0f%% ld/st "
                  "hidden)",
                  cfg.core.freqGhz, cfg.core.baseIpc,
                  100 * cfg.core.memLatencyHiddenFraction,
                  100 * cfg.core.storeLatencyHiddenFraction);

    os << "=== Table 3: Simulation configuration ===\n\n";
    TextTable t({"Component", "Configuration"});
    t.row({"CPU", cpu});
    t.row({"TLB", "L1 64-entry 4-way; L2 2048-entry 12-way"});
    t.row({"L1d", "32KB, 8-way, 2 cycle, LRU"});
    t.row({"L1i", "32KB, 8-way, 2 cycle, LRU"});
    t.row({"HOT", "3.4KB, direct-mapped, " +
                      std::to_string(cfg.memento.hotLatency) + " cycle, " +
                      cost(cacti.hotCost())});
    t.row({"L2", "256KB, 8-way, 14 cycle, LRU"});
    t.row({"LLC", "2MB slice, 16-way, 40 cycle, LRU"});
    // The modelled AAC is one valid bit per size class; the SRAM cost
    // is estimated for the paper's 32-entry design.
    t.row({"AAC", std::to_string(kNumSmallClasses) + " valid bits, " +
                      std::to_string(HwPageAllocator::kAacLatency) +
                      " cycle; 32-entry: " + cost(cacti.aacCost())});
    t.row({"DRAM", "64GB, DDR4 3200, 16 banks"});
    t.print(os);
    os << "\nPaper reference: HOT 1.32mW / 0.0084mm^2, "
          "AAC 0.43mW / 0.0023mm^2 (CACTI 6.5 @ 22nm)\n";
}

// ---- Headline evaluation (§6): Figs. 8-14 ----------------------------

std::vector<SweepTask>
cellsCompareAll()
{
    return compareCells(allWorkloads());
}

void
renderFig08(const FigureInput &in, std::ostream &os)
{
    os << "=== Fig. 8: Normalized speedup ===\n\n";
    const auto cmps = comparisons(allWorkloads(), in.runs);
    TextTable t({"Workload", "Group", "Base cycles", "Memento cycles",
                 "Speedup", ""});
    for (const Comparison &c : cmps) {
        t.row({c.spec.id, groupLabel(c.spec), std::to_string(c.base.cycles),
               std::to_string(c.memento.cycles), fixedStr(c.speedup(), 3),
               asciiBar((c.speedup() - 1.0) / 0.4, 20)});
    }
    t.print(os);

    auto speedup = [](const Comparison &c) { return c.speedup(); };
    os << "\nfunc-avg speedup: "
       << averageOver(cmps, Domain::Function, speedup) << "\n";
    os << "data-avg speedup: "
       << averageOver(cmps, Domain::DataProc, speedup) << "\n";
    os << "pltf-avg speedup: "
       << averageOver(cmps, Domain::Platform, speedup) << "\n";
    os << "\nPaper: functions 1.08-1.28 (avg 1.16), "
          "data 1.05-1.11, platform 1.04-1.07\n";
}

void
renderFig09(const FigureInput &in, std::ostream &os)
{
    os << "=== Fig. 9: Performance gains breakdown (% saved cycles) "
          "===\n\n";
    const auto cmps = comparisons(allWorkloads(), in.runs);
    TextTable t({"Workload", "Group", "obj-alloc", "obj-free",
                 "page-mgmt", "bypass"});
    for (const Comparison &c : cmps) {
        const Breakdown b = computeBreakdown(c);
        t.row({c.spec.id, groupLabel(c.spec), percentStr(b.objAlloc),
               percentStr(b.objFree), percentStr(b.pageMgmt),
               percentStr(b.bypass)});
    }
    t.print(os);

    auto print_group = [&](const char *name, Domain domain) {
        auto avg = [&](double Breakdown::*part) {
            return percentStr(averageOver(cmps, domain,
                                          [&](const Comparison &c) {
                                              return computeBreakdown(c).*part;
                                          }));
        };
        os << "  " << name << ": alloc " << avg(&Breakdown::objAlloc)
           << ", free " << avg(&Breakdown::objFree) << ", page "
           << avg(&Breakdown::pageMgmt) << ", bypass "
           << avg(&Breakdown::bypass) << "\n";
    };
    os << "\nGroup averages:\n";
    print_group("func-avg", Domain::Function);
    print_group("data-avg", Domain::DataProc);
    print_group("pltf-avg", Domain::Platform);
    os << "\nPaper: func-avg 33/32/33/2; data 37/-/58/-; "
          "platform 71% alloc\n";
}

void
renderFig10(const FigureInput &in, std::ostream &os)
{
    os << "=== Fig. 10: Normalized memory bandwidth reduction ===\n\n";
    const auto cmps = comparisons(allWorkloads(), in.runs);
    TextTable t({"Workload", "Group", "Base MB", "Memento MB",
                 "Reduction", "Bypass share"});
    for (const Comparison &c : cmps) {
        // The bypass share of the reduction: traffic saved relative to
        // the bypass-disabled Memento run.
        const double bypass_saved =
            c.base.dramBytes() == 0
                ? 0.0
                : (static_cast<double>(c.mementoNoBypass.dramBytes()) -
                   static_cast<double>(c.memento.dramBytes())) /
                      static_cast<double>(c.base.dramBytes());
        t.row({c.spec.id, groupLabel(c.spec),
               std::to_string(c.base.dramBytes() >> 20),
               std::to_string(c.memento.dramBytes() >> 20),
               percentStr(c.bandwidthReduction()),
               percentStr(bypass_saved < 0 ? 0 : bypass_saved)});
    }
    t.print(os);

    auto reduction = [](const Comparison &c) {
        return c.bandwidthReduction();
    };
    os << "\nfunc-avg reduction: "
       << percentStr(averageOver(cmps, Domain::Function, reduction)) << "\n";
    os << "data-avg reduction: "
       << percentStr(averageOver(cmps, Domain::DataProc, reduction)) << "\n";
    os << "pltf-avg reduction: "
       << percentStr(averageOver(cmps, Domain::Platform, reduction)) << "\n";
    os << "\nPaper: functions ~30% avg (UM 31%, CM 35%), data "
          "33%, platform smaller; bypass avg 5%, up to 34%\n";
}

void
renderFig11(const FigureInput &in, std::ostream &os)
{
    os << "=== Fig. 11: Normalized aggregate memory usage ===\n\n";
    const auto cmps = comparisons(allWorkloads(), in.runs);
    auto ratio = [](std::uint64_t memento, std::uint64_t base) {
        return base == 0 ? 1.0
                         : static_cast<double>(memento) /
                               static_cast<double>(base);
    };
    auto user = [&](const Comparison &c) {
        return ratio(c.memento.aggUserPages(), c.base.aggUserPages());
    };
    auto kernel = [&](const Comparison &c) {
        return ratio(c.memento.aggKernelPages(), c.base.aggKernelPages());
    };
    auto total = [&](const Comparison &c) {
        return ratio(c.memento.aggUserPages() + c.memento.aggKernelPages(),
                     c.base.aggUserPages() + c.base.aggKernelPages());
    };

    TextTable t({"Workload", "Group", "User", "Kernel", "Total"});
    for (const Comparison &c : cmps) {
        t.row({c.spec.id, groupLabel(c.spec), fixedStr(user(c)),
               fixedStr(kernel(c)), fixedStr(total(c))});
    }
    t.print(os);

    os << "\nfunc-avg normalized usage: user "
       << averageOver(cmps, Domain::Function, user) << ", kernel "
       << averageOver(cmps, Domain::Function, kernel) << ", total "
       << averageOver(cmps, Domain::Function, total) << "\n";
    os << "data-avg total: " << averageOver(cmps, Domain::DataProc, total)
       << "\n";
    os << "pltf-avg total: " << averageOver(cmps, Domain::Platform, total)
       << "\n";
    os << "\nPaper: functions user 0.90, kernel 0.72, total 0.85; "
          "data total 0.77; platform ~1.0\n";
}

void
renderFig12(const FigureInput &in, std::ostream &os)
{
    os << "=== Fig. 12: Hardware object table hit rate ===\n\n";
    const auto cmps = comparisons(allWorkloads(), in.runs);
    auto rate = [](std::uint64_t hits, std::uint64_t misses) {
        const std::uint64_t total = hits + misses;
        return total == 0 ? 1.0
                          : static_cast<double>(hits) /
                                static_cast<double>(total);
    };
    auto alloc_rate = [&](const Comparison &c) {
        return rate(c.memento.hotAllocHits(), c.memento.hotAllocMisses());
    };
    auto free_rate = [&](const Comparison &c) {
        return rate(c.memento.hotFreeHits(), c.memento.hotFreeMisses());
    };

    TextTable t({"Workload", "Group", "allocs", "alloc hit", "frees",
                 "free hit"});
    for (const Comparison &c : cmps) {
        const RunResult &m = c.memento;
        t.row({c.spec.id, groupLabel(c.spec),
               std::to_string(m.hotAllocHits() + m.hotAllocMisses()),
               percentStr(alloc_rate(c)),
               std::to_string(m.hotFreeHits() + m.hotFreeMisses()),
               percentStr(free_rate(c))});
    }
    t.print(os);

    os << "\nfunc-avg: alloc "
       << percentStr(averageOver(cmps, Domain::Function, alloc_rate))
       << ", free "
       << percentStr(averageOver(cmps, Domain::Function, free_rate))
       << "\n";
    os << "Paper: alloc 99.8%, free 83% (Python lower)\n";
}

void
renderFig13(const FigureInput &in, std::ostream &os)
{
    os << "=== Fig. 13: Arena list operation frequency ===\n\n";
    auto pct = [](std::uint64_t ops, std::uint64_t total) {
        return total == 0 ? 0.0
                          : static_cast<double>(ops) /
                                static_cast<double>(total);
    };
    TextTable t({"Workload", "Group", "alloc list ops (% of allocs)",
                 "free list ops (% of frees)"});
    bool all_below = true;
    for (const Comparison &c : comparisons(allWorkloads(), in.runs)) {
        const double alloc_pct =
            pct(c.memento.allocListOps(), c.memento.objAllocs());
        const double free_pct =
            pct(c.memento.freeListOps(), c.memento.objFrees());
        all_below = all_below && alloc_pct < 0.02 && free_pct < 0.02;
        t.row({c.spec.id, groupLabel(c.spec), percentStr(alloc_pct, 3),
               percentStr(free_pct, 3)});
    }
    t.print(os);
    os << "\nAll workloads below 2%: " << (all_below ? "yes" : "no")
       << "\n";
    os << "Paper: <1% of allocations, <0.6% of frees\n";
}

std::vector<SweepTask>
cellsCompareFunctions()
{
    return compareCells(workloadsByDomain(Domain::Function));
}

void
renderFig14(const FigureInput &in, std::ostream &os)
{
    os << "=== Fig. 14: Normalized function runtime pricing ===\n\n";
    const auto cmps =
        comparisons(workloadsByDomain(Domain::Function), in.runs);
    PricingModel pricing;
    // The synthetic functions are scaled down ~50x in billable work and
    // footprint relative to the paper's real workloads; scale the
    // fixed per-invocation fee identically so the runtime-vs-fee ratio
    // (which determines the end-to-end saving) is preserved.
    pricing.usdPerInvocation /= 50.0;
    const MachineConfig cfg = defaultConfig();
    auto megabytes = [](const RunResult &r) {
        return static_cast<double>(r.peakResidentPages) *
               static_cast<double>(kPageSize) / (1 << 20);
    };

    TextTable t({"Workload", "Base ms", "Memento ms", "Base MB",
                 "Memento MB", "Runtime cost", "End-to-end"});
    double runtime_ratio_sum = 0.0;
    double total_ratio_sum = 0.0;
    for (const Comparison &c : cmps) {
        const double base_ms = c.base.executionMs(cfg);
        const double mem_ms = c.memento.executionMs(cfg);
        const double base_mb = megabytes(c.base);
        const double mem_mb = megabytes(c.memento);
        const double runtime_ratio = pricing.runtimeCostUsd(mem_ms, mem_mb) /
                                     pricing.runtimeCostUsd(base_ms, base_mb);
        const double total_ratio = pricing.totalCostUsd(mem_ms, mem_mb) /
                                   pricing.totalCostUsd(base_ms, base_mb);
        runtime_ratio_sum += runtime_ratio;
        total_ratio_sum += total_ratio;
        t.row({c.spec.id, fixedStr(base_ms), fixedStr(mem_ms),
               fixedStr(base_mb, 1), fixedStr(mem_mb, 1),
               fixedStr(runtime_ratio, 3), fixedStr(total_ratio, 3)});
    }
    t.print(os);

    const double n = static_cast<double>(cmps.size());
    os << "\nAverage normalized runtime pricing: " << runtime_ratio_sum / n
       << " (paper: 0.71)\n";
    os << "Average normalized end-to-end pricing: " << total_ratio_sum / n
       << " (paper: 0.89)\n";
}

// ---- Sensitivity studies and comparisons (§6.1, §6.6, §6.7) ----------

/**
 * The "alternative vs Memento" studies: per workload the baseline, the
 * alternative and Memento, printed as two speedups and their averages.
 */
void
renderVersusMemento(const std::vector<WorkloadSpec> &specs,
                    const std::vector<RunResult> &runs, const char *column,
                    const char *alt, std::ostream &os)
{
    TextTable t({"Workload", column, "Memento speedup"});
    double alt_sum = 0.0, memento_sum = 0.0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const double alt_speedup = speedupOf(runs[3 * i], runs[3 * i + 1]);
        const double mem_speedup = speedupOf(runs[3 * i], runs[3 * i + 2]);
        alt_sum += alt_speedup;
        memento_sum += mem_speedup;
        t.row({specs[i].id, fixedStr(alt_speedup, 3),
               fixedStr(mem_speedup, 3)});
    }
    t.print(os);
    const auto n = static_cast<unsigned>(specs.size());
    os << "\nAverage: " << alt << " " << alt_sum / n << ", Memento "
       << memento_sum / n << "\n";
}

std::vector<WorkloadSpec>
isoSpecs()
{
    return specsOf({"html", "aes", "jl", "US", "UM"});
}

std::vector<SweepTask>
cellsIsoStorage()
{
    // The HOT's 3.4 KB of SRAM given to the L1D instead: a ninth way
    // at the same set count (36 KB) and the same latency.
    MachineConfig iso_cfg = defaultConfig();
    iso_cfg.l1d = CacheConfig{36 << 10, 9, iso_cfg.l1d.latency};
    return crossCells(isoSpecs(), {defaultConfig(), iso_cfg, mementoConfig()});
}

void
renderIsoStorage(const FigureInput &in, std::ostream &os)
{
    os << "=== Iso-storage comparison (9-way L1D vs Memento) ===\n\n";
    renderVersusMemento(isoSpecs(), in.runs, "Iso-L1D speedup", "iso-L1D",
                        os);
    os << "Paper: iso-storage ~1.03 overall vs Memento up to 1.28\n";
}

std::vector<SweepTask>
cellsPopulate()
{
    MachineConfig pop_cfg = defaultConfig();
    pop_cfg.kernel.mapPopulate = true;
    return crossCells(workloadsByDomain(Domain::Function),
                      {defaultConfig(), pop_cfg});
}

void
renderPopulate(const FigureInput &in, std::ostream &os)
{
    os << "=== MAP_POPULATE sensitivity ===\n\n";
    struct Agg
    {
        double perf = 0.0;
        double mem = 0.0;
        unsigned n = 0;
    };
    std::map<std::string, Agg> groups;

    TextTable t({"Workload", "Lang", "Perf vs base", "Footprint vs base"});
    const auto specs = workloadsByDomain(Domain::Function);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const RunResult &base = in.runs[2 * i];
        const RunResult &populated = in.runs[2 * i + 1];
        const double perf = speedupOf(base, populated);
        const double mem =
            static_cast<double>(populated.peakResidentPages) /
            static_cast<double>(base.peakResidentPages);
        t.row({specs[i].id, languageName(specs[i].lang), fixedStr(perf, 3),
               fixedStr(mem)});

        Agg &agg = groups[languageName(specs[i].lang)];
        agg.perf += perf;
        agg.mem += mem;
        ++agg.n;
    }
    t.print(os);

    os << "\nPer-language averages:\n";
    for (const auto &[lang, agg] : groups) {
        os << "  " << lang << ": perf x" << agg.perf / agg.n
           << ", footprint x" << agg.mem / agg.n << "\n";
    }
    os << "\nPaper: Golang +3% perf but 8.6x footprint; "
          "Python/C++ ~no speedup change, +9.6% memory\n";
}

using Mix = std::array<const WorkloadSpec *, 4>;

/** Run four functions round-robin on one core; return (total, cs). */
std::pair<Cycles, Cycles>
runMix(const Mix &mix, TraceCache &traces)
{
    Machine machine(mementoConfig());
    std::vector<std::shared_ptr<const Trace>> trace;
    std::vector<std::unique_ptr<FunctionExecutor>> executors;
    trace.reserve(mix.size());
    executors.reserve(mix.size());
    std::vector<std::size_t> cursor(mix.size(), 0);
    for (const WorkloadSpec *spec : mix) {
        machine.createProcess(*spec);
        trace.push_back(traces.get(*spec));
        executors.push_back(std::make_unique<FunctionExecutor>(machine));
    }

    // Time slices of ~2000 trace operations (a few hundred
    // microseconds of simulated time, like a scheduler quantum).
    constexpr std::size_t kSlice = 2000;
    bool progress = true;
    while (progress) {
        progress = false;
        for (std::size_t p = 0; p < mix.size(); ++p) {
            if (cursor[p] >= trace[p]->size())
                continue;
            progress = true;
            machine.switchTo(static_cast<unsigned>(p));
            const std::size_t end =
                std::min(cursor[p] + kSlice, trace[p]->size());
            executors[p]->runRange(*mix[p], *trace[p], cursor[p], end);
            cursor[p] = end;
        }
    }
    return {machine.cycleLedger().total(),
            machine.cycleLedger().category(CycleCategory::ContextSwitch)};
}

/**
 * §6.6 multi-process: ten mixes of four random function instances,
 * each mix time-sharing one core, measure what Memento's
 * context-switch obligations (HOT flush + TLB flush) cost.
 */
void
runMultiproc(SweepEngine &engine, std::ostream &os)
{
    os << "=== Multi-process context-switch sensitivity ===\n\n";
    const auto functions = workloadsByDomain(Domain::Function);

    // Draw every mix serially first, so the mixes do not depend on the
    // worker count; then the trials fan out.
    Rng rng(2023);
    std::vector<Mix> mixes(10);
    for (Mix &mix : mixes) {
        for (const WorkloadSpec *&slot : mix)
            slot = &functions[rng.nextBelow(functions.size())];
    }
    std::vector<std::pair<Cycles, Cycles>> results(mixes.size());
    std::vector<std::exception_ptr> errors(mixes.size());
    parallelFor(mixes.size(), engine.effectiveJobs(), [&](std::size_t i) {
        try {
            results[i] = runMix(mixes[i], engine.traceCache());
        } catch (...) {
            errors[i] = std::current_exception();
        }
    });
    for (const std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }

    TextTable t({"Trial", "Mix", "Total cycles", "CS cycles", "CS share"});
    double share_sum = 0.0;
    for (std::size_t trial = 0; trial < mixes.size(); ++trial) {
        std::string names;
        for (const WorkloadSpec *spec : mixes[trial]) {
            if (!names.empty())
                names += '+';
            names += spec->id;
        }
        const auto [total, cs] = results[trial];
        const double share =
            static_cast<double>(cs) / static_cast<double>(total);
        share_sum += share;
        t.row({std::to_string(trial), names, std::to_string(total),
               std::to_string(cs), percentStr(share, 3)});
    }
    t.print(os);
    os << "\nAverage context-switch share (incl. HOT flush): "
       << percentStr(share_sum / 10.0, 3) << "\n";
    os << "Paper: negligible overall performance effect\n";
}

/**
 * Extension (not in the paper): can transparent huge pages capture
 * Memento's gains in software? THP collapses up to 512 demand faults
 * into one and widens TLB reach, but zeroes 2 MiB per fault, wastes
 * footprint on sparse heaps, and leaves the userspace allocator half of
 * Table 2 untouched.
 */
std::vector<WorkloadSpec>
thpSpecs()
{
    return specsOf({"html", "bfs", "jd", "html-go", "bfs-go", "US"});
}

std::vector<SweepTask>
cellsThp()
{
    MachineConfig thp_cfg = defaultConfig();
    thp_cfg.kernel.transparentHugePages = true;
    return crossCells(thpSpecs(), {defaultConfig(), thp_cfg, mementoConfig()});
}

void
renderThp(const FigureInput &in, std::ostream &os)
{
    os << "=== Transparent huge pages vs Memento ===\n\n";
    TextTable t({"Workload", "Lang", "THP speedup", "Memento speedup",
                 "THP footprint", "kernel MM left"});
    double thp_sum = 0.0, mem_sum = 0.0;
    const std::vector<WorkloadSpec> specs = thpSpecs();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const RunResult &base = in.runs[3 * i];
        const RunResult &thp = in.runs[3 * i + 1];
        const double thp_speedup = speedupOf(base, thp);
        const double mem_speedup = speedupOf(base, in.runs[3 * i + 2]);
        thp_sum += thp_speedup;
        mem_sum += mem_speedup;
        const double kernel_left =
            base.kernelMmCycles() == 0
                ? 0.0
                : static_cast<double>(thp.kernelMmCycles()) /
                      static_cast<double>(base.kernelMmCycles());
        t.row({specs[i].id, languageName(specs[i].lang),
               fixedStr(thp_speedup, 3), fixedStr(mem_speedup, 3),
               fixedStr(static_cast<double>(thp.peakResidentPages) /
                        static_cast<double>(base.peakResidentPages)),
               percentStr(kernel_left)});
    }
    t.print(os);
    const auto n = static_cast<unsigned>(specs.size());
    os << "\nAverage: THP " << thp_sum / n << " vs Memento " << mem_sum / n
       << "\n";
    os << "THP attacks only the kernel half of Table 2; the "
          "userspace allocator path is untouched.\n";
}

constexpr std::uint64_t kTuningArenaKb[] = {256, 512, 1024};

std::vector<WorkloadSpec>
tuningSpecs()
{
    return specsOf({"html", "jd", "mk"});
}

/** Per workload: (baseline, Memento) at each arena size. */
std::vector<SweepTask>
cellsTuning()
{
    std::vector<MachineConfig> cfgs;
    for (std::uint64_t arena_kb : kTuningArenaKb) {
        for (MachineConfig cfg : {defaultConfig(), mementoConfig()}) {
            cfg.tuning.pymallocArenaBytes = arena_kb << 10;
            cfgs.push_back(cfg);
        }
    }
    return crossCells(tuningSpecs(), cfgs);
}

void
renderTuning(const FigureInput &in, std::ostream &os)
{
    os << "=== Software-allocator tuning sensitivity (pymalloc arena "
          "size) ===\n\n";
    TextTable t({"Workload", "Arena KB", "Base cycles", "mmap calls",
                 "Memento speedup", "Peak pages"});
    std::size_t next = 0;
    for (const WorkloadSpec &spec : tuningSpecs()) {
        for (std::uint64_t arena_kb : kTuningArenaKb) {
            const RunResult &base = in.runs[next++];
            const RunResult &mem = in.runs[next++];
            t.row({spec.id, std::to_string(arena_kb), std::to_string(base.cycles),
                   std::to_string(base.mmapCalls()),
                   fixedStr(speedupOf(base, mem), 3),
                   std::to_string(base.peakResidentPages)});
        }
    }
    t.print(os);
    os << "\nPaper: larger arenas cut mmap frequency; Memento "
          "speedup changes by <1%; footprint unaffected\n";
}

std::vector<SweepTask>
cellsFragmentation()
{
    return crossCells(allWorkloads(), {defaultConfig(), mementoConfig()});
}

/**
 * §6.6 fragmentation: RunResult::fragInactiveFraction, the share of
 * small-object slots in allocated arenas that hold no live object,
 * Memento versus the software allocators. It is sampled at the run's
 * highest-live-bytes point, checked every 4096 mallocs, and at function
 * exit only when no check qualified. Paper: 3.68% of Memento's header
 * slots inactive on average, within ±2% of the software allocators.
 */
void
renderFragmentation(const FigureInput &in, std::ostream &os)
{
    os << "=== Fragmentation (inactive small-object slots) ===\n\n";
    TextTable t({"Workload", "Group", "Software", "Memento", "Delta"});
    double memento_sum = 0.0;
    double delta_sum = 0.0;
    const std::vector<WorkloadSpec> &specs = allWorkloads();
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const double base = in.runs[2 * i].fragInactiveFraction;
        const double mem = in.runs[2 * i + 1].fragInactiveFraction;
        memento_sum += mem;
        delta_sum += mem - base;
        t.row({specs[i].id, groupLabel(specs[i]), percentStr(base, 2),
               percentStr(mem, 2), percentStr(mem - base, 2)});
    }
    t.print(os);
    const auto n = static_cast<unsigned>(specs.size());
    os << "\nMemento average inactive slots: "
       << percentStr(memento_sum / n, 2)
       << " (paper: 3.68%); average delta vs software: "
       << percentStr(delta_sum / n, 2) << " (paper: within ±2%)\n";
}

std::vector<SweepTask>
cellsColdstart()
{
    RunOptions cold;
    cold.coldStart = true;
    return compareCells(workloadsByDomain(Domain::Function), cold);
}

void
renderColdstart(const FigureInput &in, std::ostream &os)
{
    os << "=== Cold-start sensitivity ===\n\n";
    const auto cmps =
        comparisons(workloadsByDomain(Domain::Function), in.runs);
    TextTable t({"Workload", "Group", "Cold speedup"});
    double lo = 1e9, hi = 0.0, sum = 0.0;
    for (const Comparison &c : cmps) {
        const double speedup = c.speedup();
        lo = std::min(lo, speedup);
        hi = std::max(hi, speedup);
        sum += speedup;
        t.row({c.spec.id, groupLabel(c.spec), fixedStr(speedup, 3)});
    }
    t.print(os);
    os << "\nCold-start speedup range: " << lo << " - " << hi << " (avg "
       << sum / static_cast<double>(cmps.size()) << ")\n";
    os << "Paper: 1.07 - 1.22 with cold starts\n";
}

std::vector<WorkloadSpec>
mallaccSpecs()
{
    return specsOf({"US", "UM", "CM", "MI"});
}

std::vector<SweepTask>
cellsMallacc()
{
    MachineConfig mallacc_cfg = mementoConfig();
    mallacc_cfg.memento.mallaccMode = true;
    return crossCells(mallaccSpecs(),
                      {defaultConfig(), mallacc_cfg, mementoConfig()});
}

void
renderMallacc(const FigureInput &in, std::ostream &os)
{
    os << "=== Comparison with idealized Mallacc (DeathStarBench) "
          "===\n\n";
    renderVersusMemento(mallaccSpecs(), in.runs, "Mallacc speedup",
                        "Mallacc", os);
    os << "Paper: Mallacc 1.05-1.10 (avg 1.08) vs Memento "
          "1.12-1.20 (avg 1.16)\n";
}

// ---- Design-choice ablations (DESIGN.md) -----------------------------

constexpr unsigned kAblObjects[] = {32, 64, 128, 256};
constexpr unsigned kAblRefill[] = {16, 64, 256};
constexpr Cycles kAblHotLatency[] = {1, 2, 4, 8};

/** The html baseline, then each Memento variant in render order. */
std::vector<SweepTask>
cellsAblation()
{
    std::vector<MachineConfig> cfgs = {defaultConfig()};
    auto variant = [&]() -> MementoConfig & {
        cfgs.push_back(mementoConfig());
        return cfgs.back().memento;
    };
    for (unsigned objs : kAblObjects)
        variant().objectsPerArena = objs;
    variant();                            // eager arena prefetch
    variant().eagerArenaPrefetch = false; // demand
    variant();                            // bypass on
    variant().bypassEnabled = false;      // bypass off
    for (unsigned refill : kAblRefill)
        variant().pagePoolRefill = refill;
    for (Cycles lat : kAblHotLatency)
        variant().hotLatency = lat;
    return crossCells(specsOf({"html"}), cfgs);
}

void
renderAblation(const FigureInput &in, std::ostream &os)
{
    std::size_t next = 1;
    auto speedup = [&](const RunResult &mem) {
        return fixedStr(static_cast<double>(in.runs[0].cycles) /
                            static_cast<double>(mem.cycles),
                        4);
    };
    os << "=== Design ablations (workload: html) ===\n\n";

    os << "Objects per arena (paper picks 256; the header's\n"
          "bitmap field caps the arena at 256 objects):\n";
    TextTable objects({"objects/arena", "Speedup", "Inactive slots",
                       "Arena grants"});
    for (unsigned objs : kAblObjects) {
        const RunResult &mem = in.runs[next++];
        objects.row({std::to_string(objs), speedup(mem),
                     percentStr(mem.fragInactiveFraction, 2),
                     mem.objAllocs() == 0
                         ? std::string("-")
                         : std::to_string(mem.allocListOps())});
    }
    objects.print(os);

    os << "\nEager arena prefetch (§3.1 optimization):\n";
    TextTable prefetch({"prefetch", "Speedup", "HOT alloc miss"});
    for (const char *name : {"eager", "demand"}) {
        const RunResult &mem = in.runs[next++];
        prefetch.row(
            {name, speedup(mem), std::to_string(mem.hotAllocMisses())});
    }
    prefetch.print(os);

    os << "\nMain-memory bypass (§3.3):\n";
    TextTable bypass({"bypass", "Speedup", "DRAM MB"});
    for (const char *name : {"on", "off"}) {
        const RunResult &mem = in.runs[next++];
        bypass.row(
            {name, speedup(mem), std::to_string(mem.dramBytes() >> 20)});
    }
    bypass.print(os);

    os << "\nPage-pool refill batch (OS grants per refill):\n";
    TextTable refills({"refill pages", "Speedup", "Pool refills",
                       "Peak pages"});
    for (unsigned refill : kAblRefill) {
        const RunResult &mem = in.runs[next++];
        refills.row({std::to_string(refill), speedup(mem),
                     std::to_string(mem.poolRefills()),
                     std::to_string(mem.peakResidentPages)});
    }
    refills.print(os);

    os << "\nHOT access latency:\n";
    TextTable latency({"HOT cycles", "Speedup"});
    for (Cycles lat : kAblHotLatency)
        latency.row({std::to_string(lat), speedup(in.runs[next++])});
    latency.print(os);
}

} // namespace

const std::vector<Figure> &
allFigures()
{
    static const std::vector<Figure> figures = {
        // Characterization (§2.2)
        {"fig02_alloc_size", noCells, true, renderFig02},
        {"fig03_lifetime", noCells, true, renderFig03},
        {"tab01_joint", noCells, true, renderTab01},
        {"tab02_cycles", cellsTab02, false, renderTab02},
        {"tab03_config", noCells, false, renderTab03},
        // Headline evaluation (§6)
        {"fig08_speedup", cellsCompareAll, false, renderFig08},
        {"fig09_breakdown", cellsCompareAll, false, renderFig09},
        {"fig10_bandwidth", cellsCompareAll, false, renderFig10},
        {"fig11_memusage", cellsCompareAll, false, renderFig11},
        {"fig12_hot_hitrate", cellsCompareAll, false, renderFig12},
        {"fig13_arena_list_ops", cellsCompareAll, false, renderFig13},
        {"fig14_pricing", cellsCompareFunctions, false, renderFig14},
        // Sensitivity studies and comparisons (§6.1, §6.6, §6.7)
        {"sens_iso_storage", cellsIsoStorage, false, renderIsoStorage},
        {"sens_populate", cellsPopulate, false, renderPopulate},
        {"sens_multiproc", noCells, false, nullptr, runMultiproc},
        {"sens_thp", cellsThp, false, renderThp},
        {"sens_tuning", cellsTuning, false, renderTuning},
        {"sens_fragmentation", cellsFragmentation, false,
         renderFragmentation},
        {"sens_coldstart", cellsColdstart, false, renderColdstart},
        {"comp_mallacc", cellsMallacc, false, renderMallacc},
        // Design-choice ablations (DESIGN.md)
        {"abl_design", cellsAblation, false, renderAblation},
    };
    return figures;
}

const Figure *
findFigure(std::string_view id)
{
    for (const Figure &fig : allFigures()) {
        if (fig.id == id)
            return &fig;
    }
    return nullptr;
}

void
runFigures(const std::vector<const Figure *> &figs, SweepEngine &engine,
           std::ostream &os)
{
    // The union of every entry's cells, each distinct cell once;
    // slots[f] maps entry f's cells onto the deduplicated task list.
    std::vector<SweepTask> tasks;
    std::map<CellIdentity, std::size_t> index;
    std::vector<std::vector<std::size_t>> slots(figs.size());
    bool need_profiles = false;
    for (std::size_t f = 0; f < figs.size(); ++f) {
        need_profiles = need_profiles || figs[f]->needsProfiles;
        if (figs[f]->runCustom != nullptr)
            continue;
        for (SweepTask &task : figs[f]->cells()) {
            const auto [it, fresh] = index.try_emplace(
                cellIdentity(task.spec.id, task.cfg, task.opts),
                tasks.size());
            if (fresh)
                tasks.push_back(std::move(task));
            slots[f].push_back(it->second);
        }
    }

    const std::vector<SweepOutcome> outcomes = engine.run(tasks);
    for (const SweepOutcome &out : outcomes) {
        if (out.result.error) {
            const RunError &e = *out.result.error;
            throw SimError(e.category, out.result.workload + ": " + e.message,
                           e.opIndex);
        }
    }

    // The trace-only entries profile every workload; a sweep over the
    // same workloads has already synthesized their traces.
    std::vector<TraceProfile> profiles;
    if (need_profiles) {
        const std::vector<WorkloadSpec> &specs = allWorkloads();
        profiles.resize(specs.size());
        parallelFor(specs.size(), engine.effectiveJobs(),
                    [&](std::size_t i) {
                        profiles[i] =
                            profileTrace(*engine.traceCache().get(specs[i]));
                    });
    }

    for (std::size_t f = 0; f < figs.size(); ++f) {
        if (figs[f]->runCustom != nullptr) {
            figs[f]->runCustom(engine, os);
            continue;
        }
        FigureInput in;
        for (std::size_t slot : slots[f])
            in.runs.push_back(outcomes[slot].result);
        if (figs[f]->needsProfiles)
            in.profiles = profiles;
        figs[f]->render(in, os);
    }
}

} // namespace memento
