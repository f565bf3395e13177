#include "an/figures.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <exception>
#include <initializer_list>
#include <map>
#include <memory>
#include <set>
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

using Rows = std::vector<FigureRow>;
using R = const FigureRow &;

// ---- Rows, cells and averages the data entries share -----------------

std::vector<WorkloadSpec>
specsOf(std::initializer_list<const char *> ids)
{
    std::vector<WorkloadSpec> specs;
    specs.reserve(ids.size());
    for (const char *id : ids)
        specs.push_back(workloadById(id));
    return specs;
}

/** One row per spec, each running every config of @p configs. */
Rows
rowsOf(const std::vector<WorkloadSpec> &specs,
       const std::vector<MachineConfig> &configs)
{
    Rows rows;
    rows.reserve(specs.size());
    for (const WorkloadSpec &spec : specs)
        rows.push_back({spec, configs, {}});
    return rows;
}

/** Experiment::compareDefault's configs: baseline, Memento, no-bypass. */
Rows
compareRows(const std::vector<WorkloadSpec> &specs)
{
    MachineConfig no_bypass = mementoConfig();
    no_bypass.memento.bypassEnabled = false;
    return rowsOf(specs, {defaultConfig(), mementoConfig(), no_bypass});
}

/** @p num / @p den, or @p if_zero when @p den is 0. */
double
ratio(double num, double den, double if_zero = 0.0)
{
    return den == 0 ? if_zero : num / den;
}

/**
 * Speedup of the row's run @p K over its first, the baseline. Rows of
 * the "alternative vs Memento" studies run the baseline, the
 * alternative and Memento, so Memento's speedup there is speedup<2>.
 */
template <std::size_t K = 1>
double
speedup(R row)
{
    return static_cast<double>(row.runs[0].cycles) /
           static_cast<double>(row.runs[K].cycles);
}

/** Peak resident pages of the row's second run over its first. */
double
footprint(R row)
{
    return ratio(static_cast<double>(row.runs[1].peakResidentPages),
                 static_cast<double>(row.runs[0].peakResidentPages));
}

// Cells that format one metric of the row.
template <double (*Metric)(R), int Precision = 2>
std::string
fixedCell(R row)
{
    return fixedStr(Metric(row), Precision);
}

template <double (*Metric)(R), int Precision = 1>
std::string
percentCell(R row)
{
    return percentStr(Metric(row), Precision);
}

/** The sum of run @p K's integer members or accessors @p Metrics. */
template <std::size_t K, auto... Metrics>
std::string
countCell(R row)
{
    return std::to_string((std::invoke(Metrics, row.runs[K]) + ...));
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

const FigureColumn kGroup{"Group", [](R r) { return groupLabel(r.spec); }};
const FigureColumn kLang{"Lang",
                         [](R r) { return languageName(r.spec.lang); }};

using Keep = std::function<bool(R)>;

/** Average of @p f over the rows @p keep selects, or all (0 if none). */
double
averageOver(const Rows &rows, double (*f)(R), const Keep &keep = {})
{
    double sum = 0.0;
    unsigned n = 0;
    for (const FigureRow &row : rows) {
        if (!keep || keep(row)) {
            sum += f(row);
            ++n;
        }
    }
    return n == 0 ? 0.0 : sum / n;
}

Keep
inDomain(Domain domain)
{
    return [domain](R row) { return row.spec.domain == domain; };
}

/** The domains of the per-domain averages, with their labels. */
constexpr std::pair<Domain, const char *> kDomains[] = {
    {Domain::Function, "func-avg"},
    {Domain::DataProc, "data-avg"},
    {Domain::Platform, "pltf-avg"},
};

/**
 * Call @p print once per distinct @p column value, in sorted order,
 * with the value and a filter that keeps the rows showing it.
 */
template <typename Print>
void
forEachGroup(const Rows &rows, const FigureColumn &column, Print print)
{
    std::set<std::string> labels;
    for (const FigureRow &row : rows)
        labels.insert(column.cell(row));
    for (const std::string &label : labels)
        print(label, Keep([&](R row) { return column.cell(row) == label; }));
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
renderFig02(const Rows &, const FigureProfiles &profiles, SweepEngine &,
            std::ostream &os)
{
    GroupHistogram g =
        printGroupHistogram(profiles(), &TraceProfile::sizeHist, os);
    os << "\n% of allocations <= 512 B per group:\n";
    for (const auto &[label, n] : g.n)
        os << "  " << label << ": "
           << percentStr(g.pct[label][0] / n / 100.0) << "\n";
    os << "\nPaper: functions 93% (several >98%), DataProc 98%, "
          "Platform 99% below 512 B\n";
}

void
renderFig03(const Rows &, const FigureProfiles &profiles, SweepEngine &,
            std::ostream &os)
{
    printGroupHistogram(profiles(), &TraceProfile::lifetimeHist, os);
    double func_short = 0.0;
    unsigned func_n = 0;
    for (std::size_t i = 0; i < allWorkloads().size(); ++i) {
        if (allWorkloads()[i].domain == Domain::Function) {
            func_short += profiles()[i].lifetimeHist.percent(0);
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
renderTab01(const Rows &, const FigureProfiles &profiles, SweepEngine &,
            std::ostream &os)
{
    auto print_joint = [&](const char *title, Domain domain) {
        JointDistribution j;
        unsigned n = 0;
        for (std::size_t i = 0; i < allWorkloads().size(); ++i) {
            if (allWorkloads()[i].domain != domain)
                continue;
            const JointDistribution &w = profiles()[i].joint;
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

/** Table 2: the user share of the baseline's memory-management cycles. */
double
userMmShare(R row)
{
    const double user = static_cast<double>(row.runs[0].userMmCycles());
    return ratio(user,
                 user + static_cast<double>(row.runs[0].kernelMmCycles()));
}

double
kernelMmShare(R row)
{
    return 1.0 - userMmShare(row);
}

/** Table 2: memory management's share of all baseline cycles. */
double
mmShareOfCycles(R row)
{
    const RunResult &base = row.runs[0];
    return ratio(static_cast<double>(base.userMmCycles()) +
                     static_cast<double>(base.kernelMmCycles()),
                 static_cast<double>(base.cycles));
}

void
footerTab02(const Rows &rows, std::ostream &os)
{
    os << "\nPer-group averages (user% / kernel%):\n";
    forEachGroup(rows, kGroup, [&](const std::string &label, const Keep &in) {
        os << "  " << label << ": "
           << percentStr(averageOver(rows, userMmShare, in)) << " / "
           << percentStr(averageOver(rows, kernelMmShare, in))
           << "   (MM share of all cycles: "
           << percentStr(averageOver(rows, mmShareOfCycles, in)) << ")\n";
    });
    os << "\nPaper: Python 48/52, C++ 96/4, Golang 56/44, "
          "Platform 59/41, DataProc 38/62\n";
}

/** Table 3: the simulated configuration and CACTI-style SRAM costs. */
void
renderTab03(const Rows &, const FigureProfiles &, SweepEngine &,
            std::ostream &os)
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

Rows
compareAllRows()
{
    return compareRows(allWorkloads());
}

Rows
compareFunctionRows()
{
    return compareRows(workloadsByDomain(Domain::Function));
}

void
footerFig08(const Rows &rows, std::ostream &os)
{
    os << "\n";
    for (const auto &[domain, label] : kDomains) {
        os << label << " speedup: "
           << averageOver(rows, speedup<>, inDomain(domain)) << "\n";
    }
    os << "\nPaper: functions 1.08-1.28 (avg 1.16), "
          "data 1.05-1.11, platform 1.04-1.07\n";
}

/** A compareRows() row as a Comparison. */
Comparison
comparisonOf(R row)
{
    return {row.spec, row.runs[0], row.runs[1], row.runs[2]};
}

/** Fig. 9: mechanism @p Part's share of the saved cycles. */
template <double Breakdown::*Part>
double
saved(R row)
{
    return computeBreakdown(comparisonOf(row)).*Part;
}

void
footerFig09(const Rows &rows, std::ostream &os)
{
    os << "\nGroup averages:\n";
    for (const auto &[domain, label] : kDomains) {
        auto avg = [&](double (*part)(R)) {
            return percentStr(averageOver(rows, part, inDomain(domain)));
        };
        os << "  " << label << ": alloc " << avg(saved<&Breakdown::objAlloc>)
           << ", free " << avg(saved<&Breakdown::objFree>) << ", page "
           << avg(saved<&Breakdown::pageMgmt>) << ", bypass "
           << avg(saved<&Breakdown::bypass>) << "\n";
    }
    os << "\nPaper: func-avg 33/32/33/2; data 37/-/58/-; "
          "platform 71% alloc\n";
}

double
bandwidthReduction(R row)
{
    return comparisonOf(row).bandwidthReduction();
}

/**
 * The bypass share of the bandwidth reduction: traffic saved relative
 * to the bypass-disabled Memento run.
 */
double
bypassShare(R row)
{
    const double saved =
        ratio(static_cast<double>(row.runs[2].dramBytes()) -
                  static_cast<double>(row.runs[1].dramBytes()),
              static_cast<double>(row.runs[0].dramBytes()));
    return saved < 0 ? 0 : saved;
}

void
footerFig10(const Rows &rows, std::ostream &os)
{
    os << "\n";
    for (const auto &[domain, label] : kDomains) {
        os << label << " reduction: "
           << percentStr(
                  averageOver(rows, bandwidthReduction, inDomain(domain)))
           << "\n";
    }
    os << "\nPaper: functions ~30% avg (UM 31%, CM 35%), data "
          "33%, platform smaller; bypass avg 5%, up to 34%\n";
}

/** Fig. 11: Memento's aggregate pages over the baseline's, 1 if none. */
template <auto... Pages>
double
usage(R row)
{
    return ratio(
        static_cast<double>((std::invoke(Pages, row.runs[1]) + ...)),
        static_cast<double>((std::invoke(Pages, row.runs[0]) + ...)), 1.0);
}

constexpr auto kUser = &RunResult::aggUserPages;
constexpr auto kKernel = &RunResult::aggKernelPages;

void
footerFig11(const Rows &rows, std::ostream &os)
{
    const Keep func = inDomain(Domain::Function);
    os << "\nfunc-avg normalized usage: user "
       << averageOver(rows, usage<kUser>, func) << ", kernel "
       << averageOver(rows, usage<kKernel>, func) << ", total "
       << averageOver(rows, usage<kUser, kKernel>, func) << "\n";
    os << "data-avg total: "
       << averageOver(rows, usage<kUser, kKernel>,
                      inDomain(Domain::DataProc))
       << "\n";
    os << "pltf-avg total: "
       << averageOver(rows, usage<kUser, kKernel>,
                      inDomain(Domain::Platform))
       << "\n";
    os << "\nPaper: functions user 0.90, kernel 0.72, total 0.85; "
          "data total 0.77; platform ~1.0\n";
}

/** Memento's @p Hits over @p Hits plus @p Misses, 1 with no lookups. */
template <auto Hits, auto Misses>
double
hitRate(R row)
{
    const RunResult &mem = row.runs[1];
    return ratio(static_cast<double>(std::invoke(Hits, mem)),
                 static_cast<double>(std::invoke(Hits, mem) +
                                     std::invoke(Misses, mem)),
                 1.0);
}

constexpr auto kAllocHits = &RunResult::hotAllocHits;
constexpr auto kAllocMisses = &RunResult::hotAllocMisses;
constexpr auto kFreeHits = &RunResult::hotFreeHits;
constexpr auto kFreeMisses = &RunResult::hotFreeMisses;
constexpr auto allocHitRate = hitRate<kAllocHits, kAllocMisses>;
constexpr auto freeHitRate = hitRate<kFreeHits, kFreeMisses>;

void
footerFig12(const Rows &rows, std::ostream &os)
{
    const Keep func = inDomain(Domain::Function);
    os << "\nfunc-avg: alloc "
       << percentStr(averageOver(rows, allocHitRate, func)) << ", free "
       << percentStr(averageOver(rows, freeHitRate, func)) << "\n";
    os << "Paper: alloc 99.8%, free 83% (Python lower)\n";
}

/** Fig. 13: Memento's arena list operations per allocation or free. */
template <auto Ops, auto Total>
double
listOps(R row)
{
    return ratio(static_cast<double>(std::invoke(Ops, row.runs[1])),
                 static_cast<double>(std::invoke(Total, row.runs[1])));
}

constexpr auto allocListShare =
    listOps<&RunResult::allocListOps, &RunResult::objAllocs>;
constexpr auto freeListShare =
    listOps<&RunResult::freeListOps, &RunResult::objFrees>;

void
footerFig13(const Rows &rows, std::ostream &os)
{
    const bool all_below = std::all_of(rows.begin(), rows.end(), [](R r) {
        return allocListShare(r) < 0.02 && freeListShare(r) < 0.02;
    });
    os << "\nAll workloads below 2%: " << (all_below ? "yes" : "no")
       << "\n";
    os << "Paper: <1% of allocations, <0.6% of frees\n";
}

template <std::size_t K>
double
executionMs(R row)
{
    return row.runs[K].executionMs(defaultConfig());
}

template <std::size_t K>
double
megabytes(R row)
{
    return static_cast<double>(row.runs[K].peakResidentPages) *
           static_cast<double>(kPageSize) / (1 << 20);
}

/** Fig. 14: Memento's price over the baseline's under @p Cost. */
template <double (PricingModel::*Cost)(double, double) const>
double
price(R row)
{
    PricingModel pricing;
    // The synthetic functions are scaled down ~50x in billable work and
    // footprint relative to the paper's real workloads; scale the
    // fixed per-invocation fee identically so the runtime-vs-fee ratio
    // (which determines the end-to-end saving) is preserved.
    pricing.usdPerInvocation /= 50.0;
    return (pricing.*Cost)(executionMs<1>(row), megabytes<1>(row)) /
           (pricing.*Cost)(executionMs<0>(row), megabytes<0>(row));
}

constexpr auto runtimePrice = price<&PricingModel::runtimeCostUsd>;
constexpr auto totalPrice = price<&PricingModel::totalCostUsd>;

void
footerFig14(const Rows &rows, std::ostream &os)
{
    os << "\nAverage normalized runtime pricing: "
       << averageOver(rows, runtimePrice) << " (paper: 0.71)\n";
    os << "Average normalized end-to-end pricing: "
       << averageOver(rows, totalPrice) << " (paper: 0.89)\n";
}

// ---- Sensitivity studies and comparisons (§6.1, §6.6, §6.7) ----------

/** The alternative's and Memento's average speedups. */
void
printVersusMemento(const Rows &rows, const char *alt, const char *sep,
                   std::ostream &os)
{
    os << "\nAverage: " << alt << " " << averageOver(rows, speedup<1>)
       << sep << "Memento " << averageOver(rows, speedup<2>) << "\n";
}

Rows
isoStorageRows()
{
    // The HOT's 3.4 KB of SRAM given to the L1D instead: a ninth way
    // at the same set count (36 KB) and the same latency.
    MachineConfig iso_cfg = defaultConfig();
    iso_cfg.l1d = CacheConfig{36 << 10, 9, iso_cfg.l1d.latency};
    return rowsOf(specsOf({"html", "aes", "jl", "US", "UM"}),
                  {defaultConfig(), iso_cfg, mementoConfig()});
}

void
footerIsoStorage(const Rows &rows, std::ostream &os)
{
    printVersusMemento(rows, "iso-L1D", ", ", os);
    os << "Paper: iso-storage ~1.03 overall vs Memento up to 1.28\n";
}

Rows
populateRows()
{
    MachineConfig pop_cfg = defaultConfig();
    pop_cfg.kernel.mapPopulate = true;
    return rowsOf(workloadsByDomain(Domain::Function),
                  {defaultConfig(), pop_cfg});
}

void
footerPopulate(const Rows &rows, std::ostream &os)
{
    os << "\nPer-language averages:\n";
    forEachGroup(rows, kLang, [&](const std::string &lang, const Keep &in) {
        os << "  " << lang << ": perf x" << averageOver(rows, speedup<>, in)
           << ", footprint x" << averageOver(rows, footprint, in) << "\n";
    });
    os << "\nPaper: Golang +3% perf but 8.6x footprint; "
          "Python/C++ ~no speedup change, +9.6% memory\n";
}

/**
 * Extension (not in the paper): can transparent huge pages capture
 * Memento's gains in software? THP collapses up to 512 demand faults
 * into one and widens TLB reach, but zeroes 2 MiB per fault, wastes
 * footprint on sparse heaps, and leaves the userspace allocator half of
 * Table 2 untouched.
 */
Rows
thpRows()
{
    MachineConfig thp_cfg = defaultConfig();
    thp_cfg.kernel.transparentHugePages = true;
    return rowsOf(specsOf({"html", "bfs", "jd", "html-go", "bfs-go", "US"}),
                  {defaultConfig(), thp_cfg, mementoConfig()});
}

/** The kernel MM cycles THP leaves, as a share of the baseline's. */
double
kernelMmLeft(R row)
{
    return ratio(static_cast<double>(row.runs[1].kernelMmCycles()),
                 static_cast<double>(row.runs[0].kernelMmCycles()));
}

void
footerThp(const Rows &rows, std::ostream &os)
{
    printVersusMemento(rows, "THP", " vs ", os);
    os << "THP attacks only the kernel half of Table 2; the "
          "userspace allocator path is untouched.\n";
}

/** A row per (workload, arena size), running baseline and Memento. */
Rows
tuningRows()
{
    Rows rows;
    for (const WorkloadSpec &spec : specsOf({"html", "jd", "mk"})) {
        for (std::uint64_t arena_kb : {256u, 512u, 1024u}) {
            MachineConfig base = defaultConfig();
            MachineConfig memento = mementoConfig();
            base.tuning.pymallocArenaBytes = arena_kb << 10;
            memento.tuning.pymallocArenaBytes = arena_kb << 10;
            rows.push_back({spec, {base, memento}, {}});
        }
    }
    return rows;
}

std::string
arenaKbCell(R row)
{
    return std::to_string(row.configs[0].tuning.pymallocArenaBytes >> 10);
}

void
footerTuning(const Rows &, std::ostream &os)
{
    os << "\nPaper: larger arenas cut mmap frequency; Memento "
          "speedup changes by <1%; footprint unaffected\n";
}

/**
 * §6.6 fragmentation: RunResult::fragInactiveFraction, the share of
 * small-object slots in allocated arenas that hold no live object,
 * Memento versus the software allocators. It is sampled at the run's
 * highest-live-bytes point, checked every 4096 mallocs, and at function
 * exit only when no check qualified. Paper: 3.68% of Memento's header
 * slots inactive on average, within ±2% of the software allocators.
 */
Rows
fragmentationRows()
{
    return rowsOf(allWorkloads(), {defaultConfig(), mementoConfig()});
}

template <std::size_t K>
double
inactive(R row)
{
    return row.runs[K].fragInactiveFraction;
}

double
inactiveDelta(R row)
{
    return inactive<1>(row) - inactive<0>(row);
}

void
footerFragmentation(const Rows &rows, std::ostream &os)
{
    os << "\nMemento average inactive slots: "
       << percentStr(averageOver(rows, inactive<1>), 2)
       << " (paper: 3.68%); average delta vs software: "
       << percentStr(averageOver(rows, inactiveDelta), 2)
       << " (paper: within ±2%)\n";
}

/** Baseline and Memento, both cold: the only two runs the table reads. */
Rows
coldstartRows()
{
    return rowsOf(workloadsByDomain(Domain::Function),
                  {defaultConfig(), mementoConfig()});
}

void
footerColdstart(const Rows &rows, std::ostream &os)
{
    double lo = 1e9, hi = 0.0;
    for (const FigureRow &row : rows) {
        lo = std::min(lo, speedup(row));
        hi = std::max(hi, speedup(row));
    }
    os << "\nCold-start speedup range: " << lo << " - " << hi << " (avg "
       << averageOver(rows, speedup<>) << ")\n";
    os << "Paper: 1.07 - 1.22 with cold starts\n";
}

Rows
mallaccRows()
{
    MachineConfig mallacc_cfg = mementoConfig();
    mallacc_cfg.memento.mallaccMode = true;
    return rowsOf(specsOf({"US", "UM", "CM", "MI"}),
                  {defaultConfig(), mallacc_cfg, mementoConfig()});
}

void
footerMallacc(const Rows &rows, std::ostream &os)
{
    printVersusMemento(rows, "Mallacc", ", ", os);
    os << "Paper: Mallacc 1.05-1.10 (avg 1.08) vs Memento "
          "1.12-1.20 (avg 1.16)\n";
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
 * context-switch obligations (HOT flush + TLB flush) cost. Draws
 * traces from the engine's cache and fans its trials over the
 * engine's worker count.
 */
void
renderMultiproc(const Rows &, const FigureProfiles &, SweepEngine &engine,
                std::ostream &os)
{
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

// ---- Design-choice ablations (DESIGN.md) -----------------------------

constexpr unsigned kAblObjects[] = {32, 64, 128, 256};
constexpr unsigned kAblRefill[] = {16, 64, 256};
constexpr Cycles kAblHotLatency[] = {1, 2, 4, 8};

/** One html row: the baseline, then the Memento variants in render order. */
Rows
ablationRows()
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
    return rowsOf(specsOf({"html"}), cfgs);
}

void
renderAblation(const Rows &rows, const FigureProfiles &, SweepEngine &,
               std::ostream &os)
{
    const std::vector<RunResult> &runs = rows.front().runs;
    // The Memento variants, consumed in ablationRows() order.
    auto variant = runs.begin() + 1;
    auto speedup = [&](const RunResult &mem) {
        return fixedStr(static_cast<double>(runs[0].cycles) /
                            static_cast<double>(mem.cycles),
                        4);
    };

    os << "Objects per arena (paper picks 256; the header's\n"
          "bitmap field caps the arena at 256 objects):\n";
    TextTable objects({"objects/arena", "Speedup", "Inactive slots",
                       "Arena grants"});
    for (unsigned objs : kAblObjects) {
        const RunResult &mem = *variant++;
        objects.row({std::to_string(objs), speedup(mem),
                     percentStr(mem.fragInactiveFraction, 2),
                     mem.objAllocs() == 0
                         ? std::string("-")
                         : std::to_string(mem.arenaGrants())});
    }
    objects.print(os);

    os << "\nEager arena prefetch (§3.1 optimization):\n";
    TextTable prefetch({"prefetch", "Speedup", "HOT alloc miss"});
    for (const char *name : {"eager", "demand"}) {
        const RunResult &mem = *variant++;
        prefetch.row(
            {name, speedup(mem), std::to_string(mem.hotAllocMisses())});
    }
    prefetch.print(os);

    os << "\nMain-memory bypass (§3.3):\n";
    TextTable bypass({"bypass", "Speedup", "DRAM MB"});
    for (const char *name : {"on", "off"}) {
        const RunResult &mem = *variant++;
        bypass.row(
            {name, speedup(mem), std::to_string(mem.dramBytes() >> 20)});
    }
    bypass.print(os);

    os << "\nPage-pool refill batch (OS grants per refill):\n";
    TextTable refills({"refill pages", "Speedup", "Pool refills",
                       "Peak pages"});
    for (unsigned refill : kAblRefill) {
        const RunResult &mem = *variant++;
        refills.row({std::to_string(refill), speedup(mem),
                     std::to_string(mem.poolRefills()),
                     std::to_string(mem.peakResidentPages)});
    }
    refills.print(os);

    os << "\nHOT access latency:\n";
    TextTable latency({"HOT cycles", "Speedup"});
    for (Cycles lat : kAblHotLatency)
        latency.row({std::to_string(lat), speedup(*variant++)});
    latency.print(os);
}

/** The one renderer of every data entry. */
void
renderTable(const Figure &fig, const Rows &rows, std::ostream &os)
{
    std::vector<std::string> headers = {"Workload"};
    headers.reserve(fig.columns.size() + 1);
    for (const FigureColumn &col : fig.columns)
        headers.emplace_back(col.header);
    TextTable t(std::move(headers));
    for (const FigureRow &row : rows) {
        t.newRow();
        t.cell(row.spec.id);
        for (const FigureColumn &col : fig.columns)
            t.cell(col.cell(row));
    }
    t.print(os);
    if (fig.footer != nullptr)
        fig.footer(rows, os);
}

} // namespace

const std::vector<Figure> &
allFigures()
{
    static const std::vector<Figure> figures = {
        // Characterization (§2.2)
        {.id = "fig02_alloc_size", .title = "Fig. 2: Allocation size (Bytes)",
         .render = renderFig02},
        {.id = "fig03_lifetime",
         .title = "Fig. 3: Allocation lifetime (malloc-free distance)",
         .render = renderFig03},
        {.id = "tab01_joint",
         .title = "Table 1: Combined distribution of size and lifetime",
         .render = renderTab01},
        {.id = "tab02_cycles",
         .title = "Table 2: Memory management cycles breakdown (baseline)",
         .rows = [] { return rowsOf(allWorkloads(), {defaultConfig()}); },
         .footer = footerTab02,
         .columns = {kGroup,
                     {"User MM", countCell<0, &RunResult::userMmCycles>},
                     {"Kernel MM", countCell<0, &RunResult::kernelMmCycles>},
                     {"User/Kernel",
                      [](R r) {
                          return percentStr(userMmShare(r)) + "/" +
                                 percentStr(kernelMmShare(r));
                      }},
                     {"MM share of cycles", percentCell<mmShareOfCycles>}}},
        {.id = "tab03_config", .title = "Table 3: Simulation configuration",
         .render = renderTab03},
        // Headline evaluation (§6)
        {.id = "fig08_speedup", .title = "Fig. 8: Normalized speedup",
         .rows = compareAllRows, .footer = footerFig08,
         .columns = {kGroup,
                     {"Base cycles", countCell<0, &RunResult::cycles>},
                     {"Memento cycles", countCell<1, &RunResult::cycles>},
                     {"Speedup", fixedCell<speedup<>, 3>},
                     {"",
                      [](R r) {
                          return asciiBar((speedup(r) - 1.0) / 0.4, 20);
                      }}}},
        {.id = "fig09_breakdown",
         .title = "Fig. 9: Performance gains breakdown (% saved cycles)",
         .rows = compareAllRows, .footer = footerFig09,
         .columns = {kGroup,
                     {"obj-alloc", percentCell<saved<&Breakdown::objAlloc>>},
                     {"obj-free", percentCell<saved<&Breakdown::objFree>>},
                     {"page-mgmt", percentCell<saved<&Breakdown::pageMgmt>>},
                     {"bypass", percentCell<saved<&Breakdown::bypass>>}}},
        {.id = "fig10_bandwidth",
         .title = "Fig. 10: Normalized memory bandwidth reduction",
         .rows = compareAllRows, .footer = footerFig10,
         .columns = {kGroup,
                     {"Base MB",
                      [](R r) {
                          return std::to_string(r.runs[0].dramBytes() >> 20);
                      }},
                     {"Memento MB",
                      [](R r) {
                          return std::to_string(r.runs[1].dramBytes() >> 20);
                      }},
                     {"Reduction", percentCell<bandwidthReduction>},
                     {"Bypass share", percentCell<bypassShare>}}},
        {.id = "fig11_memusage",
         .title = "Fig. 11: Normalized aggregate memory usage",
         .rows = compareAllRows, .footer = footerFig11,
         .columns = {kGroup,
                     {"User", fixedCell<usage<kUser>>},
                     {"Kernel", fixedCell<usage<kKernel>>},
                     {"Total", fixedCell<usage<kUser, kKernel>>}}},
        {.id = "fig12_hot_hitrate",
         .title = "Fig. 12: Hardware object table hit rate",
         .rows = compareAllRows, .footer = footerFig12,
         .columns = {kGroup,
                     {"allocs", countCell<1, kAllocHits, kAllocMisses>},
                     {"alloc hit", percentCell<allocHitRate>},
                     {"frees", countCell<1, kFreeHits, kFreeMisses>},
                     {"free hit", percentCell<freeHitRate>}}},
        {.id = "fig13_arena_list_ops",
         .title = "Fig. 13: Arena list operation frequency",
         .rows = compareAllRows, .footer = footerFig13,
         .columns = {kGroup,
                     {"alloc list ops (% of allocs)",
                      percentCell<allocListShare, 3>},
                     {"free list ops (% of frees)",
                      percentCell<freeListShare, 3>}}},
        {.id = "fig14_pricing",
         .title = "Fig. 14: Normalized function runtime pricing",
         .rows = compareFunctionRows, .footer = footerFig14,
         .columns = {{"Base ms", fixedCell<executionMs<0>>},
                     {"Memento ms", fixedCell<executionMs<1>>},
                     {"Base MB", fixedCell<megabytes<0>, 1>},
                     {"Memento MB", fixedCell<megabytes<1>, 1>},
                     {"Runtime cost", fixedCell<runtimePrice, 3>},
                     {"End-to-end", fixedCell<totalPrice, 3>}}},
        // Sensitivity studies and comparisons (§6.1, §6.6, §6.7)
        {.id = "sens_iso_storage",
         .title = "Iso-storage comparison (9-way L1D vs Memento)",
         .rows = isoStorageRows, .footer = footerIsoStorage,
         .columns = {{"Iso-L1D speedup", fixedCell<speedup<1>, 3>},
                     {"Memento speedup", fixedCell<speedup<2>, 3>}}},
        {.id = "sens_populate", .title = "MAP_POPULATE sensitivity",
         .rows = populateRows, .footer = footerPopulate,
         .columns = {kLang,
                     {"Perf vs base", fixedCell<speedup<>, 3>},
                     {"Footprint vs base", fixedCell<footprint>}}},
        {.id = "sens_multiproc",
         .title = "Multi-process context-switch sensitivity",
         .render = renderMultiproc},
        {.id = "sens_thp", .title = "Transparent huge pages vs Memento",
         .rows = thpRows, .footer = footerThp,
         .columns = {kLang,
                     {"THP speedup", fixedCell<speedup<1>, 3>},
                     {"Memento speedup", fixedCell<speedup<2>, 3>},
                     {"THP footprint", fixedCell<footprint>},
                     {"kernel MM left", percentCell<kernelMmLeft>}}},
        {.id = "sens_tuning",
         .title = "Software-allocator tuning sensitivity (pymalloc arena "
                  "size)",
         .rows = tuningRows, .footer = footerTuning,
         .columns = {{"Arena KB", arenaKbCell},
                     {"Base cycles", countCell<0, &RunResult::cycles>},
                     {"mmap calls", countCell<0, &RunResult::mmapCalls>},
                     {"Memento speedup", fixedCell<speedup<>, 3>},
                     {"Peak pages",
                      countCell<0, &RunResult::peakResidentPages>}}},
        {.id = "sens_fragmentation",
         .title = "Fragmentation (inactive small-object slots)",
         .rows = fragmentationRows, .footer = footerFragmentation,
         .columns = {kGroup,
                     {"Software", percentCell<inactive<0>, 2>},
                     {"Memento", percentCell<inactive<1>, 2>},
                     {"Delta", percentCell<inactiveDelta, 2>}}},
        {.id = "sens_coldstart", .title = "Cold-start sensitivity",
         .rows = coldstartRows,
         .opts = {.coldStart = true},
         .footer = footerColdstart,
         .columns = {kGroup, {"Cold speedup", fixedCell<speedup<>, 3>}}},
        {.id = "comp_mallacc",
         .title = "Comparison with idealized Mallacc (DeathStarBench)",
         .rows = mallaccRows, .footer = footerMallacc,
         .columns = {{"Mallacc speedup", fixedCell<speedup<1>, 3>},
                     {"Memento speedup", fixedCell<speedup<2>, 3>}}},
        // Design-choice ablations (DESIGN.md)
        {.id = "abl_design", .title = "Design ablations (workload: html)",
         .rows = ablationRows, .render = renderAblation},
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
    // Every entry's cells, rows x configs in row-major order; each
    // distinct cell becomes one task, and index maps a cell to it.
    std::vector<Rows> rows(figs.size());
    std::vector<SweepTask> tasks;
    std::map<CellIdentity, std::size_t> index;
    for (std::size_t f = 0; f < figs.size(); ++f) {
        if (figs[f]->rows != nullptr)
            rows[f] = figs[f]->rows();
        for (const FigureRow &row : rows[f]) {
            for (const MachineConfig &cfg : row.configs) {
                SweepTask task{row.spec, cfg, figs[f]->opts, nullptr, {}};
                if (index.try_emplace(cellIdentity(row.spec.id, cfg, task.opts),
                                      tasks.size()).second)
                    tasks.push_back(std::move(task));
            }
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
    for (std::size_t f = 0; f < figs.size(); ++f) {
        for (FigureRow &row : rows[f]) {
            for (const MachineConfig &cfg : row.configs) {
                const CellIdentity id =
                    cellIdentity(row.spec.id, cfg, figs[f]->opts);
                row.runs.push_back(outcomes[index.at(id)].result);
            }
        }
    }

    // The profiled entries read every workload's trace; a sweep over
    // the same workloads has already synthesized it.
    std::vector<TraceProfile> profiles;
    const FigureProfiles lazy_profiles =
        [&]() -> const std::vector<TraceProfile> & {
        if (profiles.empty()) {
            const std::vector<WorkloadSpec> &specs = allWorkloads();
            profiles.resize(specs.size());
            parallelFor(specs.size(), engine.effectiveJobs(),
                        [&](std::size_t i) {
                            profiles[i] = profileTrace(
                                *engine.traceCache().get(specs[i]));
                        });
        }
        return profiles;
    };

    for (std::size_t f = 0; f < figs.size(); ++f) {
        os << "=== " << figs[f]->title << " ===\n\n";
        if (figs[f]->render != nullptr)
            figs[f]->render(rows[f], lazy_profiles, engine, os);
        else
            renderTable(*figs[f], rows[f], os);
    }
}

} // namespace memento
