#include "fleet/fleet.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <ostream>

#include "machine/sweep.h"
#include "os/kernel_cost.h"
#include "os/virtual_memory.h"
#include "sim/config_canon.h"
#include "sim/error.h"
#include "sim/json.h"
#include "val/digest.h"

namespace memento {
namespace {

/** Sentinel folded into the digest for a rejected arrival. */
constexpr std::uint64_t kRejectedMark = ~0ull;

/** "No instance" index into the resident-instance vector. */
constexpr std::size_t kNoInstance = ~std::size_t{0};

/** One core of the simulated node. */
struct CoreState
{
    /** The core is busy until this cycle. */
    Cycles freeAt = 0;
    /** Instance id whose state the core last ran (0 = fresh core). */
    std::uint64_t lastInstance = 0;
    /** HOT entries that instance left valid (flushed on next switch). */
    std::uint64_t lastHotValid = 0;
};

/** One resident function instance (warm container). */
struct InstanceState
{
    /** Creation order, from 1; the instances vector ascends in it. */
    std::uint64_t id = 0;
    std::size_t workload = 0;
    unsigned core = 0;
    std::uint64_t pages = 0;
    /** Busy until this cycle; idle (warm) afterwards. */
    Cycles busyUntil = 0;
};

} // namespace

double
FleetMetrics::latencyMs(const MachineConfig &cfg, Cycles latency) const
{
    return cfg.cyclesToMs(latency);
}

double
FleetMetrics::throughputRps(const MachineConfig &cfg) const
{
    if (makespanCycles == 0)
        return 0.0;
    return static_cast<double>(completed) * cfg.core.freqGhz * 1.0e9 /
           static_cast<double>(makespanCycles);
}

double
FleetMetrics::coldStartRate() const
{
    if (completed == 0)
        return 0.0;
    return static_cast<double>(coldStarts) /
           static_cast<double>(completed);
}

double
FleetMetrics::packingDensity() const
{
    if (makespanCycles == 0)
        return 0.0;
    return static_cast<double>(residencyCycleArea) /
           static_cast<double>(makespanCycles);
}

double
fleetOfferedLoad(const MachineConfig &cfg,
                 const std::vector<FleetProfile> &profiles)
{
    if (profiles.empty() || cfg.fleet.cores == 0)
        return 0.0;
    double sum = 0.0;
    for (const FleetProfile &p : profiles)
        sum += static_cast<double>(p.serviceCycles);
    const double mean_s = sum / static_cast<double>(profiles.size()) /
                          (cfg.core.freqGhz * 1.0e9);
    return cfg.fleet.ratePerSec * mean_s /
           static_cast<double>(cfg.fleet.cores);
}

std::vector<WorkloadSpec>
fleetMix(const FleetConfig &fleet)
{
    if (fleet.mix == "function")
        return workloadsByDomain(Domain::Function);
    if (fleet.mix == "all")
        return allWorkloads();
    return {workloadById(fleet.mix)};
}

Cycles
fleetReclaimCost(const MachineConfig &cfg, std::uint64_t pages)
{
    // Memento reclaims at arena granularity: the hardware returns whole
    // arena spans to the page pool, so the kernel tears down one unit
    // per span instead of one per page.
    std::uint64_t units = pages;
    if (cfg.memento.enabled) {
        const std::uint64_t pages_per_arena =
            std::max<std::uint64_t>(1, cfg.memento.objectsPerArena *
                                           kMaxSmallSize /
                                           kPageSize);
        units = (pages + pages_per_arena - 1) / pages_per_arena;
    }
    return cfg.core.instructionCycles(
        VirtualMemory::kMunmapBaseInstructions +
        VirtualMemory::kMunmapPerPageInstructions * units);
}

std::string
fleetCanonicalText(const MachineConfig &cfg)
{
    return canonicalConfigText(cfg, ConfigScope::Fleet);
}

FleetMetrics
simulateFleet(const std::vector<Arrival> &arrivals,
              const std::vector<FleetProfile> &profiles,
              const MachineConfig &cfg)
{
    const FleetConfig &fleet = cfg.fleet;
    sim_error_if(fleet.cores == 0, ErrorCategory::Config,
                 "fleet.cores must be at least 1");
    sim_error_if(profiles.empty(), ErrorCategory::Config,
                 "fleet: the workload mix is empty");

    const Cycles keep_alive = cfg.msToCycles(fleet.keepAliveMs);
    const std::uint64_t budget = fleet.memoryBudgetPages;
    const Cycles cold_setup =
        cfg.core.instructionCycles(kContainerSetupInstructions);

    std::vector<CoreState> cores(fleet.cores);
    // Resident instances in ascending id order: ids only grow, a new
    // instance appends, and expiry and eviction remove without
    // reordering, so every scan below is deterministic.
    std::vector<InstanceState> instances;
    std::uint64_t next_instance_id = 1;
    std::uint64_t rss_pages = 0;

    FleetMetrics m;
    m.arrivals = arrivals.size();

    DigestBuilder digest;
    digest.add(std::string_view("memento-fleet-state"));
    digest.add(fleetCanonicalText(cfg));
    digest.add(static_cast<std::uint64_t>(profiles.size()));
    for (const FleetProfile &p : profiles) {
        digest.add(std::string_view(p.id));
        digest.add(p.serviceCycles);
        digest.add(p.pages);
        digest.add(p.hotValidEntries);
    }

    LatencyLog latencies(arrivals.size());
    Cycles prev_t = 0;

    for (const Arrival &arr : arrivals) {
        const Cycles t = arr.atCycles;
        sim_error_if(arr.workloadIndex >= profiles.size(),
                     ErrorCategory::Config,
                     "fleet: arrival references workload ",
                     arr.workloadIndex, " outside the mix");
        const FleetProfile &prof = profiles[arr.workloadIndex];

        // Packing integral: resident count is a step function sampled
        // at arrival granularity (expirations are folded in lazily at
        // the next arrival, matching when the node would notice).
        m.residencyCycleArea +=
            static_cast<std::uint64_t>(instances.size()) * (t - prev_t);
        prev_t = t;

        // 1. Keep-alive expiry and the warm search, in one pass that
        // compacts the survivors in place. An instance idle since
        // busyUntil lapses once its idle span exceeds the keep-alive
        // window. The warm candidate is an idle, unexpired instance of
        // this workload; prefer the most recently used (tie: lowest
        // id): MRU reuse lets the cold tail expire instead of
        // round-robining it warm.
        std::size_t warm = kNoInstance;
        std::size_t kept = 0;
        for (std::size_t i = 0; i < instances.size(); ++i) {
            const InstanceState &inst = instances[i];
            if (inst.busyUntil + keep_alive <= t) {
                rss_pages -= inst.pages;
                ++m.expirations;
                continue;
            }
            if (inst.workload == arr.workloadIndex && inst.busyUntil <= t &&
                (warm == kNoInstance ||
                 inst.busyUntil > instances[warm].busyUntil))
                warm = kept;
            if (kept != i)
                instances[kept] = inst;
            ++kept;
        }
        instances.resize(kept);

        Cycles setup = 0;
        std::size_t run = warm;
        if (warm != kNoInstance) {
            ++m.warmHits;
        } else {
            // 2. Cold path: admit a new instance, evicting idle ones
            // LRU-first while over the memory budget. The munmap-model
            // reclaim cost of every eviction is charged to this
            // arrival's latency — memory pressure is not free.
            bool admitted = budget == 0 || prof.pages <= budget;
            while (budget != 0 && admitted &&
                   rss_pages + prof.pages > budget) {
                std::size_t victim = kNoInstance;
                for (std::size_t i = 0; i < instances.size(); ++i) {
                    if (instances[i].busyUntil > t)
                        continue; // Busy instances are unevictable.
                    if (victim == kNoInstance ||
                        instances[i].busyUntil < instances[victim].busyUntil)
                        victim = i;
                }
                if (victim == kNoInstance) {
                    admitted = false; // Nothing left to evict.
                    break;
                }
                const std::uint64_t pages = instances[victim].pages;
                rss_pages -= pages;
                setup += fleetReclaimCost(cfg, pages);
                ++m.evictions;
                instances.erase(instances.begin() +
                                static_cast<std::ptrdiff_t>(victim));
            }
            if (!admitted) {
                ++m.rejected;
                digest.add(t);
                digest.add(static_cast<std::uint64_t>(arr.workloadIndex));
                digest.add(kRejectedMark);
                continue;
            }
            // Place on the earliest-free core (tie: lowest index).
            unsigned core = 0;
            for (unsigned c = 1; c < cores.size(); ++c) {
                if (cores[c].freeAt < cores[core].freeAt)
                    core = c;
            }
            InstanceState inst;
            inst.id = next_instance_id++;
            inst.workload = arr.workloadIndex;
            inst.core = core;
            inst.pages = prof.pages;
            run = instances.size();
            instances.push_back(inst);
            rss_pages += prof.pages;
            m.peakRssPages = std::max(m.peakRssPages, rss_pages);
            ++m.coldStarts;
            setup += cold_setup;
        }

        // 3. Dispatch: switching the core away from another instance
        // flushes the HOT residue that instance left (kernel_cost.h).
        InstanceState &inst = instances[run];
        CoreState &core = cores[inst.core];
        const Cycles switch_cost =
            core.lastInstance != inst.id
                ? contextSwitchCycles(cfg, core.lastHotValid)
                : 0;
        const Cycles start = std::max(t, core.freeAt);
        const Cycles end =
            start + switch_cost + setup + prof.serviceCycles;
        core.freeAt = end;
        core.lastInstance = inst.id;
        core.lastHotValid = prof.hotValidEntries;
        inst.busyUntil = end;

        const Cycles latency = end - t;
        latencies.push(latency);
        ++m.completed;
        m.makespanCycles = std::max(m.makespanCycles, end);

        digest.add(t);
        digest.add(static_cast<std::uint64_t>(arr.workloadIndex));
        digest.add(latency);
    }

    // Tail of the packing integral: the window closes at the makespan.
    if (m.makespanCycles > prev_t)
        m.residencyCycleArea +=
            static_cast<std::uint64_t>(instances.size()) *
            (m.makespanCycles - prev_t);

    // Each selection runs only on the suffix the previous one left.
    m.p50Cycles = latencies.nearestRank(50, 100);
    m.p99Cycles = latencies.nearestRank(99, 100);
    m.p999Cycles = latencies.nearestRank(999, 1000);

    // Fold the counters and the final node state, so the digest pins
    // the complete outcome, not just the per-arrival trajectory.
    digest.add(m.completed);
    digest.add(m.rejected);
    digest.add(m.coldStarts);
    digest.add(m.warmHits);
    digest.add(m.evictions);
    digest.add(m.expirations);
    digest.add(m.makespanCycles);
    digest.add(m.peakRssPages);
    digest.add(m.residencyCycleArea);
    digest.add(rss_pages);
    digest.add(static_cast<std::uint64_t>(instances.size()));
    for (const CoreState &c : cores) {
        digest.add(c.freeAt);
        digest.add(c.lastInstance);
        digest.add(c.lastHotValid);
    }
    m.digest = digest.value();
    return m;
}

std::optional<FleetReport>
runFleet(const MachineConfig &cfg, SweepEngine &engine)
{
    if (!validArrivalKind(cfg.fleet.arrival)) {
        sim_error(ErrorCategory::Config, "fleet.arrival '",
                  cfg.fleet.arrival,
                  "' is not one of poisson, bursty, diurnal");
    }
    const std::vector<WorkloadSpec> mix = fleetMix(cfg.fleet);
    // Arrivals first: a window past 2^56 cycles is a config error, and
    // it must not wait for (or leave behind) a whole mix's profiles.
    const std::vector<Arrival> arrivals =
        generateArrivals(cfg, mix.size());

    FleetReport report;
    report.fleet = cfg.fleet;

    // Stage 1: profile every workload in the mix through the sweep
    // engine — default RunOptions, so `run` and fleet share the same
    // cached run cells.
    std::vector<SweepTask> tasks;
    tasks.reserve(mix.size());
    for (const WorkloadSpec &spec : mix)
        tasks.push_back(SweepTask{spec, cfg, RunOptions{}, nullptr, {}});
    const std::vector<SweepOutcome> outcomes = engine.run(tasks);

    report.profiles.reserve(mix.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const RunResult &res = outcomes[i].result;
        if (res.error) {
            SimError boxed(res.error->category,
                           "fleet: profiling workload '" + mix[i].id +
                               "' failed: " + res.error->message);
            boxed.tagOpIndex(res.error->opIndex);
            throw boxed;
        }
        // A failure skips only the tasks after it, so a skip met
        // before any failure is the stop flag's.
        if (outcomes[i].skipped)
            return std::nullopt;
        FleetProfile prof;
        prof.id = mix[i].id;
        prof.serviceCycles = res.cycles;
        prof.pages = res.peakResidentPages;
        prof.hotValidEntries = res.hotValidEntries;
        report.profiles.push_back(std::move(prof));
    }

    // Stage 2: the fleet event loop.
    report.metrics = simulateFleet(arrivals, report.profiles, cfg);
    return report;
}

void
writeFleetJson(std::ostream &os, const FleetReport &report,
               const MachineConfig &cfg)
{
    const FleetMetrics &m = report.metrics;
    JsonWriter w(os);
    w.beginObject();
    writeSchemaHeader(w, "fleet");
    w.member("code_version", codeVersionString());
    w.member("memento", cfg.memento.enabled);

    w.key("fleet").beginObject();
    w.member("arrival", report.fleet.arrival);
    w.member("rate_rps", report.fleet.ratePerSec);
    w.member("invocations", report.fleet.invocations);
    w.member("cores", report.fleet.cores);
    w.member("seed", report.fleet.seed);
    w.member("keep_alive_ms", report.fleet.keepAliveMs);
    w.member("memory_budget_pages", report.fleet.memoryBudgetPages);
    w.member("mix", report.fleet.mix);
    w.endObject();

    w.key("profiles").beginArray();
    for (const FleetProfile &p : report.profiles) {
        w.beginObject();
        w.member("workload", p.id);
        w.member("service_cycles", p.serviceCycles);
        w.member("pages", p.pages);
        w.member("hot_valid_entries", p.hotValidEntries);
        w.endObject();
    }
    w.endArray();

    w.key("metrics").beginObject();
    w.member("arrivals", m.arrivals);
    w.member("offered_load", fleetOfferedLoad(cfg, report.profiles));
    w.member("completed", m.completed);
    w.member("rejected", m.rejected);
    w.member("cold_starts", m.coldStarts);
    w.member("warm_hits", m.warmHits);
    w.member("evictions", m.evictions);
    w.member("expirations", m.expirations);
    w.member("makespan_cycles", m.makespanCycles);
    w.member("p50_cycles", m.p50Cycles);
    w.member("p99_cycles", m.p99Cycles);
    w.member("p999_cycles", m.p999Cycles);
    w.member("p50_ms", m.latencyMs(cfg, m.p50Cycles));
    w.member("p99_ms", m.latencyMs(cfg, m.p99Cycles));
    w.member("p999_ms", m.latencyMs(cfg, m.p999Cycles));
    w.member("throughput_rps", m.throughputRps(cfg));
    w.member("cold_start_rate", m.coldStartRate());
    w.member("packing_density", m.packingDensity());
    w.member("peak_rss_pages", m.peakRssPages);
    w.member("residency_cycle_area", m.residencyCycleArea);
    w.member("digest", digestToHex(m.digest));
    w.endObject();

    w.endObject();
    os << "\n";
}

void
printFleetText(std::ostream &os, const FleetReport &report,
               const MachineConfig &cfg)
{
    const FleetMetrics &m = report.metrics;
    char buf[256];

    std::snprintf(buf, sizeof(buf),
                  "fleet: %" PRIu64 " arrivals (%s @ %.1f rps), %u cores, "
                  "mix %s, memento %s\n",
                  m.arrivals, report.fleet.arrival.c_str(),
                  report.fleet.ratePerSec, report.fleet.cores,
                  report.fleet.mix.c_str(),
                  cfg.memento.enabled ? "on" : "off");
    os << buf;
    std::snprintf(buf, sizeof(buf),
                  "policy: keep-alive %.1f ms, memory budget %" PRIu64
                  " pages%s\n",
                  report.fleet.keepAliveMs, report.fleet.memoryBudgetPages,
                  report.fleet.memoryBudgetPages == 0 ? " (unbounded)" : "");
    os << buf;
    const double rho = fleetOfferedLoad(cfg, report.profiles);
    std::snprintf(buf, sizeof(buf),
                  "offered load rho = lambda * E[S] / cores = %.3f%s\n",
                  rho,
                  rho >= 1.0 ? " (overloaded: latencies measure the backlog)"
                             : "");
    os << buf;

    os << "profiles:\n";
    for (const FleetProfile &p : report.profiles) {
        std::snprintf(buf, sizeof(buf),
                      "  %-12s service %10" PRIu64 " cyc  rss %6" PRIu64
                      " pages  hot %3" PRIu64 "\n",
                      p.id.c_str(), p.serviceCycles, p.pages,
                      p.hotValidEntries);
        os << buf;
    }

    std::snprintf(buf, sizeof(buf),
                  "completed %" PRIu64 "  rejected %" PRIu64
                  "  cold starts %" PRIu64 " (%.2f%%)  warm hits %" PRIu64
                  "\n",
                  m.completed, m.rejected, m.coldStarts,
                  m.coldStartRate() * 100.0, m.warmHits);
    os << buf;
    std::snprintf(buf, sizeof(buf),
                  "evictions %" PRIu64 "  expirations %" PRIu64
                  "  peak rss %" PRIu64 " pages\n",
                  m.evictions, m.expirations, m.peakRssPages);
    os << buf;
    std::snprintf(buf, sizeof(buf),
                  "latency p50 %.3f ms  p99 %.3f ms  p99.9 %.3f ms\n",
                  m.latencyMs(cfg, m.p50Cycles),
                  m.latencyMs(cfg, m.p99Cycles),
                  m.latencyMs(cfg, m.p999Cycles));
    os << buf;
    std::snprintf(buf, sizeof(buf),
                  "throughput %.1f rps  packing density %.2f instances  "
                  "makespan %.1f ms\n",
                  m.throughputRps(cfg), m.packingDensity(),
                  cfg.cyclesToMs(m.makespanCycles));
    os << buf;
    os << "fleet digest " << digestToHex(m.digest) << "\n";
}

} // namespace memento
