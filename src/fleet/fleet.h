/**
 * @file
 * Fleet-scale serverless node simulation (ROADMAP item 1: the
 * "millions of users" scenario).
 *
 * One `memento_sim fleet` run models a whole multi-tenant node instead
 * of a single invocation: an open-loop arrival process (fleet/arrivals.h)
 * dispatches thousands of function invocations across fleet.cores
 * simulated cores under a keep-alive policy (idle instances stay warm
 * for fleet.keep_alive_ms) and a memory-pressure policy (cold starts
 * that would push node RSS past fleet.memory_budget_pages first evict
 * idle instances LRU-first, reclaiming their arenas; if pressure still
 * cannot be relieved the arrival is rejected).
 *
 * The simulation is two-staged so it scales to fleets:
 *
 *  1. Profile stage (parallel): each distinct workload in the mix is
 *     run once through Experiment via the SweepEngine — the same
 *     thread pool, result-store caching, and slot-merge
 *     machinery as `run all`, so profiles are byte-identical at any
 *     --jobs level and resume from a --cache store for free. A profile
 *     is the invocation's service time (cycles), its resident-set size
 *     (pages), and the HOT residue it leaves on a core (valid entries).
 *  2. Fleet stage (serial, integer-cycle event loop): arrivals are
 *     replayed in time order against per-core and per-instance state.
 *     A context switch onto a core and a cold start's container set-up
 *     charge the same definitions Machine and FunctionExecutor charge
 *     (os/kernel_cost.h): contextSwitchCycles() of the HOT residue the
 *     core's previous instance left, and kContainerSetupInstructions
 *     at the core's IPC.
 *
 * Everything the fleet stage computes is integer cycles and counters;
 * reported doubles (latency percentiles in ms, throughput, packing
 * density) are derived at render time from those integers, so output
 * is byte-identical across --jobs levels and across resume-from-store.
 * An FNV-1a digest over the complete arrival-by-arrival outcome makes
 * "byte-identical" cheap to assert end to end.
 */

#ifndef MEMENTO_FLEET_FLEET_H
#define MEMENTO_FLEET_FLEET_H

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "fleet/arrivals.h"
#include "sim/config.h"
#include "sim/logging.h"
#include "wl/workloads.h"

namespace memento {

class SweepEngine;

/** Per-invocation profile of one workload in the mix (stage 1). */
struct FleetProfile
{
    std::string id;
    /** Service time of one warm invocation (cycles). */
    Cycles serviceCycles = 0;
    /** Resident-set size one instance pins (pages). */
    std::uint64_t pages = 0;
    /** HOT entries a finished invocation leaves valid on its core. */
    std::uint64_t hotValidEntries = 0;
};

/**
 * Everything the fleet stage produces, as integers. The doubles every
 * report shows (ms percentiles, throughput, packing density) are
 * derived from these on demand, never stored, so two runs agree on
 * the doubles exactly iff they agree on this struct.
 */
struct FleetMetrics
{
    std::uint64_t arrivals = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t coldStarts = 0;
    std::uint64_t warmHits = 0;
    std::uint64_t evictions = 0;   ///< Instances evicted under pressure.
    std::uint64_t expirations = 0; ///< Instances whose keep-alive lapsed.
    /** Last completion time (cycles from window start). */
    Cycles makespanCycles = 0;
    /** Nearest-rank invocation latency percentiles (cycles). */
    Cycles p50Cycles = 0;
    Cycles p99Cycles = 0;
    Cycles p999Cycles = 0;
    std::uint64_t peakRssPages = 0;
    /** Integral of resident instance count over cycles (packing). */
    std::uint64_t residencyCycleArea = 0;
    /** FNV-1a digest over the complete fleet outcome. */
    std::uint64_t digest = 0;

    bool operator==(const FleetMetrics &) const = default;

    // ---- Derived report values (pure functions of the integers) ----
    double latencyMs(const MachineConfig &cfg, Cycles latency) const;
    /** completed / makespan, in invocations per second. */
    double throughputRps(const MachineConfig &cfg) const;
    /** coldStarts / completed (0 when nothing completed). */
    double coldStartRate() const;
    /** Time-averaged resident instances (packing density). */
    double packingDensity() const;
};

/** The full fleet result. */
struct FleetReport
{
    /** The fleet configuration the run used (echoed into reports). */
    FleetConfig fleet;
    /** Stage-1 profiles, in mix order. */
    std::vector<FleetProfile> profiles;
    FleetMetrics metrics;
};

/**
 * Resolve fleet.mix to workload specs: "function" (the 14 function
 * workloads), "all" (all 23), or one workload id. fatal()s on an
 * unknown id, like workloadById.
 */
std::vector<WorkloadSpec> fleetMix(const FleetConfig &fleet);

/**
 * Cost of reclaiming an evicted instance's memory (@p pages).
 * Baseline: munmap per-page teardown. With Memento: arena-granular
 * reclamation — the hardware frees whole arenas back to the page pool,
 * so the kernel tears down one unit per arena span instead of one per
 * page (see DESIGN.md §10).
 */
Cycles fleetReclaimCost(const MachineConfig &cfg, std::uint64_t pages);

/**
 * Offered load rho = lambda * E[S] / c: fleet.rate_rps times the mean
 * service time of @p profiles (seconds, a uniform mix, as arrivals
 * draw workloads uniformly), over fleet.cores. rho >= 1 means the node
 * is overloaded and latencies measure the backlog. 0 when @p profiles
 * is empty.
 */
double fleetOfferedLoad(const MachineConfig &cfg,
                        const std::vector<FleetProfile> &profiles);

/**
 * The nearest rank of percentile @p num / @p den among @p n values:
 * ceil(num/den * n), at least 1; 0 when @p n is 0.
 */
constexpr std::uint64_t
percentileRank(std::uint64_t n, std::uint64_t num, std::uint64_t den)
{
    if (n == 0)
        return 0;
    return std::max<std::uint64_t>(1, (num * n + den - 1) / den);
}

/**
 * The @p rank-th smallest (from 1) of @p values. Selects with
 * std::nth_element over values[from..], so @p values is reordered, and
 * sets @p from to the selected index. Start with from = 0; passing the
 * updated @p from to the next call, at a rank no lower, selects from
 * the suffix the previous call left, which holds every value not below
 * its pick.
 */
template <typename T>
T
selectRank(std::vector<T> &values, std::uint64_t rank, std::size_t &from)
{
    // At or below `from` is below an earlier selection's index.
    panic_if(rank <= from || rank > values.size(), "selectRank: rank ",
             rank, " outside ", from + 1, "..", values.size());
    const auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank - 1);
    std::nth_element(values.begin() + static_cast<std::ptrdiff_t>(from),
                     nth, values.end());
    from = rank - 1;
    return *nth;
}

/**
 * Nearest-rank percentile @p num / @p den of @p values: the
 * percentileRank-th smallest, 0 when empty. Chains through @p from as
 * selectRank does.
 */
template <typename T>
T
nearestRank(std::vector<T> &values, std::uint64_t num, std::uint64_t den,
            std::size_t &from)
{
    if (values.empty())
        return 0;
    return selectRank(values, percentileRank(values.size(), num, den), from);
}

/**
 * Invocation latencies in two widths: one below 2^32 cycles takes
 * 4 bytes, a wider one 8. Every wide value outranks every narrow one,
 * so with n narrow values rank r lies among them when r <= n and is
 * the (r - n)-th wide value otherwise; no value is ever copied or
 * widened.
 */
class LatencyLog
{
  public:
    /**
     * A log for up to @p expected values: the narrow half reserves
     * them all up front, and the wide half reserves the values still
     * expected when its first value arrives.
     */
    explicit LatencyLog(std::size_t expected) : expected_(expected)
    {
        narrow_.reserve(expected);
    }

    void
    push(Cycles latency)
    {
        if (latency <= UINT32_MAX) [[likely]] {
            narrow_.push_back(static_cast<std::uint32_t>(latency));
            return;
        }
        if (wide_.empty() && expected_ > size())
            wide_.reserve(expected_ - size());
        wide_.push_back(latency);
    }

    std::size_t size() const { return narrow_.size() + wide_.size(); }

    /**
     * Nearest-rank percentile @p num / @p den of every value pushed, 0
     * when none was. Reorders the log; successive calls at ranks that
     * do not fall chain like nearestRank's, each selecting from the
     * suffix the previous one left.
     */
    Cycles
    nearestRank(std::uint64_t num, std::uint64_t den)
    {
        const std::uint64_t rank = percentileRank(size(), num, den);
        if (rank == 0)
            return 0;
        if (rank <= narrow_.size())
            return selectRank(narrow_, rank, narrowFrom_);
        return selectRank(wide_, rank - narrow_.size(), wideFrom_);
    }

  private:
    std::size_t expected_;
    std::vector<std::uint32_t> narrow_;
    std::vector<Cycles> wide_;
    std::size_t narrowFrom_ = 0;
    std::size_t wideFrom_ = 0;
};

/**
 * Canonical `key=value` text of the fleet shape (the fleet.* keys of
 * @p cfg), folded into the fleet digest: the fleet analogue of
 * canonicalConfigText, which deliberately excludes fleet.*.
 */
std::string fleetCanonicalText(const MachineConfig &cfg);

/**
 * The fleet stage alone: replay @p arrivals (time-ordered) against
 * @p profiles under cfg.fleet policy. Exposed separately so the
 * property/fuzz tests can drive hand-built arrival traces and profiles
 * through the exact production scheduler.
 */
FleetMetrics simulateFleet(const std::vector<Arrival> &arrivals,
                           const std::vector<FleetProfile> &profiles,
                           const MachineConfig &cfg);

/**
 * Both stages: profile the mix through @p engine (its jobs, result
 * store and stop flag), generate arrivals, and run the fleet. Only the
 * profiles are cached. Returns nullopt when the engine's stop flag
 * skipped a profile; throws SimError when a profile run fails or the
 * fleet config is invalid.
 */
std::optional<FleetReport> runFleet(const MachineConfig &cfg,
                                    SweepEngine &engine);

/** Versioned JSON document (kind "fleet"). */
void writeFleetJson(std::ostream &os, const FleetReport &report,
                    const MachineConfig &cfg);

/** Human-readable rendering, digest line included. */
void printFleetText(std::ostream &os, const FleetReport &report,
                    const MachineConfig &cfg);

} // namespace memento

#endif // MEMENTO_FLEET_FLEET_H
