/**
 * @file
 * Open-loop arrival processes for the fleet-scale node simulation.
 *
 * Three seeded, fully deterministic processes (fleet.arrival):
 *
 *  - "poisson": homogeneous Poisson arrivals at fleet.rate_rps —
 *    exponential inter-arrival gaps, the classic open-loop load model.
 *  - "bursty": an on/off modulated Poisson process. Inside each
 *    fleet.period_ms window the first fleet.burst_ms carry
 *    fleet.burst_factor times the off-phase rate; the phases are scaled
 *    so the long-run mean stays fleet.rate_rps. Models synchronized
 *    client retries and fan-out storms.
 *  - "diurnal": a piecewise-linear 24-point "day" curve (troughs at
 *    night, a morning ramp, an evening peak) compressed into the whole
 *    generated window, again mean-preserving. Models the slow tide the
 *    paper's multi-tenant node rides on.
 *
 * Non-homogeneous processes are generated by thinning (Lewis &
 * Shedler): sample candidate arrivals at the peak rate, accept each
 * with probability rate(t)/peak. Every stochastic choice flows from
 * one explicitly seeded Rng, so a (seed, config) pair always yields
 * the identical arrival vector — the determinism the fleet digest and
 * the --jobs byte-identity tests lean on.
 *
 * Every arrival also carries the index of the workload it invokes,
 * drawn uniformly from the mix. Times are integer cycles at the core
 * frequency; ties are stable (generation order is time order).
 *
 * An arrival is 8 bytes: its time fits 56 bits (kMaxArrivalCycles, about
 * 278 simulated days at 3 GHz) and its workload index 8 bits
 * (kMaxFleetWorkloads). generateArrivals refuses a window or a mix
 * beyond either limit.
 */

#ifndef MEMENTO_FLEET_ARRIVALS_H
#define MEMENTO_FLEET_ARRIVALS_H

#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/config.h"

namespace memento {

/** Arrival times are below this many cycles (2^56). */
constexpr Cycles kMaxArrivalCycles = Cycles{1} << 56;
/** A fleet mix holds at most this many workloads. */
constexpr std::size_t kMaxFleetWorkloads = 256;

/** One invocation request entering the node. */
struct Arrival
{
    /** Arrival time in cycles since the window start. */
    Cycles atCycles : 56 = 0;
    /** Index into the fleet's workload mix. */
    std::uint64_t workloadIndex : 8 = 0;
};
static_assert(sizeof(Arrival) == 8, "an arrival must stay 8 bytes");

/** True when @p kind names a supported arrival process. */
bool validArrivalKind(std::string_view kind);

/**
 * Generate fleet.invocations arrivals over @p num_workloads workloads
 * under @p cfg (rate, shape, and seed from cfg.fleet; cycle conversion
 * from cfg.core.freq_ghz). Times are non-decreasing. Throws
 * SimError(Config) on a broken fleet rule (checkConfig: the arrival
 * kind, the mix, an expected window past kMaxArrivalCycles), on more
 * than kMaxFleetWorkloads workloads, and when an arrival would land at
 * or past kMaxArrivalCycles.
 */
std::vector<Arrival> generateArrivals(const MachineConfig &cfg,
                                      std::size_t num_workloads);

} // namespace memento

#endif // MEMENTO_FLEET_ARRIVALS_H
