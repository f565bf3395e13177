#include "fleet/arrivals.h"

#include <algorithm>
#include <cmath>

#include "sa/config_lint.h"
#include "sim/error.h"
#include "sim/rng.h"

namespace memento {
namespace {

/**
 * The diurnal load curve: relative rate at each of 24 "hours",
 * normalized below so the long-run mean matches fleet.rate_rps. The
 * shape is the usual consumer-facing tide — a night trough, a morning
 * ramp, a midday plateau, an evening peak.
 */
constexpr double kDayCurve[24] = {
    0.35, 0.30, 0.25, 0.22, 0.22, 0.28, 0.45, 0.70,
    1.00, 1.20, 1.30, 1.35, 1.30, 1.25, 1.20, 1.20,
    1.25, 1.40, 1.60, 1.75, 1.60, 1.30, 0.90, 0.55,
};

/** Piecewise-linear read of the day curve at phase @p u in [0, 1). */
double
dayCurveAt(double u)
{
    const double pos = u * 24.0;
    const auto i = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(i);
    const double a = kDayCurve[i % 24];
    const double b = kDayCurve[(i + 1) % 24];
    return a + (b - a) * frac;
}

double
dayCurveMean()
{
    double sum = 0.0;
    for (const double v : kDayCurve)
        sum += v;
    return sum / 24.0;
}

double
dayCurveMax()
{
    return *std::max_element(std::begin(kDayCurve), std::end(kDayCurve));
}

} // namespace

bool
validArrivalKind(std::string_view kind)
{
    return kind == "poisson" || kind == "bursty" || kind == "diurnal";
}

std::vector<Arrival>
generateArrivals(const MachineConfig &cfg, std::size_t num_workloads)
{
    const FleetConfig &fleet = cfg.fleet;
    checkConfig(cfg, ConfigRules::Fleet);
    sim_error_if(num_workloads == 0, ErrorCategory::Config,
                 "fleet: the workload mix is empty");
    sim_error_if(num_workloads > kMaxFleetWorkloads, ErrorCategory::Config,
                 "fleet: the workload mix holds ", num_workloads,
                 " workloads, more than the limit of ", kMaxFleetWorkloads);

    const double cycles_per_sec = cfg.core.freqGhz * 1.0e9;
    const double mean_rate = fleet.ratePerSec;

    // Thinning needs the peak rate and the instantaneous fraction
    // rate(t)/peak; the homogeneous Poisson process is the special
    // case where the fraction is identically 1 (no acceptance draw).
    double peak_rate = mean_rate;
    // Bursty: off-rate scaled so the on/off mixture's mean stays
    // fleet.rate_rps.
    const double burst_frac =
        std::min(1.0, fleet.burstMs / fleet.periodMs);
    const double off_rate =
        mean_rate /
        (1.0 - burst_frac + fleet.burstFactor * burst_frac);
    // Diurnal: one "day" is compressed into the expected generation
    // window, and the curve is normalized to mean 1.
    const double window_sec =
        static_cast<double>(fleet.invocations) / mean_rate;
    const double curve_scale = 1.0 / dayCurveMean();
    if (fleet.arrival == "bursty")
        peak_rate = off_rate * fleet.burstFactor;
    else if (fleet.arrival == "diurnal")
        peak_rate = mean_rate * dayCurveMax() * curve_scale;

    const auto rate_fraction = [&](double t_sec) -> double {
        if (fleet.arrival == "bursty") {
            const double phase_ms =
                std::fmod(t_sec * 1.0e3, fleet.periodMs);
            const double rate =
                phase_ms < fleet.burstMs ? off_rate * fleet.burstFactor
                                         : off_rate;
            return rate / peak_rate;
        }
        if (fleet.arrival == "diurnal") {
            const double u =
                std::fmod(t_sec / window_sec, 1.0);
            const double rate =
                mean_rate * dayCurveAt(u) * curve_scale;
            return rate / peak_rate;
        }
        return 1.0;
    };

    Rng rng(fleet.seed);
    std::vector<Arrival> arrivals;
    arrivals.reserve(fleet.invocations);
    double t_sec = 0.0;
    while (arrivals.size() < fleet.invocations) {
        // Candidate gap at the peak rate; 1 - u keeps the argument of
        // log strictly positive (nextDouble() is in [0, 1)).
        const double u = rng.nextDouble();
        t_sec += -std::log(1.0 - u) / peak_rate;
        const double fraction = rate_fraction(t_sec);
        if (fraction < 1.0 && rng.nextDouble() >= fraction)
            continue; // Thinned away: not an arrival at this rate.
        const double at_cycles = t_sec * cycles_per_sec;
        sim_error_if(at_cycles >= static_cast<double>(kMaxArrivalCycles),
                     ErrorCategory::Config, "fleet: arrival ",
                     arrivals.size(), " lands at ", t_sec,
                     " s, past the arrival window limit of 2^56 cycles (",
                     static_cast<double>(kMaxArrivalCycles) /
                         cycles_per_sec,
                     " s at ", cfg.core.freqGhz,
                     " GHz); lower fleet.invocations or raise "
                     "fleet.rate_rps");
        arrivals.push_back(
            {static_cast<Cycles>(at_cycles), rng.nextBelow(num_workloads)});
    }
    return arrivals;
}

} // namespace memento
