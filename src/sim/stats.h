/**
 * @file
 * A lightweight named-statistics registry.
 *
 * Components register counters under dotted names ("l1d.hits"). The
 * registry owns the storage; Counter is a cheap handle. Experiment
 * snapshots the whole registry at both edges of a run's measurement
 * window, and RunResult's metrics read those readings by name.
 */

#ifndef MEMENTO_SIM_STATS_H
#define MEMENTO_SIM_STATS_H

#include <cstdint>
#include <map>
#include <string>

#include "sim/thread_annotations.h"

namespace memento {

/** Handle to a registered 64-bit counter. */
class Counter
{
  public:
    Counter() = default;

    Counter &
    operator+=(std::uint64_t n)
    {
        *slot_ += n;
        return *this;
    }

    Counter &
    operator++()
    {
        ++*slot_;
        return *this;
    }

    /** Current value. */
    std::uint64_t value() const { return *slot_; }

    /** Overwrite the value (used for gauges such as peak usage). */
    void set(std::uint64_t v) { *slot_ = v; }

    /** Raise the value to @p v if larger (high-water marks). */
    void
    raiseTo(std::uint64_t v)
    {
        if (v > *slot_)
            *slot_ = v;
    }

  private:
    friend class StatRegistry;
    explicit Counter(std::uint64_t *slot) : slot_(slot) {}
    std::uint64_t *slot_ = nullptr;
};

/**
 * Owns all counters of one simulated machine.
 *
 * Deliberately not synchronized: a registry belongs to exactly one
 * Machine, and a machine is driven by exactly one thread. The parallel
 * sweep engine gives every run a fresh Machine (hence a fresh
 * registry) instead of sharing counters across workers — there are no
 * process-wide statistics anywhere in the simulator.
 */
class MEMENTO_SINGLE_THREADED StatRegistry
{
  public:
    /** Get (creating if needed) the counter registered as @p name. */
    Counter counter(const std::string &name);

    /** Value of @p name, or 0 if it was never registered. */
    std::uint64_t value(const std::string &name) const;

    /** Snapshot of all counters, for paired-run comparisons. */
    std::map<std::string, std::uint64_t> snapshot() const;

  private:
    // node_hash-stable container: Counter handles point into mapped values
    // and std::map guarantees reference stability across inserts.
    std::map<std::string, std::uint64_t> values_;
};

} // namespace memento

#endif // MEMENTO_SIM_STATS_H
