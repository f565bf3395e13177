/**
 * @file
 * Main-memory bypass unit (§3.3).
 *
 * Tracks, per arena, an 11-bit high-water counter of accessed cache-line
 * indices. A reference to a line whose index is at or above the counter
 * is guaranteed to touch never-before-accessed memory of a freshly
 * allocated object, so on a full cache miss the line may be instantiated
 * zero-filled at the LLC instead of being read from DRAM.
 */

#ifndef MEMENTO_HW_BYPASS_H
#define MEMENTO_HW_BYPASS_H

#include "hw/arena.h"
#include "hw/memento_space.h"
#include "sim/config.h"
#include "sim/stats.h"

namespace memento {

/** Consults and maintains the per-arena bypass counters. */
class BypassUnit
{
  public:
    /** Largest line index an 11-bit counter can track. */
    static constexpr unsigned kCounterMax = 2047;

    BypassUnit(const MementoConfig &cfg, const ArenaGeometry &geometry,
               StatRegistry &stats)
        : enabled_(cfg.bypassEnabled),
          geometry_(geometry),
          candidates_(stats.counter("bypass.candidates"))
    {
    }

    /**
     * Classify an application reference to @p va (inside the Memento
     * region) and advance the counter.
     *
     * @return true when the line is bypass-eligible (never accessed).
     */
    bool
    onAccess(MementoSpace &space, Addr va)
    {
        if (!enabled_)
            return false;
        ArenaState *state = space.arenas.find(geometry_.arenaBaseOf(va));
        if (!state)
            return false;

        const unsigned line = geometry_.lineIndexOf(va);
        if (line > kCounterMax)
            return false; // Beyond the counter's range: never bypass.

        const bool eligible = line >= state->bypassCounter;
        if (eligible) {
            state->bypassCounter = line + 1;
            ++candidates_;
        }
        return eligible;
    }

    std::uint64_t candidateCount() const { return candidates_.value(); }

  private:
    bool enabled_;
    ArenaGeometry geometry_;
    Counter candidates_;
};

} // namespace memento

#endif // MEMENTO_HW_BYPASS_H
