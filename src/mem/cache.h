/**
 * @file
 * A functional set-associative cache model (tags only, LRU, write-back).
 *
 * The cache stores no data: it tracks which physical lines are resident
 * and dirty so the hierarchy can compute hit/miss latencies and DRAM
 * traffic. Timing is owned by CacheHierarchy.
 */

#ifndef MEMENTO_MEM_CACHE_H
#define MEMENTO_MEM_CACHE_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/config.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace memento {

/** One set-associative write-back cache level. */
class Cache
{
  public:
    /** Result of installing a line: the victim, if one was evicted. */
    struct Eviction
    {
        bool valid = false;
        Addr lineAddr = 0;
        bool dirty = false;
    };

    /**
     * @param name Stat prefix, e.g. "l1d".
     * @param cfg Geometry and latency.
     * @param stats Registry receiving <name>.hits / <name>.misses.
     */
    Cache(const std::string &name, const CacheConfig &cfg,
          StatRegistry &stats);

    // The per-access methods below are defined inline at the bottom of
    // this header: they run tens of millions of times per workload
    // replay and dominate the perfbench profile when the compiler
    // cannot see their bodies from CacheHierarchy.

    /**
     * Look up @p paddr; on a hit, update LRU and (for writes) the dirty
     * bit. Does not allocate on miss — the hierarchy installs lines
     * explicitly so it can model bypass and inclusion.
     *
     * @return true on hit.
     */
    bool access(Addr paddr, bool is_write);

    /** True if the line holding @p paddr is resident (no LRU update). */
    bool contains(Addr paddr) const;

    /**
     * Install the line holding @p paddr, evicting the set's LRU entry if
     * the set is full. @p dirty marks the new line dirty on arrival.
     */
    Eviction install(Addr paddr, bool dirty);

    /**
     * install() for a line the caller has just observed missing at this
     * level (an access() or contains() that returned false, with no
     * intervening install): skips the already-resident probe. Victim
     * choice, LRU updates, and eviction accounting are identical to
     * install() on an absent line — this is purely the hot-path form.
     */
    Eviction installAbsent(Addr paddr, bool dirty);

    /**
     * Remove the line holding @p paddr if resident.
     * @return true if the line was present and dirty.
     */
    bool invalidate(Addr paddr);

    /** Mark the resident line holding @p paddr dirty (no-op if absent). */
    void markDirty(Addr paddr);

    /**
     * Single-scan contains() + markDirty(): mark the resident line
     * holding @p paddr dirty.
     * @return true if the line was resident.
     */
    bool tryMarkDirty(Addr paddr);

    /** Invalidate everything (returns number of dirty lines dropped). */
    std::uint64_t flushAll();

    /** Access latency from the configuration. */
    Cycles latency() const { return latency_; }

    /** Number of resident lines (for tests). */
    std::uint64_t residentLines() const;

    /** Visit every resident line as (line base address, dirty). */
    void forEachLine(
        const std::function<void(Addr lineAddr, bool dirty)> &fn) const;

    /**
     * Verify internal tag/set consistency: every valid line's tag must
     * map back to the set it occupies, and no set may hold the same
     * tag twice. Appends one message per violation to @p violations.
     * @return true when clean.
     */
    bool checkIntegrity(std::vector<std::string> &violations) const;

    const std::string &name() const { return name_; }

  private:
    friend struct InvariantTestPeer; ///< Corruption hooks for val tests.

    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        std::uint64_t lruStamp = 0;
    };

    std::uint64_t setIndex(Addr paddr) const;
    Addr tagOf(Addr paddr) const;

    /** Shared install tail: fill the first invalid way, else evict @p lru. */
    Eviction fillVictim(Line *invalid, Line *lru, Addr tag, bool dirty);

    std::string name_;
    std::uint64_t numSets_;
    unsigned ways_;
    Cycles latency_;
    std::vector<Line> lines_; ///< numSets_ x ways_, row-major.
    std::uint64_t lruClock_ = 0;

    Counter hits_;
    Counter misses_;
    Counter evictions_;
    Counter dirtyEvictions_;
};

// ---- Hot-path inline definitions ----

inline std::uint64_t
Cache::setIndex(Addr paddr) const
{
    return (paddr >> kLineShift) & (numSets_ - 1);
}

inline Addr
Cache::tagOf(Addr paddr) const
{
    return paddr >> kLineShift;
}

inline bool
Cache::access(Addr paddr, bool is_write)
{
    const std::uint64_t set = setIndex(paddr);
    const Addr tag = tagOf(paddr);
    Line *base = &lines_[set * ways_];
    for (unsigned w = 0; w < ways_; ++w) {
        Line &line = base[w];
        if (line.valid && line.tag == tag) {
            line.lruStamp = ++lruClock_;
            if (is_write)
                line.dirty = true;
            ++hits_;
            return true;
        }
    }
    ++misses_;
    return false;
}

inline bool
Cache::contains(Addr paddr) const
{
    const std::uint64_t set = setIndex(paddr);
    const Addr tag = tagOf(paddr);
    const Line *base = &lines_[set * ways_];
    for (unsigned w = 0; w < ways_; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return true;
    }
    return false;
}

inline Cache::Eviction
Cache::fillVictim(Line *invalid, Line *lru, Addr tag, bool dirty)
{
    // An invalid way wins over the LRU victim; `lru` is the first
    // least-recently-used valid way of the set when none is invalid —
    // the same victim order the pre-fused triple scan produced.
    Line *victim = invalid;
    Eviction evicted;
    if (!victim) {
        victim = lru;
        evicted.valid = true;
        evicted.lineAddr = victim->tag << kLineShift;
        evicted.dirty = victim->dirty;
        ++evictions_;
        if (victim->dirty)
            ++dirtyEvictions_;
    }

    victim->valid = true;
    victim->dirty = dirty;
    victim->tag = tag;
    victim->lruStamp = ++lruClock_;
    return evicted;
}

inline Cache::Eviction
Cache::install(Addr paddr, bool dirty)
{
    const std::uint64_t set = setIndex(paddr);
    const Addr tag = tagOf(paddr);
    Line *base = &lines_[set * ways_];

    // One scan finds a resident copy, the first invalid way, and the
    // LRU entry simultaneously (the set was scanned three times here
    // before the bench harness flagged install() as the hottest
    // function in the sweep).
    Line *invalid = nullptr;
    Line *lru = &base[0];
    for (unsigned w = 0; w < ways_; ++w) {
        Line &line = base[w];
        if (line.valid) {
            if (line.tag == tag) {
                // Already resident: just refresh.
                line.lruStamp = ++lruClock_;
                line.dirty = line.dirty || dirty;
                return {};
            }
            if (line.lruStamp < lru->lruStamp)
                lru = &line;
        } else if (!invalid) {
            invalid = &line;
        }
    }
    return fillVictim(invalid, lru, tag, dirty);
}

inline Cache::Eviction
Cache::installAbsent(Addr paddr, bool dirty)
{
    const std::uint64_t set = setIndex(paddr);
    const Addr tag = tagOf(paddr);
    Line *base = &lines_[set * ways_];

    Line *invalid = nullptr;
    Line *lru = &base[0];
    for (unsigned w = 0; w < ways_; ++w) {
        Line &line = base[w];
        if (line.valid) {
            if (line.lruStamp < lru->lruStamp)
                lru = &line;
        } else if (!invalid) {
            invalid = &line;
        }
    }
    return fillVictim(invalid, lru, tag, dirty);
}

inline bool
Cache::tryMarkDirty(Addr paddr)
{
    const std::uint64_t set = setIndex(paddr);
    const Addr tag = tagOf(paddr);
    Line *base = &lines_[set * ways_];
    for (unsigned w = 0; w < ways_; ++w) {
        Line &line = base[w];
        if (line.valid && line.tag == tag) {
            line.dirty = true;
            return true;
        }
    }
    return false;
}

inline void
Cache::markDirty(Addr paddr)
{
    tryMarkDirty(paddr);
}

} // namespace memento

#endif // MEMENTO_MEM_CACHE_H
