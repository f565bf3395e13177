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

    /**
     * Single-scan contains() + dirty update: mark the resident line
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

    /**
     * One way. Validity lives in the tag and dirtiness in the low bit
     * of the LRU word, so a probe compares one word per way and a way
     * is 16 bytes.
     */
    struct Line
    {
        Addr tag; ///< paddr >> kLineShift, or kNoTag when invalid.
        /** (lruStamp << 1) | dirty; (way << 1) while invalid. */
        std::uint64_t meta;
    };
    static_assert(sizeof(Line) == 16, "Cache::Line must stay compact");

    /** Tag of an invalid way; no line address shifts down to it. */
    static constexpr Addr kNoTag = ~Addr{0};

    std::uint64_t setIndex(Addr paddr) const;
    Addr tagOf(Addr paddr) const;
    /**
     * The way holding @p paddr's line, or null. Every way is compared
     * and the match picked by a select, so the scan has no
     * data-dependent exit to mispredict. Exact because a set never
     * holds a tag twice (checkIntegrity()'s duplicate-tag rule): the
     * last matching way is the first.
     */
    Line *find(Addr paddr);
    /** Next LRU stamp, with @p dirty in bit 0. */
    std::uint64_t stamp(bool dirty) { return (++lruClock_ << 1) | dirty; }

    std::string name_;
    std::uint64_t numSets_;
    unsigned ways_;
    Cycles latency_;
    std::vector<Line> lines_; ///< numSets_ x ways_, row-major.
    /**
     * Starts at ways_, so every valid way's stamp exceeds every
     * invalid way's index: the least `meta` of a set is its first
     * invalid way, else its least-recently-used one.
     */
    std::uint64_t lruClock_;

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

inline Cache::Line *
Cache::find(Addr paddr)
{
    const Addr tag = tagOf(paddr);
    Line *base = &lines_[setIndex(paddr) * ways_];
    unsigned hit = ways_;
    for (unsigned w = 0; w < ways_; ++w)
        hit = base[w].tag == tag ? w : hit;
    return hit == ways_ ? nullptr : &base[hit];
}

inline bool
Cache::access(Addr paddr, bool is_write)
{
    Line *line = find(paddr);
    if (!line) {
        ++misses_;
        return false;
    }
    line->meta = stamp(is_write) | (line->meta & 1);
    ++hits_;
    return true;
}

inline bool
Cache::contains(Addr paddr) const
{
    return const_cast<Cache *>(this)->find(paddr) != nullptr;
}

inline Cache::Eviction
Cache::install(Addr paddr, bool dirty)
{
    if (Line *line = find(paddr)) {
        // Already resident: just refresh.
        line->meta = stamp(dirty) | (line->meta & 1);
        return {};
    }
    return installAbsent(paddr, dirty);
}

inline Cache::Eviction
Cache::installAbsent(Addr paddr, bool dirty)
{
    Line *base = &lines_[setIndex(paddr) * ways_];

    // The first least `meta` is the first invalid way, else the LRU
    // way (see lruClock_); selects rather than branches keep the scan
    // free of mispredictions.
    unsigned victim = 0;
    std::uint64_t least = base[0].meta;
    for (unsigned w = 1; w < ways_; ++w) {
        const std::uint64_t meta = base[w].meta;
        const bool lower = meta < least;
        least = lower ? meta : least;
        victim = lower ? w : victim;
    }

    Line &line = base[victim];
    Eviction evicted;
    if (line.tag != kNoTag) {
        evicted.valid = true;
        evicted.lineAddr = line.tag << kLineShift;
        evicted.dirty = (line.meta & 1) != 0;
        ++evictions_;
        if (evicted.dirty)
            ++dirtyEvictions_;
    }
    line.tag = tagOf(paddr);
    line.meta = stamp(dirty);
    return evicted;
}

inline bool
Cache::invalidate(Addr paddr)
{
    Line *line = find(paddr);
    if (!line)
        return false;
    const bool was_dirty = (line->meta & 1) != 0;
    const auto way = static_cast<std::uint64_t>(
        line - &lines_[setIndex(paddr) * ways_]);
    *line = {kNoTag, way << 1};
    return was_dirty;
}

inline bool
Cache::tryMarkDirty(Addr paddr)
{
    Line *line = find(paddr);
    if (line)
        line->meta |= 1;
    return line != nullptr;
}

} // namespace memento

#endif // MEMENTO_MEM_CACHE_H
