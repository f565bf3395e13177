/**
 * @file
 * Set-associative TLB model (used for both the L1 and L2 levels).
 */

#ifndef MEMENTO_MEM_TLB_H
#define MEMENTO_MEM_TLB_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/config.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace memento {

/** Shift of a 2 MiB huge page. */
inline constexpr unsigned kHugePageShift = 21;

/** Hit latencies of the L1 and L2 TLBs (Table 3), in cycles. */
inline constexpr Cycles kL1TlbLatency = 1;
inline constexpr Cycles kL2TlbLatency = 7;

/** One level of virtual-to-physical translation caching. */
class Tlb
{
  public:
    Tlb(const std::string &name, const TlbConfig &cfg, StatRegistry &stats);

    /**
     * Insert a translation for the page of @p vaddr at @p shift
     * granularity (4 KiB by default; pass kHugePageShift for THP).
     */
    void insert(Addr vaddr, Addr paddr, unsigned shift = kPageShift);

    /**
     * Translate @p vaddr fully (base + offset) on a hit. When @p shift
     * is given, a hit also stores the entry's granularity there
     * (kPageShift or kHugePageShift).
     */
    std::optional<Addr> translate(Addr vaddr, unsigned *shift = nullptr);

    /** Drop the translation for the page of @p vaddr (shootdown). */
    void invalidatePage(Addr vaddr);

    /** Drop every translation (context switch). */
    void flushAll();

    std::uint64_t hitCount() const { return hits_.value(); }
    std::uint64_t missCount() const { return misses_.value(); }

  private:
    /** One way: a probe compares one word. */
    struct Entry
    {
        Addr key;   ///< keyOf(vpage, shift), or kNoKey when invalid.
        Addr pbase; ///< Physical base at the entry's granularity.
        /** LRU stamp; the way's index while invalid (see lruClock_). */
        std::uint64_t lruStamp;
    };
    static_assert(sizeof(Entry) == 24, "Tlb::Entry must stay compact");

    /** Key of an invalid way; no (vpage, shift) pair encodes to it. */
    static constexpr Addr kNoKey = ~Addr{0};

    /** (vpage << 1) | huge: one word per (page, granularity). */
    static Addr
    keyOf(Addr vpage, unsigned shift)
    {
        return (vpage << 1) | (shift == kHugePageShift);
    }
    static unsigned
    shiftOf(const Entry &e)
    {
        return (e.key & 1) ? kHugePageShift : kPageShift;
    }

    Entry *find(Addr vaddr);
    Entry *findAt(Addr vaddr, unsigned shift);
    std::uint64_t setIndex(Addr vpage) const;

    std::string name_;
    std::uint64_t numSets_;
    /**
     * numSets_ - 1 when numSets_ is a power of two, else 0. Lets
     * setIndex() replace `vpage % numSets_` with a mask for
     * power-of-two geometries (e.g. the L1 TLB) and with fastMod() for
     * the rest (the 170-set L2 TLB), so no probe pays a divide.
     */
    std::uint64_t setMask_;
    Uint128 modConstant_; ///< fastModConstant(numSets_).
    unsigned ways_;
    std::vector<Entry> entries_;
    /**
     * Starts at ways_, so every valid entry's stamp exceeds every
     * invalid way's index: the least stamp of a set is its first
     * invalid way, else its least-recently-used entry.
     */
    std::uint64_t lruClock_;
    /**
     * Resident 2 MiB entries. Lets find() skip the huge-granularity
     * set probe entirely while zero — the common case for workloads
     * that never map THP pages.
     */
    std::uint64_t hugeEntries_ = 0;

    Counter hits_;
    Counter misses_;
};

// ---- Hot-path inline definitions ----

inline std::uint64_t
Tlb::setIndex(Addr vpage) const
{
    return setMask_ ? (vpage & setMask_)
                    : fastMod(vpage, modConstant_, numSets_);
}

inline Tlb::Entry *
Tlb::findAt(Addr vaddr, unsigned shift)
{
    const Addr vpage = vaddr >> shift;
    const Addr key = keyOf(vpage, shift);
    Entry *base = &entries_[setIndex(vpage) * ways_];
    // Selects, not an early exit (see Cache::find): keys are unique per
    // set, since insert() updates a resident copy in place.
    unsigned hit = ways_;
    for (unsigned w = 0; w < ways_; ++w)
        hit = base[w].key == key ? w : hit;
    return hit == ways_ ? nullptr : &base[hit];
}

inline Tlb::Entry *
Tlb::find(Addr vaddr)
{
    // Probe order (4 KiB before 2 MiB) matches the original dual-loop
    // scan; the huge probe is elided while no huge entry is resident.
    Entry *e = findAt(vaddr, kPageShift);
    if (!e && hugeEntries_ != 0)
        e = findAt(vaddr, kHugePageShift);
    return e;
}

inline std::optional<Addr>
Tlb::translate(Addr vaddr, unsigned *shift)
{
    if (Entry *e = find(vaddr)) {
        e->lruStamp = ++lruClock_;
        ++hits_;
        const unsigned s = shiftOf(*e);
        if (shift != nullptr)
            *shift = s;
        return e->pbase + (vaddr & ((1ull << s) - 1));
    }
    ++misses_;
    return std::nullopt;
}

} // namespace memento

#endif // MEMENTO_MEM_TLB_H
