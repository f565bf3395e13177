/**
 * @file
 * Memento arena layout and address arithmetic (§3.1–3.2).
 *
 * The reserved virtual region [MRS, MRE) is divided evenly into 64
 * size-class sub-regions. Within a sub-region, arenas are laid out
 * back-to-back at a fixed per-class span, so hardware can recover the
 * size class and arena base of any object address with shifts and one
 * divide by a constant known in advance — exactly the property §3.2
 * relies on.
 *
 * Arena layout: a 64-byte header (VA field, 256-bit allocation bitmap,
 * 11-bit bypass counter, prev/next list pointers) followed by the body
 * of 256 equal-sized objects; the whole span is rounded up to pages.
 */

#ifndef MEMENTO_HW_ARENA_H
#define MEMENTO_HW_ARENA_H

#include <array>
#include <bit>
#include <cstdint>

#include "sim/config.h"
#include "sim/logging.h"
#include "sim/size_class.h"
#include "sim/types.h"

namespace memento {

/** Address arithmetic over the Memento region. */
class ArenaGeometry
{
  public:
    /** Header bytes at the start of every arena. */
    static constexpr std::uint64_t kHeaderBytes = 64;

    ArenaGeometry(const MementoConfig &mcfg, const AddressLayout &layout)
        : regionStart_(layout.mementoRegionStart),
          perClassBytes_(layout.perClassRegionBytes),
          objectsPerArena_(mcfg.objectsPerArena)
    {
        // The header's allocation bitmap field is 256 bits (Fig. 5a).
        panic_if(objectsPerArena_ == 0 || objectsPerArena_ > 256,
                 "memento: objectsPerArena must be in [1, 256]");
    }

    Addr regionStart() const { return regionStart_; }
    Addr regionEnd() const
    {
        return regionStart_ + perClassBytes_ * kNumSmallClasses;
    }

    /** True when @p va lies in [MRS, MRE). */
    bool
    inRegion(Addr va) const
    {
        return va >= regionStart() && va < regionEnd();
    }

    unsigned objectsPerArena() const { return objectsPerArena_; }

    /** Total bytes (header + body) of a class-@p cls arena, unpadded. */
    std::uint64_t
    arenaPayloadBytes(unsigned cls) const
    {
        return kHeaderBytes + objectsPerArena_ * sizeClassBytes(cls);
    }

    /** Page-rounded virtual span of a class-@p cls arena. */
    std::uint64_t
    arenaSpan(unsigned cls) const
    {
        return alignUp(arenaPayloadBytes(cls), kPageSize);
    }

    /** Size class of an in-region address. */
    unsigned
    classOf(Addr va) const
    {
        panic_if(!inRegion(va), "classOf: address outside Memento region");
        return static_cast<unsigned>((va - regionStart_) / perClassBytes_);
    }

    /** Base virtual address of the arena containing @p va. */
    Addr
    arenaBaseOf(Addr va) const
    {
        const unsigned cls = classOf(va);
        const Addr class_base = regionStart_ + cls * perClassBytes_;
        const std::uint64_t span = arenaSpan(cls);
        return class_base + ((va - class_base) / span) * span;
    }

    /** Object slot index of @p va within its arena. */
    unsigned
    objIndexOf(Addr va) const
    {
        const unsigned cls = classOf(va);
        const Addr body = arenaBaseOf(va) + kHeaderBytes;
        panic_if(va < body, "objIndexOf: address inside arena header");
        return static_cast<unsigned>((va - body) / sizeClassBytes(cls));
    }

    /** Virtual address of slot @p idx in the arena at @p arena_base. */
    Addr
    objAddr(Addr arena_base, unsigned cls, unsigned idx) const
    {
        return arena_base + kHeaderBytes +
               static_cast<std::uint64_t>(idx) * sizeClassBytes(cls);
    }

    /** Cache-line index of @p va within its arena (bypass tracking). */
    unsigned
    lineIndexOf(Addr va) const
    {
        return static_cast<unsigned>((va - arenaBaseOf(va)) >> kLineShift);
    }

    /** First arena base of class @p cls. */
    Addr
    classBase(unsigned cls) const
    {
        return regionStart_ + static_cast<std::uint64_t>(cls) *
                                  perClassBytes_;
    }

  private:
    Addr regionStart_;
    std::uint64_t perClassBytes_;
    unsigned objectsPerArena_;
};

/**
 * The header's 256-bit allocation bitmap, held as 64-bit words so the
 * free-slot search skips a full word per step.
 */
class SlotBitmap
{
  public:
    static constexpr unsigned kBits = 256;
    static constexpr unsigned kWords = kBits / 64;

    /** Bit @p i; false past the bitmap (a padding address is unset). */
    bool
    test(unsigned i) const
    {
        return i < kBits && ((words_[i / 64] >> (i % 64)) & 1) != 0;
    }
    void set(unsigned i) { words_[i / 64] |= bit(i); }
    void reset(unsigned i) { words_[i / 64] &= ~bit(i); }
    void flip(unsigned i) { words_[i / 64] ^= bit(i); }

    unsigned
    count() const
    {
        unsigned n = 0;
        for (std::uint64_t w : words_)
            n += static_cast<unsigned>(std::popcount(w));
        return n;
    }

    /** Bits [64 * @p w, 64 * @p w + 64), bit 0 lowest. */
    std::uint64_t word(unsigned w) const { return words_[w]; }

    /**
     * Lowest clear bit below @p limit, or @p limit when none is; bits
     * at and past @p limit must be clear.
     */
    unsigned
    firstClear(unsigned limit) const
    {
        for (unsigned w = 0; w * 64 < limit; ++w) {
            const unsigned ones =
                static_cast<unsigned>(std::countr_one(words_[w]));
            if (ones < 64)
                return w * 64 + ones;
        }
        return limit;
    }

  private:
    static std::uint64_t bit(unsigned i) { return 1ull << (i % 64); }

    std::array<std::uint64_t, kWords> words_{};
};

/**
 * Authoritative (memory-resident) state of one arena header. The HOT
 * caches this; hardware reads/writes are charged against the header's
 * physical address.
 */
struct ArenaState
{
    static constexpr unsigned kMaxObjects = SlotBitmap::kBits;
    static_assert(kMaxSmallSize <= UINT16_MAX,
                  "a small object's size must fit slotBytes");

    Addr va = 0;       ///< Base virtual address (header VA field).
    Addr headerPa = 0; ///< Physical address of the header line.
    unsigned szclass = 0;
    /** Owning thread (§4: each thread allocates from its own arenas). */
    unsigned ownerThread = 0;
    SlotBitmap bitmap;
    unsigned allocated = 0;
    /** 11-bit bypass counter: high-water accessed line index + 1. */
    unsigned bypassCounter = 0;
    /**
     * Requested bytes of each allocated slot. Simulator bookkeeping for
     * the allocator's live-bytes count, not part of the header: no
     * simulated access reads or writes it.
     */
    std::array<std::uint16_t, kMaxObjects> slotBytes{};

    bool full(unsigned capacity) const { return allocated == capacity; }
    bool empty() const { return allocated == 0; }

    /** Lowest clear bit, or capacity when full. */
    unsigned
    findFreeSlot(unsigned capacity) const
    {
        return bitmap.firstClear(capacity);
    }
};

} // namespace memento

#endif // MEMENTO_HW_ARENA_H
