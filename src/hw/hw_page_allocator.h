/**
 * @file
 * Memento's hardware page allocator (§3.2), located at the memory
 * controller.
 *
 * Responsibilities: (i) hand out arena virtual addresses by bumping the
 * per-size-class pointers (cached in the AAC); (ii) manage a small pool
 * of OS-replenished physical pages; (iii) build and expand the Memento
 * page table during flagged page walks, backing arena pages on first
 * touch without any kernel involvement; (iv) reclaim arena pages (with
 * TLB shootdowns) when the object allocator frees an arena.
 */

#ifndef MEMENTO_HW_HW_PAGE_ALLOCATOR_H
#define MEMENTO_HW_HW_PAGE_ALLOCATOR_H

#include <vector>

#include "hw/memento_space.h"
#include "mem/env.h"
#include "os/buddy_allocator.h"
#include "sim/config.h"
#include "sim/stats.h"

namespace memento {

/** The hardware page allocator plus its physical page pool. */
class HwPageAllocator
{
  public:
    HwPageAllocator(const MachineConfig &cfg, const ArenaGeometry &geometry,
                    BuddyAllocator &buddy, StatRegistry &stats);

    /** AAC hit latency (Table 3), in cycles. */
    static constexpr Cycles kAacLatency = 1;

    /** FrameSource view of the pool (feeds the Memento page table). */
    FrameSource &poolFrames() { return pool_; }

    /** Result of an arena grant. */
    struct ArenaGrant
    {
        Addr va = 0;       ///< Arena base virtual address.
        Addr headerPa = 0; ///< Physical address backing the first page.
    };

    /**
     * Grant a new class-@p cls arena to the object allocator: bump the
     * class pointer (AAC access) and eagerly back the header page.
     */
    ArenaGrant requestArena(MementoSpace &space, unsigned cls, Env &env);

    /**
     * Handle a flagged page walk that reached an invalid Memento PTE:
     * allocate a frame, expand the table as needed, and return the
     * translation. Charged as hardware work (CycleCategory::HwPage).
     *
     * @return physical page base for @p vaddr.
     */
    Addr populateOnWalk(MementoSpace &space, Addr vaddr, Env &env);

    /**
     * Reclaim every backed page of the arena at @p arena_base,
     * invalidating PTEs and shooting down TLB entries.
     */
    void freeArena(MementoSpace &space, Addr arena_base, Env &env);

    /** Refill/return accounting (tests and Fig. 11). */
    std::uint64_t poolFreePages() const { return pool_.freeCount(); }
    std::uint64_t aggregateArenaPages() const { return aggArena_.value(); }
    std::uint64_t aggregateTablePages() const { return aggTable_.value(); }

    /** Pages currently backing arenas (resident). */
    std::uint64_t residentArenaPages() const { return residentArena_; }

  private:
    /** The OS-replenished physical page pool. */
    class Pool : public FrameSource
    {
      public:
        Pool(const MementoConfig &cfg, const FaultPlan &inject,
             BuddyAllocator &buddy, StatRegistry &stats);

        Addr allocFrame() override;
        void freeFrame(Addr paddr) override;

        std::uint64_t freeCount() const { return frames_.size(); }
        /** Pages the OS has granted the pool (cumulative). */
        std::uint64_t osPagesGranted() const { return osPages_.value(); }
        /** Refills performed since the last drain (charging hook). */
        unsigned drainPendingRefills();

      private:
        void refill();
        /** Return surplus frames to the OS (bounds pool slack). */
        void releaseSurplus();

        const MementoConfig &cfg_;
        const FaultPlan &inject_;
        BuddyAllocator &buddy_;
        std::vector<Addr> frames_;
        unsigned pendingRefills_ = 0;
        Counter refills_;
        Counter framesHandedOut_;
        Counter osPages_;
    };

    /** Charge any OS pool refills that happened during an operation. */
    void chargeRefills(Env &env);

    /** AAC access cost: hit latency, or a memory access on a miss. */
    void chargeAacAccess(unsigned cls, Env &env);

    const MachineConfig &cfg_;
    ArenaGeometry geometry_;
    Pool pool_;

    /** AAC model: direct-mapped validity per size class entry. */
    std::vector<bool> aacValid_;

    std::uint64_t residentArena_ = 0;

    Counter arenaGrants_;
    Counter walkPopulates_;
    Counter arenaFrees_;
    Counter shootdowns_;
    Counter aggArena_;
    Counter aggTable_;
    Counter aacHits_;
    Counter aacMisses_;
};

} // namespace memento

#endif // MEMENTO_HW_HW_PAGE_ALLOCATOR_H
