/**
 * @file
 * Memento's hardware object allocator (§3.1, Fig. 6).
 *
 * Executes obj-alloc / obj-free against the HOT. Hits complete in the
 * HOT latency with no memory requests; misses write back the cached
 * header, load the next arena header from the available list (or
 * request a new arena from the hardware page allocator), and perform
 * the full/available list surgery — each step costed as the memory
 * references the hardware would really issue.
 */

#ifndef MEMENTO_HW_HW_OBJECT_ALLOCATOR_H
#define MEMENTO_HW_HW_OBJECT_ALLOCATOR_H

#include "hw/arena.h"
#include "hw/hot.h"
#include "hw/hw_page_allocator.h"
#include "hw/memento_space.h"
#include "mem/env.h"
#include "sim/config.h"
#include "sim/stats.h"

namespace memento {

/** Outcome of an obj-free (§4: bad frees raise a software exception). */
enum class FreeStatus {
    Ok,
    NotAllocated,  ///< Double free / wild pointer within the region.
    UnknownArena,  ///< Address maps to no live arena.
};

/** The per-core hardware object allocator front-end. */
class HwObjectAllocator
{
  public:
    HwObjectAllocator(const MachineConfig &cfg,
                      const ArenaGeometry &geometry, Hot &hot,
                      HwPageAllocator &page_alloc, StatRegistry &stats);

    /**
     * obj-alloc: allocate one object of @p size (<= 512 B) bytes on
     * behalf of @p thread (each thread allocates from its own arenas,
     * §4's multi-threading design).
     * @return the object's virtual address.
     */
    Addr objAlloc(MementoSpace &space, std::uint64_t size, Env &env,
                  unsigned thread = 0);

    /**
     * obj-free: release the object at @p va. A free issued by a thread
     * that does not own the object's arena takes the hardware-only
     * remote path: the HOT acquires the header line exclusively
     * (BusRdX) and performs the read-modify-write atomically, riding
     * the regular coherence protocol (§4). On success the object's
     * requested size is stored to @p freedBytes when it is non-null.
     */
    FreeStatus objFree(MementoSpace &space, Addr va, Env &env,
                       unsigned thread = 0,
                       std::uint32_t *freedBytes = nullptr);

    /** Remote (cross-thread) frees handled via coherence. */
    std::uint64_t remoteFrees() const { return remoteFrees_.value(); }

    /**
     * Batch teardown at function exit: every live arena is handed back
     * to the page allocator wholesale — the low-latency path the paper
     * gives long-lived allocations (§1, §3).
     */
    void releaseAllArenas(MementoSpace &space, Env &env);

    /** Arena-list operations during allocs (Fig. 13 numerator). */
    std::uint64_t allocListOps() const { return allocListOps_.value(); }
    /** Arena-list operations during frees. */
    std::uint64_t freeListOps() const { return freeListOps_.value(); }

    /**
     * Fraction of header slots not active across live arenas (§6.6's
     * fragmentation metric; mixes fragmentation and free memory).
     */
    double inactiveSlotFraction(const MementoSpace &space) const;

    const ArenaGeometry &geometry() const { return geometry_; }

  private:
    /** Load (or create) an arena into the HOT entry for @p cls. */
    ArenaState &installArena(MementoSpace &space, unsigned cls, Env &env);
    /** Move the HOT-resident full arena to the full list and replace. */
    ArenaState &replaceFullArena(MementoSpace &space, unsigned cls,
                                 Env &env, bool eager);
    /** Create a brand-new arena via the page allocator. */
    ArenaState &newArena(MementoSpace &space, unsigned cls, Env &env);

    const MachineConfig &cfg_;
    ArenaGeometry geometry_;
    Hot &hot_;
    HwPageAllocator &pageAlloc_;

    Counter allocListOps_;
    Counter freeListOps_;
    Counter arenasReleased_;
    Counter remoteFrees_;
};

} // namespace memento

#endif // MEMENTO_HW_HW_OBJECT_ALLOCATOR_H
