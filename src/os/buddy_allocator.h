/**
 * @file
 * The kernel's binary buddy allocator for physical page frames.
 *
 * Functional model of Linux's zoned buddy system restricted to one zone:
 * power-of-two blocks of page frames with split/coalesce on alloc/free.
 * This backs every physical page in the simulation — user heap pages,
 * page-table pages, and the refills granted to Memento's hardware page
 * pool.
 */

#ifndef MEMENTO_OS_BUDDY_ALLOCATOR_H
#define MEMENTO_OS_BUDDY_ALLOCATOR_H

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "sim/addr_map.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace memento {

/** Binary buddy allocator over a contiguous physical frame range. */
class BuddyAllocator
{
  public:
    /** Maximum block order (2^kMaxOrder pages), as in Linux. */
    static constexpr unsigned kMaxOrder = 10;

    /**
     * @param base Physical base address (page-aligned).
     * @param size_bytes Managed bytes (multiple of the max block size).
     */
    BuddyAllocator(Addr base, std::uint64_t size_bytes, StatRegistry &stats);

    /**
     * Allocate a block of 2^order contiguous pages.
     * @return the block's physical base, or kNullAddr when exhausted.
     */
    Addr allocate(unsigned order);

    /** Allocate a single page frame. */
    Addr allocatePage() { return allocate(0); }

    /** Free a block previously returned by allocate(order). */
    void free(Addr addr, unsigned order);

    /** Free a single page frame. */
    void freePage(Addr addr) { free(addr, 0); }

    /** Pages currently allocated. */
    std::uint64_t allocatedPages() const { return allocatedPages_; }

    /** High-water mark of allocated pages. */
    std::uint64_t peakAllocatedPages() const { return peakPages_.value(); }

    /** Total pages managed. */
    std::uint64_t totalPages() const { return totalPages_; }

    /** Free pages remaining. */
    std::uint64_t
    freePages() const
    {
        return totalPages_ - allocatedPages_;
    }

    /** Verify free-list invariants (tests); returns false on corruption. */
    bool checkInvariants() const;

    /**
     * Detailed integrity check: appends one message per violated
     * invariant (misaligned free blocks, page-conservation breakage,
     * free/live overlap) to @p violations.
     * @return true when no violation was found.
     */
    bool checkIntegrity(std::vector<std::string> &violations) const;

    /** True when the page frame at @p paddr lies in a live allocation. */
    bool ownsLivePage(Addr paddr) const;

  private:
    friend struct InvariantTestPeer; ///< Corruption hooks for val tests.

    Addr buddyOf(Addr addr, unsigned order) const;

    /** One past the last managed byte. */
    Addr end() const;

    Addr base_;
    std::uint64_t totalPages_;
    std::uint64_t allocatedPages_ = 0;

    /**
     * Free blocks per order, keyed by physical base. The max-order
     * blocks from frontier_ up to the end of the range have never been
     * split; they are free without an entry, and every listed block
     * lies below frontier_, so the lowest free max-order block is the
     * list's first or, when the list is empty, the frontier.
     */
    std::vector<std::set<Addr>> freeLists_;
    Addr frontier_;
    /** Order of each outstanding allocation, for validation on free. */
    AddrMap<std::uint8_t> liveBlocks_;

    Counter allocCalls_;
    Counter freeCalls_;
    Counter splits_;
    Counter coalesces_;
    Counter peakPages_;
};

} // namespace memento

#endif // MEMENTO_OS_BUDDY_ALLOCATOR_H
