/**
 * @file
 * Page-table abstraction and the MMU's hardware page walker.
 *
 * Both the OS-managed table (src/os/page_table.h) and the Memento page
 * table built by the hardware page allocator (src/hw) implement
 * PageTableBase. The walker turns a walk into real memory references for
 * each visited PTE line, so page-table locality shows up in the caches
 * exactly like it does on hardware.
 */

#ifndef MEMENTO_MEM_PAGE_WALKER_H
#define MEMENTO_MEM_PAGE_WALKER_H

#include <array>

#include "mem/cache_hierarchy.h"
#include "sim/types.h"

namespace memento {

/**
 * The PTE addresses one walk touched, root to leaf, held inline: a
 * walk visits at most one entry per radix level.
 */
class VisitedPtes
{
  public:
    /** Most levels a walked table may have. */
    static constexpr unsigned kMaxLevels = 4;

    void push_back(Addr pte) { ptes_[size_++] = pte; }
    std::size_t size() const { return size_; }
    Addr operator[](std::size_t i) const { return ptes_[i]; }
    const Addr *begin() const { return ptes_.data(); }
    const Addr *end() const { return ptes_.data() + size_; }

  private:
    std::array<Addr, kMaxLevels> ptes_{};
    unsigned size_ = 0;
};

/** Result of walking a table for one virtual address. */
struct WalkResult
{
    /** False when the leaf PTE is absent: the OS must handle a fault. */
    bool valid = false;
    /** Physical page base on success. */
    Addr ppage = 0;
    /** Physical addresses of the PTE entries touched, root to leaf. */
    VisitedPtes visitedPtes;
};

/** Interface over any radix page table the walker can traverse. */
class PageTableBase
{
  public:
    virtual ~PageTableBase() = default;

    /**
     * Walk the table for @p vaddr without side effects on the caller.
     * Implementations may themselves have side effects: the Memento
     * table auto-populates missing levels during the walk (§3.2).
     */
    virtual WalkResult walk(Addr vaddr) = 0;
};

/** Performs timed walks by touching PTE lines through the hierarchy. */
class PageWalker
{
  public:
    explicit PageWalker(CacheHierarchy &hier) : hier_(hier) {}

    /**
     * Walk @p table for @p vaddr, charging one hierarchy access per
     * visited PTE line.
     *
     * @param[out] latency Accumulated critical-path latency.
     */
    WalkResult
    walk(PageTableBase &table, Addr vaddr, Cycles now, Cycles &latency)
    {
        WalkResult res = table.walk(vaddr);
        latency = 0;
        for (Addr pte : res.visitedPtes) {
            latency +=
                hier_.access(pte, AccessType::Read, now + latency).latency;
        }
        return res;
    }

  private:
    CacheHierarchy &hier_;
};

} // namespace memento

#endif // MEMENTO_MEM_PAGE_WALKER_H
