/**
 * @file
 * A 4-level x86-64-style radix page table.
 *
 * Each node occupies one physical page (512 x 8-byte entries). The table
 * is functional — mappings are real and queried by the TLB-miss path —
 * and structural: every node has a physical address so page walks touch
 * PTE cache lines like real hardware: Machine charges one hierarchy
 * access per line a walk visits. Both the OS (CR3) table and Memento's
 * MPTR table (src/hw/hw_page_allocator) are instances of this class;
 * they differ only in who feeds them page frames. A walk has no side
 * effects: Machine asks the page allocator to populate an invalid
 * Memento entry (§3.2).
 */

#ifndef MEMENTO_OS_PAGE_TABLE_H
#define MEMENTO_OS_PAGE_TABLE_H

#include <array>
#include <cstdint>
#include <functional>
#include <memory>

#include "sim/types.h"

namespace memento {

/** Supplies/retires physical page frames for page-table nodes. */
class FrameSource
{
  public:
    virtual ~FrameSource() = default;
    /** Allocate a zeroed page frame; kNullAddr when exhausted. */
    virtual Addr allocFrame() = 0;
    /** Return a frame. */
    virtual void freeFrame(Addr paddr) = 0;
};

struct WalkResult;

/** The radix table. */
class PageTable
{
  public:
    /** Number of radix levels (PGD, PUD, PMD, PTE). */
    static constexpr unsigned kLevels = 4;
    /** Index bits per level. */
    static constexpr unsigned kBitsPerLevel = 9;
    static constexpr unsigned kEntriesPerNode = 1u << kBitsPerLevel;

    /**
     * @param frames Source of node frames. The root node is allocated
     *               immediately (as the kernel does on fork/exec).
     */
    explicit PageTable(FrameSource &frames);
    ~PageTable();

    PageTable(const PageTable &) = delete;
    PageTable &operator=(const PageTable &) = delete;

    /**
     * Map the page of @p vaddr to physical page @p ppage.
     * @return number of new page-table node pages that were created.
     */
    unsigned map(Addr vaddr, Addr ppage);

    /**
     * Unmap the page of @p vaddr, pruning interior nodes that become
     * empty (their frames go back to the FrameSource).
     *
     * @param[out] freed_nodes Number of node pages freed.
     * @return the physical page that was mapped, or kNullAddr if none.
     */
    Addr unmap(Addr vaddr, unsigned &freed_nodes);

    /** Translation for the page of @p vaddr, or kNullAddr. */
    Addr translate(Addr vaddr) const;

    /** True when the page of @p vaddr has a valid leaf entry. */
    bool isMapped(Addr vaddr) const { return translate(vaddr) != 0; }

    /** Structural walk for @p vaddr, visiting PTE line addresses. */
    WalkResult walk(Addr vaddr) const;

    /**
     * Visit every leaf mapping as (page virtual address, page physical
     * address), in ascending virtual-address order (validation/digest).
     */
    void forEachMapping(
        const std::function<void(Addr vpage, Addr ppage)> &fn) const;

    /** Number of leaf mappings currently live. */
    std::uint64_t mappedPages() const { return mappedPages_; }

    /** Page-table node pages currently allocated (incl. the root). */
    std::uint64_t nodePages() const { return nodePages_; }

    /** Physical address of the root node (the CR3/MPTR value). */
    Addr rootPhys() const;

  private:
    struct Node;

    static unsigned levelIndex(Addr vaddr, unsigned level);
    Node *ensureChild(Node &parent, unsigned idx);

    FrameSource &frames_;
    std::unique_ptr<Node> root_;
    std::uint64_t mappedPages_ = 0;
    std::uint64_t nodePages_ = 0;
};

/**
 * The PTE addresses one walk touched, root to leaf, held inline: a
 * walk visits at most one entry per radix level.
 */
class VisitedPtes
{
  public:
    void push_back(Addr pte) { ptes_[size_++] = pte; }
    std::size_t size() const { return size_; }
    Addr operator[](std::size_t i) const { return ptes_[i]; }
    const Addr *begin() const { return ptes_.data(); }
    const Addr *end() const { return ptes_.data() + size_; }

  private:
    std::array<Addr, PageTable::kLevels> ptes_{};
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

} // namespace memento

#endif // MEMENTO_OS_PAGE_TABLE_H
