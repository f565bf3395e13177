/**
 * @file
 * A 4-level x86-64-style radix page table.
 *
 * Each node occupies one physical page (512 x 8-byte entries). The table
 * is functional — mappings are real and queried by the TLB-miss path —
 * and structural: every node has a physical address so page walks touch
 * PTE cache lines like real hardware. Both the OS (CR3) table and
 * Memento's MPTR table (src/hw/hw_page_allocator) are instances of this
 * class; they differ only in who feeds them page frames.
 */

#ifndef MEMENTO_OS_PAGE_TABLE_H
#define MEMENTO_OS_PAGE_TABLE_H

#include <array>
#include <cstdint>
#include <functional>
#include <memory>

#include "mem/page_walker.h"
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

/** The radix table. Implements the walker-visible interface. */
class PageTable : public PageTableBase
{
  public:
    /** Number of radix levels (PGD, PUD, PMD, PTE). */
    static constexpr unsigned kLevels = 4;
    static_assert(kLevels <= VisitedPtes::kMaxLevels);
    /** Index bits per level. */
    static constexpr unsigned kBitsPerLevel = 9;
    static constexpr unsigned kEntriesPerNode = 1u << kBitsPerLevel;

    /**
     * @param frames Source of node frames. The root node is allocated
     *               immediately (as the kernel does on fork/exec).
     */
    explicit PageTable(FrameSource &frames);
    ~PageTable() override;

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

    /** PageTableBase: structural walk visiting PTE line addresses. */
    WalkResult walk(Addr vaddr) override;

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

} // namespace memento

#endif // MEMENTO_OS_PAGE_TABLE_H
