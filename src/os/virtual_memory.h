/**
 * @file
 * Per-process virtual memory: VMAs, mmap/munmap, demand paging.
 *
 * Models the kernel half of memory management that the paper measures:
 * mmap sets up mapping metadata only; the first touch of each page takes
 * a page fault whose handler allocates a frame from the buddy allocator,
 * maps it, and zero-fills it through the cache hierarchy. All costs are
 * charged against the Env under the appropriate kernel CycleCategory.
 *
 * Accounting follows §6.3 of the paper: *aggregate* usage is the
 * cumulative number of physical pages allocated during execution (user
 * and kernel counted separately); resident/peak footprints are also
 * tracked for the pricing model.
 */

#ifndef MEMENTO_OS_VIRTUAL_MEMORY_H
#define MEMENTO_OS_VIRTUAL_MEMORY_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mem/env.h"
#include "mem/tlb.h"
#include "os/buddy_allocator.h"
#include "os/page_table.h"
#include "sim/config.h"
#include "sim/stats.h"

namespace memento {

/** One process's address space and its kernel-side bookkeeping. */
class VirtualMemory : public FrameSource
{
  public:
    /** Physical base of the kernel's struct-page array (vmemmap). */
    static constexpr Addr kStructPageBase = 1ull << 40;

    /** munmap instructions: a base cost plus teardown per present page. */
    static constexpr InstCount kMunmapBaseInstructions = 1400;
    static constexpr InstCount kMunmapPerPageInstructions = 180;
    /** Buddy-allocator instructions to allocate a page on a fault. */
    static constexpr InstCount kBuddyAllocInstructions = 250;
    /** Zeroing cost per 4 KiB subpage of a huge-page fault. */
    static constexpr Cycles kThpZeroCyclesPerPage = 24;

    /**
     * @param prefix Stat prefix, e.g. "vm0".
     */
    VirtualMemory(const MachineConfig &cfg, BuddyAllocator &buddy,
                  StatRegistry &stats, const std::string &prefix);
    ~VirtualMemory() override;

    /**
     * mmap(len): reserve a virtual range on the heap cursor.
     *
     * @param env Charged for the syscall; pass nullptr during machine
     *            set-up to make the call free (pre-existing state).
     * @param populate Eagerly back every page (MAP_POPULATE study).
     * @param align Base alignment (power of two >= page size); callers
     *              that locate metadata by address masking need it.
     * @return base of the new region.
     */
    Addr mmap(std::uint64_t len, Env *env, bool populate = false,
              std::uint64_t align = kPageSize);

    /** munmap(base, len): tear down mappings and free frames. */
    void munmap(Addr base, std::uint64_t len, Env *env);

    /**
     * madvise(MADV_DONTNEED): drop the physical frames backing the
     * range but keep the VMA; the next touch demand-faults a fresh
     * zeroed page. This is the purge path long-running allocators
     * (jemalloc decay, Go scavenger) use to return memory.
     */
    void madviseFree(Addr base, std::uint64_t len, Env *env);

    /**
     * Handle a page fault at @p vaddr (called from the translation path
     * on an invalid OS-table walk).
     *
     * @return false when the address is outside any VMA (a real SEGV —
     *         the simulator treats it as a fatal workload bug).
     */
    bool handleFault(Addr vaddr, Env &env);

    /** True when @p vaddr lies inside a mapped VMA. */
    bool inVma(Addr vaddr) const;

    /**
     * Physical translation for @p vaddr if it is backed by a
     * transparent huge page (the MMU consults this at PMD level).
     */
    std::optional<Addr> lookupHuge(Addr vaddr) const;

    /** Number of live huge-page mappings. */
    std::size_t hugeMappingCount() const { return hugeMappings_.size(); }
    /** Faults a transparent huge page has served, ever. */
    std::uint64_t hugeFaultCount() const { return hugeFaults_; }

    /** The process's OS page table (CR3). */
    PageTable &pageTable() { return *pageTable_; }
    const PageTable &pageTable() const { return *pageTable_; }

    /** FrameSource for page-table node pages (kernel memory). */
    Addr allocFrame() override;
    void freeFrame(Addr paddr) override;

    /** Cumulative user pages ever allocated (Fig. 11 numerator). */
    std::uint64_t aggregateUserPages() const;
    /** Cumulative kernel pages ever allocated. */
    std::uint64_t aggregateKernelPages() const;
    /** Kernel bytes for VMA metadata (cumulative). */
    std::uint64_t aggregateVmaBytes() const;
    /** Current resident user pages. */
    std::uint64_t residentUserPages() const { return residentUser_; }
    /** Current resident kernel pages (page-table nodes). */
    std::uint64_t residentKernelPages() const { return residentKernel_; }
    /** [base, end) of every live VMA, ordered by base (validation). */
    std::vector<std::pair<Addr, Addr>> vmaRanges() const;
    /** Peak resident footprint in pages (user + kernel). */
    std::uint64_t peakResidentPages() const;
    /** Number of live VMAs. */
    std::uint64_t vmaCount() const { return vmas_.size(); }
    /** Demand faults taken. */
    std::uint64_t faultCount() const;

  private:
    struct Vma
    {
        Addr base = 0;
        std::uint64_t length = 0;
        Addr end() const { return base + length; }
    };

    /** Back one page with a zeroed frame; returns node pages created. */
    void backPage(Addr vpage, Env *env, bool bulk = false);
    /** Try to satisfy a fault with a 2 MiB huge page (THP). */
    bool tryHugeFault(Addr vaddr, Env &env);
    /** Break huge pages intersecting [base, base+len) (free frames). */
    void splitHugeRange(Addr base, std::uint64_t len, Env *env);
    /** Touch the frame's struct-page metadata (LRU, memcg, flags). */
    void touchStructPage(Addr frame, Env *env, bool write);
    void updatePeak();

    const MachineConfig &cfg_;
    BuddyAllocator &buddy_;

    std::unique_ptr<PageTable> pageTable_;
    /** VMAs keyed by base address. */
    std::map<Addr, Vma> vmas_;
    /** Huge-page mappings: 2 MiB-aligned va -> 2 MiB-aligned pa. */
    std::map<Addr, Addr> hugeMappings_;
    std::uint64_t hugeFaults_ = 0;
    Addr heapCursor_;

    std::uint64_t residentUser_ = 0;
    std::uint64_t residentKernel_ = 0;

    Counter aggUserPages_;
    Counter aggKernelPages_;
    Counter aggVmaBytes_;
    Counter peakResident_;
    Counter faults_;
    Counter mmapCalls_;
    Counter munmapCalls_;

    /** Kernel metadata bytes modeled per VMA (struct vm_area_struct). */
    static constexpr std::uint64_t kVmaBytes = 200;
};

} // namespace memento

#endif // MEMENTO_OS_VIRTUAL_MEMORY_H
