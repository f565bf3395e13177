#include "os/virtual_memory.h"

#include "mem/tlb.h"

#include "sim/error.h"
#include "sim/logging.h"

namespace memento {

VirtualMemory::VirtualMemory(const MachineConfig &cfg, BuddyAllocator &buddy,
                             StatRegistry &stats, const std::string &prefix)
    : cfg_(cfg),
      buddy_(buddy),
      heapCursor_(cfg.layout.heapBase),
      aggUserPages_(stats.counter(prefix + ".agg_user_pages")),
      aggKernelPages_(stats.counter(prefix + ".agg_kernel_pages")),
      aggVmaBytes_(stats.counter(prefix + ".agg_vma_bytes")),
      peakResident_(stats.counter(prefix + ".peak_resident_pages")),
      faults_(stats.counter(prefix + ".faults")),
      mmapCalls_(stats.counter(prefix + ".mmap_calls")),
      munmapCalls_(stats.counter(prefix + ".munmap_calls"))
{
    // The page-table root is kernel memory; construct after counters so
    // allocFrame() accounting is live.
    pageTable_ = std::make_unique<PageTable>(*this);
}

VirtualMemory::~VirtualMemory()
{
    for (const auto &[block, frame] : hugeMappings_)
        buddy_.free(frame, kHugePageShift - kPageShift);
    hugeMappings_.clear();
    // Free all resident user frames before the table tears down.
    for (const auto &[base, vma] : vmas_) {
        for (Addr va = vma.base; va < vma.end(); va += kPageSize) {
            unsigned freed_nodes = 0;
            Addr frame = pageTable_->unmap(va, freed_nodes);
            if (frame != kNullAddr)
                buddy_.freePage(frame);
        }
    }
    pageTable_.reset();
}

Addr
VirtualMemory::allocFrame()
{
    Addr frame = buddy_.allocatePage();
    sim_error_if(frame == kNullAddr, ErrorCategory::OutOfMemory,
                 "out of physical memory (kernel page-table node)");
    ++aggKernelPages_;
    ++residentKernel_;
    updatePeak();
    return frame;
}

void
VirtualMemory::freeFrame(Addr paddr)
{
    buddy_.freePage(paddr);
    --residentKernel_;
}

void
VirtualMemory::touchStructPage(Addr frame, Env *env, bool write)
{
    if (!env)
        return;
    // One struct page per frame, 64 B apart: fault and reclaim paths
    // read and update it (flags, LRU linkage, memcg charge). This is
    // kernel data movement that Memento's page allocator avoids.
    const Addr addr = kStructPageBase + (frame >> kPageShift) * 64;
    env->accessPhysical(addr, AccessType::Read);
    if (write)
        env->accessPhysical(addr, AccessType::Write);
}

void
VirtualMemory::updatePeak()
{
    peakResident_.raiseTo(residentUser_ + residentKernel_);
}

Addr
VirtualMemory::mmap(std::uint64_t len, Env *env, bool populate,
                    std::uint64_t align)
{
    panic_if(len == 0, "mmap of zero length");
    panic_if(!isPowerOfTwo(align) || align < kPageSize,
             "mmap: bad alignment");
    len = alignUp(len, kPageSize);

    sim_error_if(cfg_.inject.mmapFailAt != 0 &&
                     mmapCalls_.value() + 1 == cfg_.inject.mmapFailAt,
                 ErrorCategory::OutOfMemory,
                 "mmap failed (injected fault at call ",
                 cfg_.inject.mmapFailAt, ")");
    ++mmapCalls_;
    heapCursor_ = alignUp(heapCursor_, align);
    const Addr base = heapCursor_;
    heapCursor_ += len + kPageSize; // Guard gap between regions.
    vmas_[base] = Vma{base, len};
    aggVmaBytes_ += kVmaBytes;

    if (env) {
        CategoryScope scope(env->ledger(), CycleCategory::KernelMmap);
        env->chargeCycles(cfg_.kernel.modeSwitchCycles);
        env->chargeInstructions(cfg_.kernel.mmapInstructions);
    }

    const bool do_populate = populate || cfg_.kernel.mapPopulate;
    if (do_populate) {
        // Batched population: the kernel allocates high-order blocks,
        // initializes struct pages with vectorized stores, and zeroes
        // with non-temporal writes — far cheaper per page than a
        // demand fault.
        for (Addr va = base; va < base + len; va += kPageSize) {
            if (env) {
                CategoryScope scope(env->ledger(),
                                    CycleCategory::KernelMmap);
                env->chargeInstructions(80);
            }
            backPage(va, env, /*bulk=*/true);
        }
    }
    return base;
}

void
VirtualMemory::backPage(Addr vpage, Env *env, bool bulk)
{
    Addr frame = buddy_.allocatePage();
    sim_error_if(frame == kNullAddr, ErrorCategory::OutOfMemory,
                 "out of physical memory (user demand fault)");
    ++aggUserPages_;
    ++residentUser_;
    pageTable_->map(vpage, frame);
    updatePeak();
    if (!bulk)
        touchStructPage(frame, env, /*write=*/true);

    if (env) {
        if (bulk) {
            // Batched population (MAP_POPULATE) clears pages with
            // streaming non-temporal stores: no cache pollution, a
            // small fixed cost per page.
            env->chargeCycles(96);
        } else {
            // Demand-fault zero-fill: the kernel writes whole lines,
            // so no fetch happens (write-combining stores); the dirty
            // lines are written back to DRAM later, which is where the
            // traffic cost of zeroing shows up.
            for (unsigned line = 0; line < kPageSize / kLineSize;
                 ++line)
                env->installPhysical(frame + line * kLineSize);
        }
    }
}

void
VirtualMemory::munmap(Addr base, std::uint64_t len, Env *env)
{
    len = alignUp(len, kPageSize);
    auto it = vmas_.upper_bound(base);
    panic_if(it == vmas_.begin(), "munmap of unmapped range 0x", std::hex,
             base);
    --it;
    panic_if(base < it->second.base || base + len > it->second.end(),
             "munmap of unmapped range 0x", std::hex, base);

    ++munmapCalls_;
    splitHugeRange(base, len, env);
    std::uint64_t pages_present = 0;
    for (Addr va = base; va < base + len; va += kPageSize) {
        unsigned freed_nodes = 0;
        Addr frame = pageTable_->unmap(va, freed_nodes);
        if (frame != kNullAddr) {
            touchStructPage(frame, env, /*write=*/true);
            buddy_.freePage(frame);
            --residentUser_;
            ++pages_present;
        }
        if (env)
            env->tlbInvalidate(va);
    }

    Vma vma = it->second;
    if (base == vma.base && len == vma.length) {
        vmas_.erase(it);
    } else if (base == vma.base) {
        // Shrink from the front (the key changes).
        vmas_.erase(it);
        vmas_[base + len] = Vma{base + len, vma.length - len};
    } else if (base + len == vma.end()) {
        it->second.length = base - vma.base;
    } else {
        // Interior hole: split into head and tail.
        it->second.length = base - vma.base;
        vmas_[base + len] = Vma{base + len, vma.end() - (base + len)};
        aggVmaBytes_ += kVmaBytes;
    }

    if (env) {
        CategoryScope scope(env->ledger(), CycleCategory::KernelMmap);
        env->chargeCycles(cfg_.kernel.modeSwitchCycles);
        env->chargeInstructions(kMunmapBaseInstructions +
                                kMunmapPerPageInstructions * pages_present);
    }
}

void
VirtualMemory::madviseFree(Addr base, std::uint64_t len, Env *env)
{
    len = alignUp(len, kPageSize);
    splitHugeRange(base, len, env);
    std::uint64_t pages_present = 0;
    for (Addr va = pageBase(base); va < base + len; va += kPageSize) {
        unsigned freed_nodes = 0;
        Addr frame = pageTable_->unmap(va, freed_nodes);
        if (frame != kNullAddr) {
            touchStructPage(frame, env, /*write=*/true);
            buddy_.freePage(frame);
            --residentUser_;
            ++pages_present;
        }
        if (env)
            env->tlbInvalidate(va);
    }
    if (env && pages_present > 0) {
        CategoryScope scope(env->ledger(), CycleCategory::KernelMmap);
        env->chargeCycles(cfg_.kernel.modeSwitchCycles);
        env->chargeInstructions(500 +
                                kMunmapPerPageInstructions * pages_present);
    }
}

bool
VirtualMemory::inVma(Addr vaddr) const
{
    auto it = vmas_.upper_bound(vaddr);
    if (it == vmas_.begin())
        return false;
    --it;
    return vaddr >= it->second.base && vaddr < it->second.end();
}

std::optional<Addr>
VirtualMemory::lookupHuge(Addr vaddr) const
{
    const std::uint64_t huge = 1ull << kHugePageShift;
    const Addr block = vaddr & ~(huge - 1);
    auto it = hugeMappings_.find(block);
    if (it == hugeMappings_.end())
        return std::nullopt;
    return it->second + (vaddr - block);
}

bool
VirtualMemory::tryHugeFault(Addr vaddr, Env &env)
{
    const std::uint64_t huge = 1ull << kHugePageShift;
    const Addr block = vaddr & ~(huge - 1);
    // The whole block must lie inside one VMA.
    if (!inVma(block) || !inVma(block + huge - 1))
        return false;
    // No 4 KiB page of the block may already be backed.
    for (Addr va = block; va < block + huge; va += kPageSize) {
        if (pageTable_->isMapped(va))
            return false;
    }
    const Addr frame = buddy_.allocate(kHugePageShift - kPageShift);
    if (frame == kNullAddr)
        return false;

    hugeMappings_[block] = frame;
    ++hugeFaults_;
    const std::uint64_t pages = huge / kPageSize;
    aggUserPages_ += pages;
    residentUser_ += pages;
    updatePeak();
    touchStructPage(frame, &env, /*write=*/true);
    // Zeroing 2 MiB dominates the huge fault (streaming stores).
    env.chargeCycles(kThpZeroCyclesPerPage * pages);
    env.chargeInstructions(cfg_.kernel.faultInstructions +
                           kBuddyAllocInstructions);
    return true;
}

void
VirtualMemory::splitHugeRange(Addr base, std::uint64_t len, Env *env)
{
    if (hugeMappings_.empty())
        return;
    const std::uint64_t huge = 1ull << kHugePageShift;
    const Addr first = base & ~(huge - 1);
    for (Addr block = first; block < base + len; block += huge) {
        auto it = hugeMappings_.find(block);
        if (it == hugeMappings_.end())
            continue;
        buddy_.free(it->second, kHugePageShift - kPageShift);
        residentUser_ -= huge / kPageSize;
        hugeMappings_.erase(it);
        if (env) {
            env->tlbInvalidate(block);
            CategoryScope scope(env->ledger(),
                                CycleCategory::KernelMmap);
            env->chargeInstructions(800); // Huge-PMD split/zap path.
        }
    }
}

bool
VirtualMemory::handleFault(Addr vaddr, Env &env)
{
    if (!inVma(vaddr))
        return false;

    if (cfg_.kernel.transparentHugePages) {
        CategoryScope scope(env.ledger(), CycleCategory::KernelFault);
        env.chargeCycles(cfg_.kernel.modeSwitchCycles);
        if (tryHugeFault(vaddr, env)) {
            ++faults_;
            return true;
        }
        // Fall through to the 4 KiB path (mode switch already paid).
        ++faults_;
        env.chargeInstructions(cfg_.kernel.faultInstructions +
                               kBuddyAllocInstructions);
        backPage(pageBase(vaddr), &env);
        return true;
    }

    ++faults_;
    CategoryScope scope(env.ledger(), CycleCategory::KernelFault);
    env.chargeCycles(cfg_.kernel.modeSwitchCycles);
    env.chargeInstructions(cfg_.kernel.faultInstructions +
                           kBuddyAllocInstructions);
    backPage(pageBase(vaddr), &env);
    return true;
}

std::uint64_t
VirtualMemory::aggregateUserPages() const
{
    return aggUserPages_.value();
}

std::uint64_t
VirtualMemory::aggregateKernelPages() const
{
    return aggKernelPages_.value();
}

std::uint64_t
VirtualMemory::aggregateVmaBytes() const
{
    return aggVmaBytes_.value();
}

std::uint64_t
VirtualMemory::peakResidentPages() const
{
    return peakResident_.value();
}

std::uint64_t
VirtualMemory::faultCount() const
{
    return faults_.value();
}

std::vector<std::pair<Addr, Addr>>
VirtualMemory::vmaRanges() const
{
    std::vector<std::pair<Addr, Addr>> ranges;
    ranges.reserve(vmas_.size());
    for (const auto &[base, vma] : vmas_)
        ranges.emplace_back(vma.base, vma.end());
    return ranges;
}

} // namespace memento
