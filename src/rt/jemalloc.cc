#include "rt/jemalloc.h"

#include <utility>

#include "sim/error.h"
#include "sim/logging.h"

namespace memento {

JeMalloc::JeMalloc(VirtualMemory &vm, StatRegistry &stats, Params params)
    : SoftwareAllocator(vm, stats, "jemalloc"),
      params_(params),
      tcache_(kNumSmallClasses),
      partialSlabs_(kNumSmallClasses),
      smallMallocs_(stats.counter("jemalloc.small_mallocs")),
      smallFrees_(stats.counter("jemalloc.small_frees")),
      tcacheFills_(stats.counter("jemalloc.tcache_fills")),
      tcacheFlushes_(stats.counter("jemalloc.tcache_flushes")),
      chunkMmaps_(stats.counter("jemalloc.chunk_mmaps")),
      purges_(stats.counter("jemalloc.purges")),
      purgedPages_(stats.counter("jemalloc.purged_pages"))
{
    sim_error_if(params_.chunkBytes % kSlabBytes != 0,
                 ErrorCategory::Config, "tuning.jemalloc_chunk (",
                 params_.chunkBytes, ") must be a multiple of the ",
                 kSlabBytes, " B slab size");

    // tcache bins metadata (stack pointers per class): pre-populated.
    tcacheMeta_ = vm_.mmap(kPageSize, nullptr, /*populate=*/true);

    // jemalloc pre-maps (and effectively pre-faults) its first chunk at
    // library initialization. This is pre-existing state for a warm
    // function, so no Env is charged.
    Addr chunk = vm_.mmap(params_.chunkBytes, nullptr,
                          kPrefaultFirstChunk, kSlabBytes);
    chunks_.push_back(chunk);
    chunkCursor_ = 0;
}

Addr
JeMalloc::slabBaseOf(Addr ptr) const
{
    return ptr & ~(kSlabBytes - 1);
}

void
JeMalloc::adjustLivePages(Slab &slab, Addr obj, int delta)
{
    if (slab.livePerPage.empty())
        return;
    const std::uint64_t size = sizeClassBytes(slab.szclass);
    const std::size_t first = (obj - slab.base) >> kPageShift;
    const std::size_t last = (obj + size - 1 - slab.base) >> kPageShift;
    for (std::size_t page = first; page <= last; ++page) {
        slab.livePerPage[page] =
            static_cast<std::uint16_t>(slab.livePerPage[page] + delta);
    }
}

JeMalloc::Slab &
JeMalloc::newSlab(unsigned cls, Env &env)
{
    if (chunkCursor_ + kSlabBytes > params_.chunkBytes) {
        // Current chunk exhausted: map another (rare).
        ++chunkMmaps_;
        env.chargeInstructions(200);
        Addr chunk =
            vm_.mmap(params_.chunkBytes, &env, false, kSlabBytes);
        chunks_.push_back(chunk);
        chunkCursor_ = 0;
    }
    Addr base = chunks_.back() + chunkCursor_;
    chunkCursor_ += kSlabBytes;

    Slab slab;
    slab.base = base;
    slab.szclass = cls;
    slab.capacity = static_cast<unsigned>(kSlabBytes / sizeClassBytes(cls));
    if (params_.purgeIntervalOps != 0)
        slab.livePerPage.assign(kSlabBytes / kPageSize, 0);
    env.chargeInstructions(200);
    env.accessVirtual(base, AccessType::Write); // Slab header init.
    panic_if(slabs_.contains(base), "jemalloc: slab already exists");
    slabs_.insert(base, std::move(slab));
    partialSlabs_[cls].push_back(base);
    return slabs_.at(base);
}

void
JeMalloc::fillTcache(unsigned cls, Env &env)
{
    ++tcacheFills_;
    env.chargeInstructions(340);
    env.accessVirtual(tcacheMeta_ + cls * kLineSize / 4,
                      AccessType::Write);

    unsigned want = kBatch;
    while (want > 0) {
        if (partialSlabs_[cls].empty())
            newSlab(cls, env);
        Addr slab_base = partialSlabs_[cls].back();
        Slab &slab = slabs_.at(slab_base);
        env.accessVirtual(slab.base, AccessType::Write); // Bitmap update.

        while (want > 0) {
            Addr obj = kNullAddr;
            if (!slab.freeList.empty()) {
                // Address-ordered reuse (jemalloc policy): densify the
                // slab's low pages so whole pages drain and purge.
                auto min_it = slab.freeList.begin();
                for (auto it = slab.freeList.begin();
                     it != slab.freeList.end(); ++it) {
                    if (*it < *min_it)
                        min_it = it;
                }
                obj = *min_it;
                *min_it = slab.freeList.back();
                slab.freeList.pop_back();
            } else if (slab.carved < slab.capacity) {
                obj = slab.base + static_cast<std::uint64_t>(slab.carved) *
                                      sizeClassBytes(cls);
                ++slab.carved;
            } else {
                break; // Slab has nothing left to hand out.
            }
            adjustLivePages(slab, obj, +1);
            tcache_[cls].push_back(obj);
            --want;
        }
        if (slab.freeList.empty() && slab.carved == slab.capacity)
            partialSlabs_[cls].pop_back();
    }
}

void
JeMalloc::flushTcache(unsigned cls, Env &env)
{
    ++tcacheFlushes_;
    env.chargeInstructions(300);
    env.accessVirtual(tcacheMeta_ + cls * kLineSize / 4,
                      AccessType::Write);

    unsigned flush = kBatch;
    auto &stack = tcache_[cls];
    while (flush > 0 && !stack.empty()) {
        Addr obj = stack.front();
        stack.erase(stack.begin());
        Addr slab_base = slabBaseOf(obj);
        Slab &slab = slabs_.at(slab_base);
        const bool was_exhausted =
            slab.freeList.empty() && slab.carved == slab.capacity;
        slab.freeList.push_back(obj);
        adjustLivePages(slab, obj, -1);
        env.chargeInstructions(16);
        env.accessVirtual(slab.base, AccessType::Write);
        if (was_exhausted)
            partialSlabs_[cls].push_back(slab_base);
        --flush;
    }
}

void
JeMalloc::maybePurge(Env &env)
{
    if (params_.purgeIntervalOps == 0)
        return;
    if (++opsSincePurge_ < params_.purgeIntervalOps)
        return;
    opsSincePurge_ = 0;
    ++purges_;

    // jemalloc decay: pages that back no live object are returned to
    // the OS; the virtual addresses stay valid and fault back in on
    // reuse. This is what keeps long-running servers' page-fault rates
    // high even at a stable heap size.
    CategoryScope scope(env.ledger(), CycleCategory::UserFree);
    env.chargeInstructions(400);
    // Decay in ascending slab order: madviseFree mutates VM state, so
    // the order is part of the access sequence and the state digest.
    for (Addr base : slabs_.sortedKeys()) {
        Slab &slab = slabs_.at(base);
        if (slab.livePerPage.empty())
            continue;
        for (std::size_t page = 0; page < slab.livePerPage.size();
             ++page) {
            if (slab.livePerPage[page] == 0) {
                // madviseFree of an already-absent page charges
                // nothing, so repeated purges are harmless.
                vm_.madviseFree(base + page * kPageSize, kPageSize,
                                &env);
                ++purgedPages_;
            }
        }
    }
}

Addr
JeMalloc::allocObject(std::uint64_t size, Env &env)
{
    maybePurge(env);

    CategoryScope scope(env.ledger(), CycleCategory::UserAlloc);
    ++smallMallocs_;
    env.chargeInstructions(kFastMallocInstructions);

    const unsigned cls = sizeClassIndex(size);
    if (kTouchTcacheMeta)
        env.accessVirtual(tcacheMeta_ + cls * kLineSize / 4,
                          AccessType::Read);
    if (tcache_[cls].empty())
        fillTcache(cls, env);

    Addr obj = tcache_[cls].back();
    tcache_[cls].pop_back();
    return obj;
}

void
JeMalloc::freeObject(Addr ptr, Env &env)
{
    CategoryScope scope(env.ledger(), CycleCategory::UserFree);
    ++smallFrees_;
    env.chargeInstructions(kFastFreeInstructions);

    const Addr slab_base = slabBaseOf(ptr);
    const unsigned cls = slabs_.at(slab_base).szclass;
    if (kTouchTcacheMeta)
        env.accessVirtual(tcacheMeta_ + cls * kLineSize / 4,
                          AccessType::Write);
    tcache_[cls].push_back(ptr);
    if (tcache_[cls].size() > params_.tcacheMax)
        flushTcache(cls, env);
}

void
JeMalloc::teardown(Env &env)
{
    // Process exit: chunks go back to the OS wholesale.
    CategoryScope scope(env.ledger(), CycleCategory::KernelOther);
    for (Addr chunk : chunks_)
        vm_.munmap(chunk, params_.chunkBytes, &env);
    chunks_.clear();
    slabs_.clear();
    for (auto &stack : tcache_)
        stack.clear();
    for (auto &list : partialSlabs_)
        list.clear();
    chunkCursor_ = params_.chunkBytes; // Force a new chunk if reused.
}

double
JeMalloc::inactiveSlotFraction() const
{
    std::uint64_t total = 0;
    std::uint64_t inactive = 0;
    // Commutative integer sums: visit order cannot affect the result.
    slabs_.forEach([&](Addr, const Slab &slab) {
        if (slab.freeList.size() == slab.carved)
            return; // No live objects: free memory, not slack.
        total += slab.capacity;
        inactive += (slab.capacity - slab.carved) + slab.freeList.size();
    });
    // Objects parked in tcaches are also not live.
    for (const auto &stack : tcache_)
        inactive += stack.size();
    if (total == 0)
        return 0.0;
    return static_cast<double>(inactive) / static_cast<double>(total);
}

} // namespace memento
