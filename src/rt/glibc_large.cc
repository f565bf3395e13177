#include "rt/glibc_large.h"

#include <algorithm>

#include "sim/logging.h"
#include "sim/size_class.h"

namespace memento {

GlibcLargeAlloc::GlibcLargeAlloc(VirtualMemory &vm, StatRegistry &stats,
                                 const std::string &prefix)
    : vm_(vm),
      prefix_(prefix),
      mallocs_(stats.counter(prefix + ".large_mallocs")),
      frees_(stats.counter(prefix + ".large_frees")),
      mmapServed_(stats.counter(prefix + ".large_mmap_served"))
{
}

Addr
GlibcLargeAlloc::malloc(std::uint64_t size, Env &env)
{
    panic_if(size <= kMaxSmallSize, "GlibcLargeAlloc: small size ", size);
    CategoryScope scope(env.ledger(), CycleCategory::UserAlloc);
    ++mallocs_;

    const std::uint64_t need = alignUp(size + kHeaderBytes, 16);

    if (need >= kMmapThreshold) {
        // Direct mmap path.
        ++mmapServed_;
        env.chargeInstructions(120);
        Addr base = vm_.mmap(alignUp(need, kPageSize), &env);
        Addr user = base + kHeaderBytes;
        env.accessVirtual(base, AccessType::Write); // Chunk header.
        live_.insert(user, Chunk{base, alignUp(need, kPageSize), size, true});
        liveBytes_ += size;
        return user;
    }

    // First fit over the binned free list.
    env.chargeInstructions(90);
    for (auto it = freeChunks_.begin(); it != freeChunks_.end(); ++it) {
        if (it->size >= need) {
            const Addr base = it->base;
            std::uint64_t chunk_size = it->size;
            // Split the remainder back when worthwhile; it keeps the
            // chunk's place in the address order.
            if (chunk_size - need >= 64) {
                *it = {base + need, chunk_size - need};
                chunk_size = need;
            } else {
                freeChunks_.erase(it);
            }
            env.accessVirtual(base, AccessType::Write);
            Addr user = base + kHeaderBytes;
            live_.insert(user, Chunk{base, chunk_size, size, false});
            liveBytes_ += size;
            return user;
        }
    }

    // Grow the top region.
    if (topUsed_ + need > topSize_) {
        const std::uint64_t grow =
            alignUp(need > kTopGrowBytes ? need : kTopGrowBytes, kPageSize);
        topBase_ = vm_.mmap(grow, &env);
        topSize_ = grow;
        topUsed_ = 0;
    }
    Addr base = topBase_ + topUsed_;
    topUsed_ += need;
    env.accessVirtual(base, AccessType::Write);
    Addr user = base + kHeaderBytes;
    live_.insert(user, Chunk{base, need, size, false});
    liveBytes_ += size;
    return user;
}

void
GlibcLargeAlloc::free(Addr ptr, Env &env)
{
    CategoryScope scope(env.ledger(), CycleCategory::UserFree);
    const std::optional<Chunk> taken = live_.take(ptr);
    panic_if(!taken, prefix_, ": bad free 0x", std::hex, ptr);
    ++frees_;
    const Chunk chunk = *taken;
    liveBytes_ -= chunk.requested;

    env.chargeInstructions(60);
    env.accessVirtual(chunk.base, AccessType::Read); // Header check.

    if (chunk.mmapped) {
        vm_.munmap(chunk.base, chunk.size, &env);
        return;
    }
    // Coalescing with neighbours is modeled by merging adjacent free
    // chunks in the list.
    auto next = std::lower_bound(
        freeChunks_.begin(), freeChunks_.end(), chunk.base,
        [](const FreeChunk &c, Addr base) { return c.base < base; });
    const bool merge_prev = next != freeChunks_.begin() &&
                            std::prev(next)->base + std::prev(next)->size ==
                                chunk.base;
    const bool merge_next = next != freeChunks_.end() &&
                            next->base == chunk.base + chunk.size;
    if (merge_prev) {
        std::prev(next)->size += chunk.size;
        if (merge_next) {
            std::prev(next)->size += next->size;
            freeChunks_.erase(next);
        }
    } else if (merge_next) {
        *next = {chunk.base, chunk.size + next->size};
    } else {
        freeChunks_.insert(next, {chunk.base, chunk.size});
    }
}

void
GlibcLargeAlloc::releaseAll(Env &env)
{
    // In ascending address order: the frees coalesce and unmap in
    // this order, and the cycles depend on it.
    const std::vector<Addr> ptrs = live_.sortedKeys();
    for (const Addr ptr : ptrs)
        free(ptr, env);
    freeChunks_.clear();
    liveBytes_ = 0;
}

} // namespace memento
