#include "rt/glibc_large.h"

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
        live_[user] = Chunk{base, alignUp(need, kPageSize), size, true};
        liveBytes_ += size;
        return user;
    }

    // First fit over the binned free list.
    env.chargeInstructions(90);
    for (auto it = freeChunks_.begin(); it != freeChunks_.end(); ++it) {
        if (it->second >= need) {
            Addr base = it->first;
            std::uint64_t chunk_size = it->second;
            freeChunks_.erase(it);
            // Split the remainder back when worthwhile.
            if (chunk_size - need >= 64) {
                freeChunks_[base + need] = chunk_size - need;
                chunk_size = need;
            }
            env.accessVirtual(base, AccessType::Write);
            Addr user = base + kHeaderBytes;
            live_[user] = Chunk{base, chunk_size, size, false};
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
    live_[user] = Chunk{base, need, size, false};
    liveBytes_ += size;
    return user;
}

void
GlibcLargeAlloc::free(Addr ptr, Env &env)
{
    CategoryScope scope(env.ledger(), CycleCategory::UserFree);
    auto it = live_.find(ptr);
    panic_if(it == live_.end(), prefix_, ": bad free 0x", std::hex, ptr);
    ++frees_;
    const Chunk chunk = it->second;
    live_.erase(it);
    liveBytes_ -= chunk.requested;

    env.chargeInstructions(60);
    env.accessVirtual(chunk.base, AccessType::Read); // Header check.

    if (chunk.mmapped) {
        vm_.munmap(chunk.base, chunk.size, &env);
        return;
    }
    // Coalescing with neighbours is modeled by merging adjacent free
    // chunks in the map.
    Addr base = chunk.base;
    std::uint64_t size = chunk.size;
    auto next = freeChunks_.find(base + size);
    if (next != freeChunks_.end()) {
        size += next->second;
        freeChunks_.erase(next);
    }
    if (!freeChunks_.empty()) {
        auto prev = freeChunks_.lower_bound(base);
        if (prev != freeChunks_.begin()) {
            --prev;
            if (prev->first + prev->second == base) {
                base = prev->first;
                size += prev->second;
                freeChunks_.erase(prev);
            }
        }
    }
    freeChunks_[base] = size;
}

void
GlibcLargeAlloc::releaseAll(Env &env)
{
    while (!live_.empty())
        free(live_.begin()->first, env);
    freeChunks_.clear();
    liveBytes_ = 0;
}

} // namespace memento
