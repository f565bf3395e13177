/**
 * @file
 * glibc-malloc-like handler for large (>512 B) allocations.
 *
 * The paper routes allocations above 512 bytes to software (glibc) in
 * both the baseline and the Memento system, so this model is shared:
 * medium sizes are served first-fit from binned free lists over a
 * sbrk/mmap-grown top region; sizes at or above the mmap threshold map
 * and unmap their own regions, exactly the behaviour that makes large
 * allocations kernel-heavy.
 */

#ifndef MEMENTO_RT_GLIBC_LARGE_H
#define MEMENTO_RT_GLIBC_LARGE_H

#include <cstdint>
#include <string>
#include <vector>

#include "mem/env.h"
#include "os/virtual_memory.h"
#include "sim/addr_map.h"
#include "sim/stats.h"

namespace memento {

/** Large-object allocator in the style of glibc's ptmalloc. */
class GlibcLargeAlloc
{
  public:
    /** Allocations at or above this size get their own mapping. */
    static constexpr std::uint64_t kMmapThreshold = 128 << 10;
    /** Top-region growth increment. */
    static constexpr std::uint64_t kTopGrowBytes = 1 << 20;

    GlibcLargeAlloc(VirtualMemory &vm, StatRegistry &stats,
                    const std::string &prefix);

    /** Allocate @p size (> kMaxSmallSize) bytes. */
    Addr malloc(std::uint64_t size, Env &env);

    /**
     * Free a pointer previously returned by malloc(). Allocator sends
     * every pointer its small path does not own here, so this is where
     * a double, interior or stray free panics.
     */
    void free(Addr ptr, Env &env);

    /** True when @p ptr was allocated here and is live. */
    bool owns(Addr ptr) const { return live_.contains(ptr); }

    /** Live bytes (requested). */
    std::uint64_t liveBytes() const { return liveBytes_; }

    /** Release everything (process teardown). */
    void releaseAll(Env &env);

  private:
    struct Chunk
    {
        Addr base = 0;
        std::uint64_t size = 0;      ///< Usable size incl. header.
        std::uint64_t requested = 0; ///< Size the caller asked for.
        bool mmapped = false;
    };

    VirtualMemory &vm_;
    const std::string prefix_; ///< Counter prefix; names panics too.

    struct FreeChunk
    {
        Addr base = 0;
        std::uint64_t size = 0;
    };

    /** Free chunks in the top region, ascending by base (first fit). */
    std::vector<FreeChunk> freeChunks_;
    /** Live allocations: user pointer -> chunk. */
    AddrMap<Chunk> live_;
    std::uint64_t liveBytes_ = 0;
    Addr topBase_ = 0;   ///< Current top region (grown on demand).
    std::uint64_t topUsed_ = 0;
    std::uint64_t topSize_ = 0;

    Counter mallocs_;
    Counter frees_;
    Counter mmapServed_;

    static constexpr std::uint64_t kHeaderBytes = 16;
};

} // namespace memento

#endif // MEMENTO_RT_GLIBC_LARGE_H
