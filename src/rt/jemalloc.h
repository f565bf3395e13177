/**
 * @file
 * Model of a jemalloc-style allocator (C/C++ workloads).
 *
 * Small classes are served from a per-thread cache (tcache) refilled in
 * batches from slab runs; slabs are carved from large chunks that
 * jemalloc pre-maps and pre-faults at initialization — the behaviour the
 * paper calls out for DeathStarBench (§6.1): almost no kernel work, but
 * object alloc/free become the bottleneck. Sizes > 512 B go to the
 * shared glibc large model.
 */

#ifndef MEMENTO_RT_JEMALLOC_H
#define MEMENTO_RT_JEMALLOC_H

#include <cstdint>
#include <vector>

#include "rt/allocator.h"
#include "sim/addr_map.h"
#include "sim/size_class.h"
#include "sim/stats.h"

namespace memento {

/** JeMalloc's tunables: the §6.6 chunk-size study and server decay. */
struct JeMallocParams
{
    /** Chunk pre-mapped from the OS; set by tuning.jemalloc_chunk. */
    std::uint64_t chunkBytes = 4 << 20;
    /** tcache capacity per size class. */
    unsigned tcacheMax = 64;
    /**
     * Decay purging: every this many malloc/free operations, fully
     * free slabs are madvised away (jemalloc's decay). 0 disables it;
     * long-running servers enable it, which is what keeps page faults
     * frequent on their heaps (§5's data-processing applications).
     */
    std::uint64_t purgeIntervalOps = 0;
};

/** jemalloc-like tcache/slab allocator. */
class JeMalloc : public SoftwareAllocator
{
  public:
    /** Declared outside the class so it can default an argument. */
    using Params = JeMallocParams;

    /** Slab run size; tuning.jemalloc_chunk must be a multiple of it. */
    static constexpr std::uint64_t kSlabBytes = 16 << 10;

    /** @throws SimError (Config) when chunkBytes is not slab-aligned. */
    JeMalloc(VirtualMemory &vm, StatRegistry &stats, Params params = {});

    std::string name() const override { return "jemalloc"; }
    double inactiveSlotFraction() const override;

  private:
    /** Objects moved per tcache fill/flush. */
    static constexpr unsigned kBatch = 32;
    /** Pre-fault the first chunk at init (jemalloc behaviour). */
    static constexpr bool kPrefaultFirstChunk = true;
    /** Fast-path instruction budgets. */
    static constexpr InstCount kFastMallocInstructions = 28;
    static constexpr InstCount kFastFreeInstructions = 20;
    /** Whether fast paths touch the tcache metadata in memory. */
    static constexpr bool kTouchTcacheMeta = true;
    static_assert(isPowerOfTwo(kSlabBytes) && kSlabBytes >= kPageSize,
                  "jemalloc: slab size must be a power-of-two >= page size");

    struct Slab
    {
        Addr base = 0;
        unsigned szclass = 0;
        unsigned capacity = 0;
        unsigned carved = 0; ///< Objects handed to tcaches so far.
        std::vector<Addr> freeList; ///< Returned by tcache flushes.
        /** Live-object count per page (purge granularity). */
        std::vector<std::uint16_t> livePerPage;
    };

    Addr allocObject(std::uint64_t size, Env &env) override;
    void freeObject(Addr ptr, Env &env) override;
    void teardown(Env &env) override;

    /** Refill the class's tcache with a batch of objects. */
    void fillTcache(unsigned cls, Env &env);
    /** Flush half the tcache back to the owning slabs. */
    void flushTcache(unsigned cls, Env &env);
    /** Decay tick: purge object-free pages via madvise. */
    void maybePurge(Env &env);
    /** Adjust a slab's per-page live counts for one object. */
    void adjustLivePages(Slab &slab, Addr obj, int delta);
    /** Carve a new slab for @p cls from the current chunk. */
    Slab &newSlab(unsigned cls, Env &env);
    Addr slabBaseOf(Addr ptr) const;

    Params params_;

    std::vector<std::vector<Addr>> tcache_; ///< Per-class LIFO stacks.
    /** Slabs by base address. */
    AddrMap<Slab> slabs_;
    /** Per-class slabs with uncarved/free objects. */
    std::vector<std::vector<Addr>> partialSlabs_;
    /** Chunks mmap'd from the OS. */
    std::vector<Addr> chunks_;
    std::uint64_t chunkCursor_ = 0; ///< Bytes used in the last chunk.

    /** tcache metadata region (bins array), one line per class. */
    Addr tcacheMeta_ = 0;

    std::uint64_t opsSincePurge_ = 0;

    Counter smallMallocs_;
    Counter smallFrees_;
    Counter tcacheFills_;
    Counter tcacheFlushes_;
    Counter chunkMmaps_;
    Counter purges_;
    Counter purgedPages_;
};

} // namespace memento

#endif // MEMENTO_RT_JEMALLOC_H
