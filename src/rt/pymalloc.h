/**
 * @file
 * Model of CPython's pymalloc (obmalloc.c), per §2.1 of the paper.
 *
 * 256 KB arenas are mmap'd from the OS and split into 4 KB pools; each
 * pool serves one 8-byte-step size class <= 512 B and keeps a free list
 * threaded through the freed blocks themselves. Per-class used-pool
 * lists, per-arena free-pool lists, arena release via munmap when fully
 * free, and >512 B delegation to the glibc model all follow the real
 * allocator. Metadata accesses happen at the metadata's simulated
 * addresses, so the allocator's cache/TLB/fault behaviour is emergent.
 */

#ifndef MEMENTO_RT_PYMALLOC_H
#define MEMENTO_RT_PYMALLOC_H

#include <cstdint>
#include <map>
#include <vector>

#include "rt/allocator.h"
#include "sim/size_class.h"
#include "sim/stats.h"

namespace memento {

/** PyMalloc's tunable (the §6.6 "tuning software allocators" study). */
struct PyMallocParams
{
    /** Multiple of the 4 KiB pool; set by tuning.pymalloc_arena. */
    std::uint64_t arenaBytes = 256 << 10;
};

/** pymalloc-style arena/pool allocator. */
class PyMalloc : public SoftwareAllocator
{
  public:
    /** Declared outside the class so it can default an argument. */
    using Params = PyMallocParams;

    /** Pool size; tuning.pymalloc_arena must be a multiple of it. */
    static constexpr std::uint64_t kPoolBytes = 4 << 10;

    /** @throws SimError (Config) when arenaBytes is not pool-aligned. */
    PyMalloc(VirtualMemory &vm, StatRegistry &stats, Params params = {});

    std::string name() const override { return "pymalloc"; }
    double inactiveSlotFraction() const override;

    /** Number of live arenas (tests). */
    std::size_t arenaCount() const { return arenas_.size(); }

  private:
    /** Pool header size (struct pool_header). */
    static constexpr std::uint64_t kPoolHeaderBytes = 48;
    // Pool lookup on free masks the pointer with the pool size, which
    // requires pool-aligned arenas; mmap guarantees page alignment only.
    static_assert(kPoolBytes == kPageSize,
                  "pymalloc: pool size must equal the page size");

    /** A pools_ index that names no pool. */
    static constexpr std::uint32_t kNoPool = UINT32_MAX;

    struct Pool
    {
        /** kNullAddr while this record backs no pool. */
        Addr base = kNullAddr;
        unsigned szclass = 0;
        unsigned capacity = 0;
        unsigned used = 0;
        /** Next never-carved block (bump). */
        Addr bump = 0;
        /**
         * LIFO of freed block addresses (freeblock chain). A recycled
         * record keeps its capacity.
         */
        std::vector<Addr> freeBlocks;
        /** Neighbours in usedPools_[szclass] while linked there. */
        std::uint32_t prev = kNoPool;
        std::uint32_t next = kNoPool;
        bool inUsedList = false;

        bool
        hasFree() const
        {
            return !freeBlocks.empty() ||
                   bump + sizeClassBytes(szclass) <= base + kPoolBytes;
        }
    };

    struct Arena
    {
        Addr base = 0;
        /** Address of this arena's arena_object metadata slot. */
        Addr objAddr = 0;
        std::vector<Addr> freePools; ///< LIFO of uncarved/empty pools.
        /** pools_ index of each carved pool, by position in the arena. */
        std::vector<std::uint32_t> poolIndex;
        unsigned totalPools = 0;
        unsigned freeCount = 0;
    };

    Addr allocObject(std::uint64_t size, Env &env) override;
    void freeObject(Addr ptr, Env &env) override;
    void teardown(Env &env) override;

    /** The pool with free space for @p cls, acquiring one if needed. */
    std::uint32_t poolForClass(unsigned cls, Env &env);
    /** Carve a block from pools_[@p idx] (it must have space). */
    Addr carveBlock(std::uint32_t idx, Env &env);
    /** Take a free pool from an arena (mmap'ing a new arena if none). */
    std::uint32_t acquirePool(unsigned cls, Env &env);
    void releaseArena(Arena &arena, Env &env);
    /** Link pools_[@p idx] at the head of its class's used list. */
    void linkUsed(std::uint32_t idx);
    /** Unlink pools_[@p idx] from its class's used list. */
    void unlinkUsed(std::uint32_t idx);

    Params params_;

    /**
     * Pool records, indexed by the arenas' poolIndex. A released
     * pool's record goes to idlePools_ for reuse, so the host heap is
     * touched only when more pools are carved at once than ever before.
     */
    std::vector<Pool> pools_;
    std::vector<std::uint32_t> idlePools_;
    /**
     * Head of each class's list of pools with free blocks, linked
     * through Pool::prev/next; the head is the most recently used.
     */
    std::vector<std::uint32_t> usedPools_;
    std::map<Addr, Arena> arenas_; ///< Keyed by arena base.
    /** Arena-object table region (arena metadata lives here). */
    Addr arenaObjRegion_ = 0;
    std::uint64_t arenaObjCursor_ = 0;
    /** Recycled arena_object slots (CPython's unused_arena_objects). */
    std::vector<Addr> freeArenaObjSlots_;

    Counter smallMallocs_;
    Counter smallFrees_;
    Counter arenaMmaps_;
    Counter arenaMunmaps_;
    Counter poolAcquires_;
};

} // namespace memento

#endif // MEMENTO_RT_PYMALLOC_H
