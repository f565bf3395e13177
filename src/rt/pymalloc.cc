#include "rt/pymalloc.h"

#include <algorithm>
#include <iterator>

#include "sim/logging.h"

namespace memento {

PyMalloc::PyMalloc(VirtualMemory &vm, StatRegistry &stats, Params params)
    : SoftwareAllocator(vm, stats, "pymalloc"),
      params_(params),
      usedPools_(kNumSmallClasses, kNoPool),
      smallMallocs_(stats.counter("pymalloc.small_mallocs")),
      smallFrees_(stats.counter("pymalloc.small_frees")),
      arenaMmaps_(stats.counter("pymalloc.arena_mmaps")),
      arenaMunmaps_(stats.counter("pymalloc.arena_munmaps")),
      poolAcquires_(stats.counter("pymalloc.pool_acquires"))
{
    // Region holding arena_object records (not eagerly populated: the
    // interpreter faults these in as arenas appear).
    arenaObjRegion_ = vm_.mmap(64 * kPageSize, nullptr);
}

std::uint32_t
PyMalloc::acquirePool(unsigned cls, Env &env)
{
    ++poolAcquires_;
    env.chargeInstructions(40);

    // Find a usable arena with a spare pool.
    for (auto &[base, arena] : arenas_) {
        if (arena.freeCount > 0) {
            env.accessVirtual(arena.objAddr, AccessType::Read);
            Addr pool_base = arena.freePools.back();
            arena.freePools.pop_back();
            --arena.freeCount;
            env.accessVirtual(arena.objAddr, AccessType::Write);

            std::uint32_t idx;
            if (!idlePools_.empty()) {
                idx = idlePools_.back();
                idlePools_.pop_back();
            } else {
                idx = static_cast<std::uint32_t>(pools_.size());
                pools_.emplace_back();
            }
            arena.poolIndex[(pool_base - base) / kPoolBytes] = idx;
            Pool &pool = pools_[idx];
            pool.base = pool_base;
            pool.szclass = cls;
            pool.capacity = static_cast<unsigned>(
                (kPoolBytes - kPoolHeaderBytes) / sizeClassBytes(cls));
            pool.used = 0;
            pool.bump = pool_base + kPoolHeaderBytes;
            // Initialize the pool header in place.
            env.chargeInstructions(25);
            env.accessVirtual(pool_base, AccessType::Write);
            return idx;
        }
    }

    // No free pools anywhere: mmap a fresh arena (step 4 of Fig. 1).
    ++arenaMmaps_;
    env.chargeInstructions(90);
    Addr arena_base = vm_.mmap(params_.arenaBytes, &env);

    Arena arena;
    arena.base = arena_base;
    if (!freeArenaObjSlots_.empty()) {
        arena.objAddr = freeArenaObjSlots_.back();
        freeArenaObjSlots_.pop_back();
    } else {
        panic_if(arenaObjCursor_ >= 64 * kPageSize,
                 "pymalloc: arena_object table exhausted");
        arena.objAddr = arenaObjRegion_ + arenaObjCursor_;
        arenaObjCursor_ += 64; // sizeof(struct arena_object)
    }
    arena.totalPools =
        static_cast<unsigned>(params_.arenaBytes / kPoolBytes);
    arena.freeCount = arena.totalPools;
    // Pools are handed out low-to-high; keep LIFO order so the first
    // pop is the lowest address (matches the real bump behaviour).
    arena.freePools.reserve(arena.totalPools);
    for (unsigned i = arena.totalPools; i > 0; --i)
        arena.freePools.push_back(arena_base + (i - 1) * kPoolBytes);
    arena.poolIndex.assign(arena.totalPools, kNoPool);
    env.accessVirtual(arena.objAddr, AccessType::Write);
    arenas_.emplace(arena_base, std::move(arena));

    return acquirePool(cls, env);
}

void
PyMalloc::linkUsed(std::uint32_t idx)
{
    Pool &pool = pools_[idx];
    std::uint32_t &head = usedPools_[pool.szclass];
    pool.prev = kNoPool;
    pool.next = head;
    if (head != kNoPool)
        pools_[head].prev = idx;
    head = idx;
    pool.inUsedList = true;
}

void
PyMalloc::unlinkUsed(std::uint32_t idx)
{
    Pool &pool = pools_[idx];
    if (pool.prev != kNoPool)
        pools_[pool.prev].next = pool.next;
    else
        usedPools_[pool.szclass] = pool.next;
    if (pool.next != kNoPool)
        pools_[pool.next].prev = pool.prev;
    pool.inUsedList = false;
}

std::uint32_t
PyMalloc::poolForClass(unsigned cls, Env &env)
{
    if (usedPools_[cls] != kNoPool)
        return usedPools_[cls];
    const std::uint32_t idx = acquirePool(cls, env);
    linkUsed(idx);
    return idx;
}

Addr
PyMalloc::carveBlock(std::uint32_t idx, Env &env)
{
    Pool &pool = pools_[idx];
    // Read the pool header, take the freeblock head or bump.
    env.accessVirtual(pool.base, AccessType::Read);
    Addr block;
    if (!pool.freeBlocks.empty()) {
        block = pool.freeBlocks.back();
        pool.freeBlocks.pop_back();
        // The free list is threaded through the blocks: follow it.
        env.accessVirtual(block, AccessType::Read);
    } else {
        block = pool.bump;
        pool.bump += sizeClassBytes(pool.szclass);
    }
    ++pool.used;
    env.accessVirtual(pool.base, AccessType::Write);

    // Pool exhausted: unlink from the used list.
    if (!pool.hasFree() && pool.inUsedList)
        unlinkUsed(idx);
    return block;
}

Addr
PyMalloc::allocObject(std::uint64_t size, Env &env)
{
    CategoryScope scope(env.ledger(), CycleCategory::UserAlloc);
    ++smallMallocs_;
    env.chargeInstructions(30); // PyObject_Malloc fast-path budget.

    const unsigned cls = sizeClassIndex(size);
    return carveBlock(poolForClass(cls, env), env);
}

void
PyMalloc::freeObject(Addr ptr, Env &env)
{
    CategoryScope scope(env.ledger(), CycleCategory::UserFree);
    ++smallFrees_;
    env.chargeInstructions(26);

    // Pool header from address arithmetic (step 5 of Fig. 1).
    const Addr pool_base = ptr & ~(kPoolBytes - 1);
    auto arena_it = arenas_.upper_bound(pool_base);
    panic_if(arena_it == arenas_.begin(), "pymalloc: free outside any pool");
    Arena &arena = std::prev(arena_it)->second;
    const std::uint64_t pool_no = (pool_base - arena.base) / kPoolBytes;
    panic_if(pool_no >= arena.totalPools ||
                 arena.poolIndex[pool_no] == kNoPool,
             "pymalloc: free outside any pool");
    const std::uint32_t idx = arena.poolIndex[pool_no];
    Pool &pool = pools_[idx];

    env.accessVirtual(pool.base, AccessType::Read);
    // Link the block onto the freeblock chain (a write into the block).
    env.accessVirtual(ptr, AccessType::Write);
    pool.freeBlocks.push_back(ptr);
    --pool.used;
    env.accessVirtual(pool.base, AccessType::Write);

    if (!pool.inUsedList) {
        // Pool was full and regained space: back to the used list head.
        linkUsed(idx);
        env.chargeInstructions(12);
    }

    if (pool.used == 0) {
        // Entirely free: return the pool to its arena.
        env.chargeInstructions(30);
        if (pool.inUsedList)
            unlinkUsed(idx);
        arena.freePools.push_back(pool.base);
        ++arena.freeCount;
        env.accessVirtual(arena.objAddr, AccessType::Write);
        arena.poolIndex[pool_no] = kNoPool;
        pool.base = kNullAddr;
        pool.freeBlocks.clear();
        idlePools_.push_back(idx);

        if (arena.freeCount == arena.totalPools)
            releaseArena(arena, env);
    }
}

void
PyMalloc::releaseArena(Arena &arena, Env &env)
{
    ++arenaMunmaps_;
    env.chargeInstructions(60);
    const Addr base = arena.base;
    freeArenaObjSlots_.push_back(arena.objAddr);
    vm_.munmap(base, params_.arenaBytes, &env);
    arenas_.erase(base);
}

void
PyMalloc::teardown(Env &env)
{
    // Process exit: the OS tears down all mappings wholesale; no
    // per-object work happens in userspace.
    CategoryScope scope(env.ledger(), CycleCategory::KernelOther);
    while (!arenas_.empty()) {
        Addr base = arenas_.begin()->first;
        vm_.munmap(base, params_.arenaBytes, &env);
        arenas_.erase(arenas_.begin());
    }
    pools_.clear();
    idlePools_.clear();
    std::fill(usedPools_.begin(), usedPools_.end(), kNoPool);
    freeArenaObjSlots_.clear();
    arenaObjCursor_ = 0;
}

double
PyMalloc::inactiveSlotFraction() const
{
    std::uint64_t total = 0;
    std::uint64_t used = 0;
    for (const Pool &pool : pools_) {
        if (pool.base == kNullAddr || pool.used == 0)
            continue; // No pool, or a fully free one: free memory, not slack.
        total += pool.capacity;
        used += pool.used;
    }
    if (total == 0)
        return 0.0;
    return 1.0 - static_cast<double>(used) / static_cast<double>(total);
}

} // namespace memento
