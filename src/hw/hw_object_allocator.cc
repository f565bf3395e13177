#include "hw/hw_object_allocator.h"

#include "mem/tlb.h"

namespace memento {

HwObjectAllocator::HwObjectAllocator(const MachineConfig &cfg,
                                     const ArenaGeometry &geometry,
                                     Hot &hot, HwPageAllocator &page_alloc,
                                     StatRegistry &stats)
    : cfg_(cfg),
      geometry_(geometry),
      hot_(hot),
      pageAlloc_(page_alloc),
      allocListOps_(stats.counter("hwobj.alloc_list_ops")),
      freeListOps_(stats.counter("hwobj.free_list_ops")),
      arenasReleased_(stats.counter("hwobj.arenas_released")),
      remoteFrees_(stats.counter("hwobj.remote_frees"))
{
}

ArenaState &
HwObjectAllocator::newArena(MementoSpace &space, unsigned cls, Env &env)
{
    auto grant = pageAlloc_.requestArena(space, cls, env);

    ArenaState state;
    state.va = grant.va;
    state.headerPa = grant.headerPa;
    state.szclass = cls;

    // Initialize the header in the cache hierarchy: the hardware writes
    // the VA field and clears the bitmap and list pointers (step 3 of
    // Fig. 6) without fetching stale data from DRAM.
    env.installPhysical(grant.headerPa);

    panic_if(space.arenas.contains(grant.va),
             "memento: duplicate arena at 0x", std::hex, grant.va);
    space.arenas.insert(grant.va, state);

    HotEntry &e = hot_.entry(cls);
    e.valid = true;
    e.arenaVa = grant.va;
    e.arenaPa = grant.headerPa;
    return space.arenas.at(grant.va);
}

ArenaState &
HwObjectAllocator::installArena(MementoSpace &space, unsigned cls, Env &env)
{
    auto &avail = space.availList[cls];
    if (!avail.empty()) {
        // Load the head of the available list into the HOT and unlink
        // it (two header-line references).
        ++allocListOps_;
        const Addr va = avail.front();
        avail.pop_front();
        ArenaState &state = space.arenas.at(va);
        env.accessPhysical(state.headerPa, AccessType::Read);
        env.accessPhysical(state.headerPa, AccessType::Write);

        HotEntry &e = hot_.entry(cls);
        e.valid = true;
        e.arenaVa = va;
        e.arenaPa = state.headerPa;
        return state;
    }
    return newArena(space, cls, env);
}

ArenaState &
HwObjectAllocator::replaceFullArena(MementoSpace &space, unsigned cls,
                                    Env &env, bool eager)
{
    HotEntry &e = hot_.entry(cls);
    panic_if(!e.valid, "replaceFullArena with invalid HOT entry");

    // Write the cached header back and insert it at the head of the
    // full list (step 8 of Fig. 6).
    ++allocListOps_;
    ArenaState &old_state = space.arenas.at(e.arenaVa);
    env.accessPhysical(old_state.headerPa, AccessType::Write);
    space.fullList[cls].push_front(e.arenaVa);

    (void)eager; // Timing of eager prefetch equals the demand path here;
                 // the hit/miss classification differs at the call site.
    return installArena(space, cls, env);
}

Addr
HwObjectAllocator::objAlloc(MementoSpace &space, std::uint64_t size,
                            Env &env, unsigned thread)
{
    panic_if(!isSmallSize(size),
             "obj-alloc size outside hardware range: ", size);
    CategoryScope scope(env.ledger(), CycleCategory::HwAlloc);
    env.chargeCycles(hot_.latency());

    const unsigned cls = sizeClassIndex(size);
    const unsigned capacity = geometry_.objectsPerArena();
    HotEntry &e = hot_.entry(cls);

    bool hit = true;
    ArenaState *state = nullptr;
    if (!e.valid) {
        hit = false;
        state = &installArena(space, cls, env);
    } else {
        state = &space.arenas.at(e.arenaVa);
        if (state->full(capacity)) {
            // Only reachable with eager prefetch disabled.
            hit = false;
            state = &replaceFullArena(space, cls, env, /*eager=*/false);
        }
    }

    const unsigned slot = state->findFreeSlot(capacity);
    panic_if(slot >= capacity, "installed arena has no free slot");
    state->bitmap.set(slot);
    state->slotBytes[slot] = static_cast<std::uint16_t>(size);
    ++state->allocated;
    state->ownerThread = thread;
    hot_.recordAlloc(hit);

    const Addr va = geometry_.objAddr(state->va, cls, slot);

    if (state->full(capacity) && cfg_.memento.eagerArenaPrefetch) {
        // Hide the next miss: retire the now-full arena and pull in the
        // next one while the core continues (step 9's optimization).
        // A new arena may grow the map, so `state` is not used after.
        replaceFullArena(space, cls, env, /*eager=*/true);
    }
    return va;
}

FreeStatus
HwObjectAllocator::objFree(MementoSpace &space, Addr va, Env &env,
                           unsigned thread, std::uint32_t *freedBytes)
{
    CategoryScope scope(env.ledger(), CycleCategory::HwFree);
    env.chargeCycles(hot_.latency());

    const unsigned cls = geometry_.classOf(va);
    const Addr arena_base = geometry_.arenaBaseOf(va);
    const unsigned capacity = geometry_.objectsPerArena();

    ArenaState *found = space.arenas.find(arena_base);
    if (!found)
        return FreeStatus::UnknownArena;
    // Held until the take() below: nothing in between inserts or
    // erases an arena, so the map does not move it.
    ArenaState &state = *found;

    const unsigned idx = geometry_.objIndexOf(va);
    if (!state.bitmap.test(idx) ||
        geometry_.objAddr(arena_base, cls, idx) != va)
        return FreeStatus::NotAllocated;
    if (freedBytes)
        *freedBytes = state.slotBytes[idx];

    if (state.ownerThread != thread) {
        // Cross-thread free: acquire exclusive ownership of the header
        // line (BusRdX through the hierarchy) before the atomic RMW.
        ++remoteFrees_;
        env.accessPhysical(state.headerPa, AccessType::Write);
        env.chargeCycles(4); // Serialized RMW at the HOT.
    }

    HotEntry &e = hot_.entry(cls);
    const bool hit = e.valid && e.arenaVa == arena_base;
    hot_.recordFree(hit);

    const bool was_full = state.full(capacity);
    if (!hit) {
        // Translate the arena base through the TLB, fetch the header,
        // clear the bit, write it back (step 13 of Fig. 6).
        env.chargeCycles(kL1TlbLatency);
        env.accessPhysical(state.headerPa, AccessType::Read);
    }
    state.bitmap.reset(idx);
    --state.allocated;
    if (!hit)
        env.accessPhysical(state.headerPa, AccessType::Write);

    // Bypass-counter maintenance: a freed object surrenders its lines
    // if they were the high-water mark.
    const unsigned first_line = geometry_.lineIndexOf(va);
    const unsigned last_line =
        geometry_.lineIndexOf(va + sizeClassBytes(cls) - 1);
    if (state.bypassCounter == last_line + 1)
        state.bypassCounter = first_line;

    if (was_full && !hit) {
        // The arena sits on the full list (HOT-resident arenas live on
        // no list): move it back onto the available list (head insert).
        ++freeListOps_;
        auto &full = space.fullList[cls];
        for (auto fit = full.begin(); fit != full.end(); ++fit) {
            if (*fit == arena_base) {
                full.erase(fit);
                break;
            }
        }
        space.availList[cls].push_front(arena_base);
        env.accessPhysical(state.headerPa, AccessType::Write);
    }

    if (state.empty() && !hit) {
        // Last live object gone and the arena is not HOT-resident:
        // hand the memory back to the page allocator (§3.2).
        auto &avail = space.availList[cls];
        for (auto ait = avail.begin(); ait != avail.end(); ++ait) {
            if (*ait == arena_base) {
                avail.erase(ait);
                break;
            }
        }
        pageAlloc_.freeArena(space, arena_base, env);
        space.arenas.take(arena_base);
    }
    return FreeStatus::Ok;
}

void
HwObjectAllocator::releaseAllArenas(MementoSpace &space, Env &env)
{
    // Release in ascending VA order: freeArena rebuilds the page
    // allocator's free lists, which the next function instance
    // allocates from, so the order is simulated state.
    for (Addr va : space.arenas.sortedKeys()) {
        ++arenasReleased_;
        pageAlloc_.freeArena(space, va, env);
    }
    space.arenas.clear();
    for (auto &list : space.availList)
        list.clear();
    for (auto &list : space.fullList)
        list.clear();
    hot_.flush();
}

double
HwObjectAllocator::inactiveSlotFraction(const MementoSpace &space) const
{
    // Slots in arenas holding at least one live object; completely
    // empty arenas are pending release (free memory, not slack).
    const unsigned capacity = geometry_.objectsPerArena();
    std::uint64_t total = 0;
    std::uint64_t active = 0;
    // Commutative integer sums: visit order cannot affect the result.
    space.arenas.forEach([&](Addr, const ArenaState &state) {
        if (state.allocated == 0)
            return;
        total += capacity;
        active += state.allocated;
    });
    if (total == 0)
        return 0.0;
    return 1.0 - static_cast<double>(active) / static_cast<double>(total);
}

} // namespace memento
