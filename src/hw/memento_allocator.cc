#include "hw/memento_allocator.h"

#include "sim/logging.h"
#include "sim/size_class.h"

namespace memento {

MementoAllocator::MementoAllocator(HwObjectAllocator &hw,
                                   MementoSpace &space, VirtualMemory &vm,
                                   StatRegistry &stats)
    : hw_(hw), space_(space), large_(vm, stats, "memento")
{
}

Addr
MementoAllocator::malloc(std::uint64_t size, Env &env)
{
    panic_if(size == 0, "memento: zero-size malloc");
    if (size > kMaxSmallSize)
        return large_.malloc(size, env);

    {
        // The obj-alloc instruction itself plus the size check in the
        // malloc shim (§4's first integration approach).
        CategoryScope scope(env.ledger(), CycleCategory::HwAlloc);
        env.chargeInstructions(3);
    }
    Addr va = hw_.objAlloc(space_, size, env, thread_);
    liveBytes_ += size;
    return va;
}

void
MementoAllocator::free(Addr ptr, Env &env)
{
    if (!hw_.geometry().inRegion(ptr)) {
        large_.free(ptr, env);
        return;
    }
    {
        CategoryScope scope(env.ledger(), CycleCategory::HwFree);
        env.chargeInstructions(3);
    }
    std::uint32_t bytes = 0;
    FreeStatus status = hw_.objFree(space_, ptr, env, thread_, &bytes);
    panic_if(status != FreeStatus::Ok,
             "memento: hardware raised a free exception for 0x", std::hex,
             ptr);
    liveBytes_ -= bytes;
}

void
MementoAllocator::functionExit(Env &env)
{
    // Batch free: every arena goes back to the page allocator with
    // hardware latency; no kernel munmap walk happens for the region.
    hw_.releaseAllArenas(space_, env);
    liveBytes_ = 0;
    large_.releaseAll(env);
}

double
MementoAllocator::inactiveSlotFraction() const
{
    return hw_.inactiveSlotFraction(space_);
}

bool
MementoAllocator::isLive(Addr ptr) const
{
    const ArenaGeometry &geo = hw_.geometry();
    if (!geo.inRegion(ptr))
        return large_.owns(ptr);
    // Live iff ptr starts a slot whose bit is set in a live arena.
    const Addr base = geo.arenaBaseOf(ptr);
    if (ptr < base + ArenaGeometry::kHeaderBytes)
        return false;
    const auto it = space_.arenas.find(base);
    if (it == space_.arenas.end())
        return false;
    const unsigned idx = geo.objIndexOf(ptr);
    return geo.objAddr(base, geo.classOf(ptr), idx) == ptr &&
           it->second.bitmap.test(idx);
}

} // namespace memento
