#include "hw/memento_allocator.h"

#include "sim/error.h"
#include "sim/logging.h"

namespace memento {

MementoAllocator::MementoAllocator(HwObjectAllocator &hw,
                                   MementoSpace &space, VirtualMemory &vm,
                                   StatRegistry &stats)
    : Allocator(vm, stats, "memento"), hw_(hw), space_(space)
{
}

Addr
MementoAllocator::smallMalloc(std::uint64_t size, Env &env)
{
    {
        // The obj-alloc instruction itself plus the size check in the
        // malloc shim (§4's first integration approach).
        CategoryScope scope(env.ledger(), CycleCategory::HwAlloc);
        env.chargeInstructions(3);
    }
    return hw_.objAlloc(space_, size, env, thread_);
}

std::uint64_t
MementoAllocator::smallFree(Addr ptr, Env &env)
{
    if (!hw_.geometry().inRegion(ptr))
        return 0;
    {
        CategoryScope scope(env.ledger(), CycleCategory::HwFree);
        env.chargeInstructions(3);
    }
    std::uint32_t bytes = 0;
    FreeStatus status = hw_.objFree(space_, ptr, env, thread_, &bytes);
    sim_error_if(status != FreeStatus::Ok, ErrorCategory::Corruption,
                 "memento: hardware raised a free exception for 0x",
                 std::hex, ptr);
    return bytes;
}

void
MementoAllocator::smallExit(Env &env)
{
    // Batch free: every arena goes back to the page allocator with
    // hardware latency; no kernel munmap walk happens for the region.
    hw_.releaseAllArenas(space_, env);
}

double
MementoAllocator::inactiveSlotFraction() const
{
    return hw_.inactiveSlotFraction(space_);
}

bool
MementoAllocator::smallIsLive(Addr ptr) const
{
    const ArenaGeometry &geo = hw_.geometry();
    if (!geo.inRegion(ptr))
        return false;
    const Addr base = geo.arenaBaseOf(ptr);
    if (ptr < base + ArenaGeometry::kHeaderBytes)
        return false;
    const ArenaState *state = space_.arenas.find(base);
    if (!state)
        return false;
    const unsigned idx = geo.objIndexOf(ptr);
    return geo.objAddr(base, geo.classOf(ptr), idx) == ptr &&
           state->bitmap.test(idx);
}

} // namespace memento
