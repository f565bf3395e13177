/**
 * @file
 * The software-visible face of Memento: an rt::Allocator whose small
 * path executes the obj-alloc/obj-free ISA extensions. Allocator sends
 * sizes above 512 B to the software large path (§4's integration:
 * malloc checks the size); free routes on whether the pointer lies in
 * the Memento region, an address-arithmetic test.
 */

#ifndef MEMENTO_HW_MEMENTO_ALLOCATOR_H
#define MEMENTO_HW_MEMENTO_ALLOCATOR_H

#include "hw/hw_object_allocator.h"
#include "rt/allocator.h"

namespace memento {

/** Allocator adapter over the Memento hardware. */
class MementoAllocator : public Allocator
{
  public:
    /**
     * @param hw The core's hardware object allocator.
     * @param space This process's Memento state.
     * @param vm Address space (for the software large-object path).
     */
    MementoAllocator(HwObjectAllocator &hw, MementoSpace &space,
                     VirtualMemory &vm, StatRegistry &stats);

    std::string name() const override { return "memento"; }
    double inactiveSlotFraction() const override;

    /** Set the executing thread id (multi-threaded workloads, §4). */
    void setThread(unsigned thread) { thread_ = thread; }

  private:
    Addr smallMalloc(std::uint64_t size, Env &env) override;
    std::uint64_t smallFree(Addr ptr, Env &env) override;
    void smallExit(Env &env) override;
    /** Live iff @p ptr starts a slot whose bit is set in a live arena. */
    bool smallIsLive(Addr ptr) const override;

    HwObjectAllocator &hw_;
    MementoSpace &space_;
    unsigned thread_ = 0;
};

} // namespace memento

#endif // MEMENTO_HW_MEMENTO_ALLOCATOR_H
