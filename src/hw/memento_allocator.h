/**
 * @file
 * The software-visible face of Memento: an rt::Allocator whose small
 * path executes the obj-alloc/obj-free ISA extensions and whose large
 * path (>512 B) falls back to the software allocator, following the
 * integration approach chosen in §4 (malloc checks the size; free
 * checks whether the pointer lies in the Memento region).
 */

#ifndef MEMENTO_HW_MEMENTO_ALLOCATOR_H
#define MEMENTO_HW_MEMENTO_ALLOCATOR_H

#include "hw/hw_object_allocator.h"
#include "rt/allocator.h"
#include "rt/glibc_large.h"

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

    Addr malloc(std::uint64_t size, Env &env) override;
    void free(Addr ptr, Env &env) override;
    void functionExit(Env &env) override;
    bool isLive(Addr ptr) const override;
    std::uint64_t
    liveBytes() const override
    {
        return liveBytes_ + large_.liveBytes();
    }
    std::string name() const override { return "memento"; }
    double inactiveSlotFraction() const override;

    MementoSpace &space() { return space_; }

    /** Set the executing thread id (multi-threaded workloads, §4). */
    void setThread(unsigned thread) { thread_ = thread; }
    unsigned thread() const { return thread_; }

  private:
    HwObjectAllocator &hw_;
    MementoSpace &space_;
    GlibcLargeAlloc large_;

    /** Requested bytes of live small objects (sizes held per slot). */
    std::uint64_t liveBytes_ = 0;
    unsigned thread_ = 0;
};

} // namespace memento

#endif // MEMENTO_HW_MEMENTO_ALLOCATOR_H
