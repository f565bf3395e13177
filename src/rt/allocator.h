/**
 * @file
 * The userspace allocator contract the simulated application calls.
 *
 * Allocator implements the paper's software integration (§4) once:
 * malloc panics on size 0 and sends sizes above kMaxSmallSize to one
 * glibc-style large-object allocator; free offers the pointer to the
 * model's small path and sends it to the large path otherwise (which
 * panics on a pointer nobody owns); functionExit runs the model's
 * teardown, then releases the large objects; and the live-byte total
 * is kept here. A model implements only its small path, through the
 * protected small*() hooks.
 *
 * Models are *models of algorithms*: they maintain the same metadata
 * structures as the real allocators, place that metadata at real
 * simulated virtual addresses, and touch it through Env so that cache
 * behaviour, TLB behaviour, page faults and kernel calls all surface
 * exactly where the real software would cause them. Software small
 * paths charge under CycleCategory::UserAlloc and UserFree; kernel
 * work they trigger re-scopes itself (see VirtualMemory).
 */

#ifndef MEMENTO_RT_ALLOCATOR_H
#define MEMENTO_RT_ALLOCATOR_H

#include <cstdint>
#include <string>

#include "mem/env.h"
#include "rt/glibc_large.h"
#include "sim/addr_map.h"
#include "sim/logging.h"
#include "sim/size_class.h"
#include "sim/types.h"

namespace memento {

/** A userspace allocator: the §4 integration around a small path. */
class Allocator
{
  public:
    virtual ~Allocator() = default;
    Allocator(const Allocator &) = delete;
    Allocator &operator=(const Allocator &) = delete;

    /**
     * Allocate @p size bytes.
     * @return virtual address of the object (never kNullAddr).
     */
    Addr
    malloc(std::uint64_t size, Env &env)
    {
        panic_if(size == 0, name(), ": zero-size malloc");
        if (size > kMaxSmallSize)
            return large_.malloc(size, env);
        const Addr ptr = smallMalloc(size, env);
        smallLiveBytes_ += size;
        return ptr;
    }

    /**
     * Release the object at @p ptr. For garbage-collected runtimes this
     * records unreachability; reclamation may be deferred to a GC cycle
     * or to functionExit().
     */
    void
    free(Addr ptr, Env &env)
    {
        if (const std::uint64_t bytes = smallFree(ptr, env)) {
            smallLiveBytes_ -= bytes;
            return;
        }
        large_.free(ptr, env);
    }

    /**
     * Function/process teardown: batch-free everything still live and
     * return memory to the OS (the "freed by the OS when the function
     * exits" path of §2.2).
     */
    void
    functionExit(Env &env)
    {
        smallExit(env);
        smallLiveBytes_ = 0;
        large_.releaseAll(env);
    }

    /** True when @p ptr is a live allocation (test/validation hook). */
    bool
    isLive(Addr ptr) const
    {
        return smallIsLive(ptr) || large_.owns(ptr);
    }

    /** Bytes currently live (requested sizes). */
    std::uint64_t
    liveBytes() const
    {
        return smallLiveBytes_ + large_.liveBytes();
    }

    /**
     * Fraction of small-object slots currently tracked by the
     * allocator's metadata that are not live (the §6.6 fragmentation
     * metric; mixes fragmentation and free memory).
     */
    virtual double inactiveSlotFraction() const = 0;

    /** Allocator display name. */
    virtual std::string name() const = 0;

  protected:
    /** @p prefix names the large path's counters (<prefix>.large_*). */
    Allocator(VirtualMemory &vm, StatRegistry &stats,
              const std::string &prefix)
        : vm_(vm), large_(vm, stats, prefix)
    {
    }

    /** Allocate a small object (1..kMaxSmallSize bytes). */
    virtual Addr smallMalloc(std::uint64_t size, Env &env) = 0;

    /**
     * Free @p ptr if it is one of this model's small objects and return
     * its requested size; return 0 to send it to the large path.
     */
    virtual std::uint64_t smallFree(Addr ptr, Env &env) = 0;

    /** Tear down the small-object heap at function exit. */
    virtual void smallExit(Env &env) = 0;

    /** True when @p ptr is a live small object. */
    virtual bool smallIsLive(Addr ptr) const = 0;

    VirtualMemory &vm_;

  private:
    GlibcLargeAlloc large_;
    std::uint64_t smallLiveBytes_ = 0;
};

/**
 * The software models (pymalloc, jemalloc, gomalloc, tcmalloc): their
 * small objects are tracked in one pointer -> requested-size table,
 * whose lookup routes free() and answers isLive(). A model implements
 * allocObject(), freeObject() and teardown().
 */
class SoftwareAllocator : public Allocator
{
  protected:
    using Allocator::Allocator;

    /** Hand out a small object of @p size bytes. */
    virtual Addr allocObject(std::uint64_t size, Env &env) = 0;

    /** Take back the live small object at @p ptr. */
    virtual void freeObject(Addr ptr, Env &env) = 0;

    /** Release the whole small-object heap (process exit). */
    virtual void teardown(Env &env) = 0;

    /** Number of live small objects. */
    std::size_t liveObjects() const { return live_.size(); }

  private:
    Addr
    smallMalloc(std::uint64_t size, Env &env) final
    {
        const Addr ptr = allocObject(size, env);
        live_.insert(ptr, static_cast<std::uint16_t>(size));
        return ptr;
    }

    std::uint64_t
    smallFree(Addr ptr, Env &env) final
    {
        const std::optional<std::uint16_t> bytes = live_.take(ptr);
        if (!bytes)
            return 0;
        freeObject(ptr, env);
        return *bytes;
    }

    void
    smallExit(Env &env) final
    {
        teardown(env);
        live_.clear();
    }

    bool
    smallIsLive(Addr ptr) const final
    {
        return live_.contains(ptr);
    }

    static_assert(kMaxSmallSize <= UINT16_MAX);
    AddrMap<std::uint16_t> live_;
};

} // namespace memento

#endif // MEMENTO_RT_ALLOCATOR_H
