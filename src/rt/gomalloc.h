/**
 * @file
 * Model of the Go 1.13 runtime allocator and garbage collector.
 *
 * Small objects come from 8 KB spans carved out of large (64 MB) arena
 * reservations; spans are cached per-P (mcache) and refilled from
 * mcentral/mheap. Objects are zeroed on allocation (mallocgc), which is
 * what drags Go's first-touch page faults onto the allocation path and
 * produces the paper's 56/44 user/kernel split (Table 2). free() only
 * records unreachability: within a short function the GC never fires,
 * so everything is batch-freed at exit (§2.2's "long-lived" Go bars in
 * Fig. 3); long-running processes (the FaaS platform ops) trigger
 * mark-and-sweep cycles once enough bytes have been allocated.
 */

#ifndef MEMENTO_RT_GOMALLOC_H
#define MEMENTO_RT_GOMALLOC_H

#include <cstdint>
#include <vector>

#include "rt/allocator.h"
#include "sim/addr_map.h"
#include "sim/size_class.h"
#include "sim/stats.h"

namespace memento {

/** GoMalloc's tunable. */
struct GoMallocParams
{
    /**
     * GC trigger: run a cycle when this many bytes have been allocated
     * since the last one. 0 disables GC (short-lived functions never
     * reach a trigger).
     */
    std::uint64_t gcTriggerBytes = 0;
};

/** Go-runtime-like allocator with optional GC. */
class GoMalloc : public SoftwareAllocator
{
  public:
    /** Declared outside the class so it can default an argument. */
    using Params = GoMallocParams;

    GoMalloc(VirtualMemory &vm, StatRegistry &stats, Params params = {});

    std::string name() const override { return "gomalloc"; }
    double inactiveSlotFraction() const override;

    /** Completed GC cycles. */
    std::uint64_t gcCycles() const { return gcRuns_.value(); }

    /** Run a mark-and-sweep cycle now (also used by tests). */
    void runGc(Env &env);

  private:
    /** Reservation unit requested from the OS (Go heap arena). */
    static constexpr std::uint64_t kArenaBytes = 64 << 20;
    /** Span size. */
    static constexpr std::uint64_t kSpanBytes = 8 << 10;
    /**
     * Scavenge fully-free spans after a GC cycle: their pages are
     * madvised back to the OS and fault in again on reuse (the Go 1.13
     * background scavenger).
     */
    static constexpr bool kScavenge = true;
    static_assert(isPowerOfTwo(kSpanBytes) && kSpanBytes >= kPageSize,
                  "gomalloc: span size must be a power-of-two >= page size");
    static_assert(kArenaBytes % kSpanBytes == 0,
                  "gomalloc: arena size must be a multiple of the span size");

    struct Span
    {
        Addr base = 0;
        Addr metaAddr = 0;
        unsigned szclass = 0;
        unsigned capacity = 0;
        unsigned carved = 0;
        unsigned liveCount = 0;
        std::vector<Addr> freeList;
        std::vector<Addr> dead; ///< Unreachable, not yet swept.
    };

    Addr allocObject(std::uint64_t size, Env &env) override;
    void freeObject(Addr ptr, Env &env) override;
    void teardown(Env &env) override;

    Span &spanForClass(unsigned cls, Env &env);
    Span &newSpan(unsigned cls, Env &env);
    Addr spanBaseOf(Addr ptr) const;

    Params params_;

    AddrMap<Span> spans_;
    std::vector<std::vector<Addr>> partialSpans_; ///< Per class.
    std::vector<Addr> idleSpans_; ///< Fully free, reusable (any class).
    std::vector<Addr> arenas_;    ///< OS reservations.
    std::uint64_t arenaCursor_ = 0;

    /** mcache/mcentral metadata region (one record per span). */
    Addr metaRegion_ = 0;
    std::uint64_t metaCursor_ = 0;

    std::uint64_t bytesSinceGc_ = 0;

    Counter smallMallocs_;
    Counter deaths_;
    Counter gcRuns_;
    Counter sweptObjects_;
    Counter arenaMmaps_;
    Counter spanCarves_;
};

} // namespace memento

#endif // MEMENTO_RT_GOMALLOC_H
