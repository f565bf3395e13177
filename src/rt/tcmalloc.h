/**
 * @file
 * Model of TCMalloc — the allocator Mallacc (§6.7's comparator) was
 * built to accelerate.
 *
 * Structure follows the classic design: per-thread caches hold size-
 * classed singly-linked free lists; misses refill in batches from the
 * central free lists, which carve spans from the page heap; the page
 * heap grows via mmap in large increments and keeps freed spans for
 * reuse. Compared to the jemalloc model: TCMalloc's thread-cache free
 * lists are threaded through the objects themselves (the free pop
 * dereferences the object — the load Mallacc's cache short-circuits),
 * and its central lists transfer in fixed batch sizes.
 *
 * The machine builds it only as the base of the idealized Mallacc
 * comparator (hw/mallacc.h); the C++ baseline is JeMalloc.
 */

#ifndef MEMENTO_RT_TCMALLOC_H
#define MEMENTO_RT_TCMALLOC_H

#include <cstdint>
#include <vector>

#include "rt/allocator.h"
#include "sim/addr_map.h"
#include "sim/size_class.h"
#include "sim/stats.h"

namespace memento {

/** TcMalloc's tunables: the fast-path parts Mallacc idealizes. */
struct TcMallocParams
{
    /**
     * Instructions of the fast-path steps Mallacc's malloc cache
     * serves (size-class lookup and free-list pop/push).
     */
    InstCount cachedPathInstructions = 14;
    /** Follow the free-list pointer inside the object on pop. */
    bool popTouchesObject = true;
};

/** TCMalloc-like thread-cache / central-list / page-heap allocator. */
class TcMalloc : public SoftwareAllocator
{
  public:
    /** Declared outside the class so it can default an argument. */
    using Params = TcMallocParams;

    TcMalloc(VirtualMemory &vm, StatRegistry &stats, Params params = {});

    double inactiveSlotFraction() const override;
    std::string name() const override { return "tcmalloc"; }

  private:
    /** Span size carved by the central lists. */
    static constexpr std::uint64_t kSpanBytes = 32 << 10;
    /** Page-heap growth increment (sys_alloc). */
    static constexpr std::uint64_t kGrowBytes = 1 << 20;
    /** Thread-cache capacity per class (object count). */
    static constexpr unsigned kCacheMax = 64;
    /** Objects moved per central transfer. */
    static constexpr unsigned kTransferBatch = 16;
    /** Instructions of the rest of the fast path. */
    static constexpr InstCount kRestOfFastPathInstructions = 12;
    static_assert(isPowerOfTwo(kSpanBytes) && kSpanBytes >= kPageSize,
                  "tcmalloc: span size must be a power-of-two >= page size");
    static_assert(kGrowBytes % kSpanBytes == 0,
                  "tcmalloc: grow size must be a multiple of the span size");

    struct Span
    {
        Addr base = 0;
        unsigned szclass = 0;
        unsigned capacity = 0;
        unsigned carved = 0;
        unsigned live = 0;
    };

    Addr allocObject(std::uint64_t size, Env &env) override;
    void freeObject(Addr ptr, Env &env) override;
    void teardown(Env &env) override;

    /** Refill the class's thread cache from the central list. */
    void refill(unsigned cls, Env &env);
    /** Release half the thread cache back to the central list. */
    void release(unsigned cls, Env &env);
    Span &spanOf(Addr ptr);

    Params params_;

    /** Thread cache: per-class LIFO of object addresses. */
    std::vector<std::vector<Addr>> cache_;
    /** Central free lists: per-class objects returned by releases. */
    std::vector<std::vector<Addr>> central_;
    /** Spans by base address. */
    AddrMap<Span> spans_;
    /** Per-class span with uncarved objects. */
    std::vector<Addr> openSpan_;

    /** Page-heap growth region. */
    Addr growBase_ = 0;
    std::uint64_t growUsed_ = 0;
    std::uint64_t growSize_ = 0;
    /** All growth regions mapped so far (for teardown). */
    std::vector<Addr> regions_;

    /** Central/pageheap metadata region (pre-populated, warm). */
    Addr metaRegion_ = 0;

    Counter smallMallocs_;
    Counter smallFrees_;
    Counter refills_;
    Counter releases_;
    Counter spanCarves_;
    Counter heapGrows_;
};

} // namespace memento

#endif // MEMENTO_RT_TCMALLOC_H
