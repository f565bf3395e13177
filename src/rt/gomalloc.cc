#include "rt/gomalloc.h"

#include <algorithm>
#include <utility>

#include "sim/logging.h"

namespace memento {

GoMalloc::GoMalloc(VirtualMemory &vm, StatRegistry &stats, Params params)
    : SoftwareAllocator(vm, stats, "gomalloc"),
      params_(params),
      partialSpans_(kNumSmallClasses),
      smallMallocs_(stats.counter("gomalloc.small_mallocs")),
      deaths_(stats.counter("gomalloc.deaths")),
      gcRuns_(stats.counter("gomalloc.gc_runs")),
      sweptObjects_(stats.counter("gomalloc.swept_objects")),
      arenaMmaps_(stats.counter("gomalloc.arena_mmaps")),
      spanCarves_(stats.counter("gomalloc.span_carves"))
{
    // mspan records live in runtime-managed memory, demand-faulted as
    // the heap grows (this is kernel-visible metadata growth).
    metaRegion_ = vm_.mmap(256 * kPageSize, nullptr);
}

Addr
GoMalloc::spanBaseOf(Addr ptr) const
{
    return ptr & ~(kSpanBytes - 1);
}

GoMalloc::Span &
GoMalloc::newSpan(unsigned cls, Env &env)
{
    ++spanCarves_;
    Addr base;
    if (!idleSpans_.empty()) {
        base = idleSpans_.back();
        idleSpans_.pop_back();
        spans_.take(base);
    } else {
        if (arenas_.empty() || arenaCursor_ + kSpanBytes > kArenaBytes) {
            // mheap growth: reserve a new arena from the OS. Go's
            // reservations are huge, so this is rare but expensive.
            ++arenaMmaps_;
            env.chargeInstructions(350);
            arenas_.push_back(vm_.mmap(kArenaBytes, &env, false, kSpanBytes));
            arenaCursor_ = 0;
        }
        base = arenas_.back() + arenaCursor_;
        arenaCursor_ += kSpanBytes;
    }

    Span span;
    span.base = base;
    span.szclass = cls;
    span.capacity =
        static_cast<unsigned>(kSpanBytes / sizeClassBytes(cls));
    span.metaAddr = metaRegion_ + metaCursor_;
    metaCursor_ = (metaCursor_ + 64) % (256 * kPageSize);

    // mcentral span acquisition: list surgery plus mspan init.
    env.chargeInstructions(230);
    env.accessVirtual(span.metaAddr, AccessType::Write);

    panic_if(spans_.contains(base), "gomalloc: span already exists at 0x",
             std::hex, base);
    spans_.insert(base, std::move(span));
    partialSpans_[cls].push_back(base);
    return spans_.at(base);
}

GoMalloc::Span &
GoMalloc::spanForClass(unsigned cls, Env &env)
{
    auto &list = partialSpans_[cls];
    while (!list.empty()) {
        Span &span = spans_.at(list.back());
        if (!span.freeList.empty() || span.carved < span.capacity)
            return span;
        list.pop_back(); // Exhausted; drop from the partial list.
    }
    return newSpan(cls, env);
}

Addr
GoMalloc::allocObject(std::uint64_t size, Env &env)
{
    if (params_.gcTriggerBytes != 0 &&
        bytesSinceGc_ >= params_.gcTriggerBytes)
        runGc(env);

    CategoryScope scope(env.ledger(), CycleCategory::UserAlloc);
    ++smallMallocs_;
    env.chargeInstructions(85); // mallocgc small-object budget.

    const unsigned cls = sizeClassIndex(size);
    Span &span = spanForClass(cls, env);
    env.accessVirtual(span.metaAddr, AccessType::Read);

    Addr obj;
    if (!span.freeList.empty()) {
        obj = span.freeList.back();
        span.freeList.pop_back();
    } else {
        obj = span.base + static_cast<std::uint64_t>(span.carved) *
                              sizeClassBytes(cls);
        ++span.carved;
    }
    ++span.liveCount;
    env.accessVirtual(span.metaAddr, AccessType::Write); // allocBits.

    // mallocgc zeroes the object: this write is what demand-faults the
    // heap page on the allocation path.
    env.accessVirtual(obj, AccessType::Write);
    bytesSinceGc_ += sizeClassBytes(cls);
    return obj;
}

void
GoMalloc::freeObject(Addr ptr, Env &env)
{
    // Becoming unreachable costs nothing at the moment of death; the
    // object is reclaimed by a future GC sweep (or batch-freed at
    // function exit by the OS).
    ++deaths_;
    Span &span = spans_.at(spanBaseOf(ptr));
    span.dead.push_back(ptr);
    --span.liveCount;
    (void)env;
}

void
GoMalloc::runGc(Env &env)
{
    ++gcRuns_;
    CategoryScope scope(env.ledger(), CycleCategory::UserFree);

    // Mark: proportional to the live set.
    env.chargeInstructions(20 * liveObjects() + 4000);

    // Sweep in ascending span order: the sweep touches span metadata
    // (cache state) and appends reclaimed spans to the partial/idle
    // lists that later allocations pop from, so the order is simulated
    // state.
    for (Addr base : spans_.sortedKeys()) {
        Span &span = spans_.at(base);
        if (span.dead.empty())
            continue;
        env.chargeInstructions(60 + 12 * span.dead.size());
        env.accessVirtual(span.metaAddr, AccessType::Write);
        sweptObjects_ += span.dead.size();
        const bool was_exhausted =
            span.freeList.empty() && span.carved == span.capacity;
        for (Addr obj : span.dead)
            span.freeList.push_back(obj);
        span.dead.clear();
        if (was_exhausted && span.liveCount > 0)
            partialSpans_[span.szclass].push_back(base);
        if (span.liveCount == 0) {
            // Fully free span: hand it back to the mheap. It must leave
            // its class's partial list or a later allocation of that
            // class could find a span that has been repurposed.
            auto &pl = partialSpans_[span.szclass];
            pl.erase(std::remove(pl.begin(), pl.end(), base), pl.end());
            idleSpans_.push_back(base);
            if (kScavenge) {
                // Return the span's pages to the OS; reuse refaults.
                vm_.madviseFree(base, kSpanBytes, &env);
            }
        }
    }
    bytesSinceGc_ = 0;
}

void
GoMalloc::teardown(Env &env)
{
    // Batch free by the OS at process exit: unmap the reservations.
    CategoryScope scope(env.ledger(), CycleCategory::KernelOther);
    for (Addr arena : arenas_)
        vm_.munmap(arena, kArenaBytes, &env);
    arenas_.clear();
    arenaCursor_ = 0;
    spans_.clear();
    idleSpans_.clear();
    for (auto &list : partialSpans_)
        list.clear();
    bytesSinceGc_ = 0;
}

double
GoMalloc::inactiveSlotFraction() const
{
    std::uint64_t total = 0;
    std::uint64_t live = 0;
    // Commutative integer sums: visit order cannot affect the result.
    spans_.forEach([&](Addr, const Span &span) {
        if (span.liveCount == 0)
            return; // Idle span: free memory, not slack.
        total += span.capacity;
        live += span.liveCount;
    });
    if (total == 0)
        return 0.0;
    return 1.0 - static_cast<double>(live) / static_cast<double>(total);
}

} // namespace memento
