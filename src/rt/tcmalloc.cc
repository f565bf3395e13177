#include "rt/tcmalloc.h"

namespace memento {

TcMalloc::TcMalloc(VirtualMemory &vm, StatRegistry &stats, Params params)
    : SoftwareAllocator(vm, stats, "tcmalloc"),
      params_(params),
      cache_(kNumSmallClasses),
      central_(kNumSmallClasses),
      openSpan_(kNumSmallClasses, kNullAddr),
      smallMallocs_(stats.counter("tcmalloc.small_mallocs")),
      smallFrees_(stats.counter("tcmalloc.small_frees")),
      refills_(stats.counter("tcmalloc.refills")),
      releases_(stats.counter("tcmalloc.releases")),
      spanCarves_(stats.counter("tcmalloc.span_carves")),
      heapGrows_(stats.counter("tcmalloc.heap_grows"))
{
    // Thread-cache headers and central-list metadata; resident in a
    // warm process.
    metaRegion_ = vm_.mmap(2 * kPageSize, nullptr, /*populate=*/true);
}

TcMalloc::Span &
TcMalloc::spanOf(Addr ptr)
{
    return spans_.at(ptr & ~(kSpanBytes - 1));
}

void
TcMalloc::refill(unsigned cls, Env &env)
{
    ++refills_;
    // Central list lock + transfer bookkeeping.
    env.chargeInstructions(160);
    env.accessVirtual(metaRegion_ + cls * 64, AccessType::Write);

    unsigned want = kTransferBatch;
    auto &central = central_[cls];
    while (want > 0 && !central.empty()) {
        cache_[cls].push_back(central.back());
        central.pop_back();
        --want;
    }
    while (want > 0) {
        // Carve from the class's open span, fetching a new span from
        // the page heap when exhausted.
        if (openSpan_[cls] == kNullAddr ||
            spans_.at(openSpan_[cls]).carved ==
                spans_.at(openSpan_[cls]).capacity) {
            if (growBase_ == 0 || growUsed_ + kSpanBytes > growSize_) {
                ++heapGrows_;
                env.chargeInstructions(300);
                growBase_ = vm_.mmap(kGrowBytes, &env, false, kSpanBytes);
                regions_.push_back(growBase_);
                growSize_ = kGrowBytes;
                growUsed_ = 0;
            }
            Span span;
            span.base = growBase_ + growUsed_;
            growUsed_ += kSpanBytes;
            span.szclass = cls;
            span.capacity =
                static_cast<unsigned>(kSpanBytes / sizeClassBytes(cls));
            ++spanCarves_;
            env.chargeInstructions(220);
            env.accessVirtual(span.base, AccessType::Write);
            openSpan_[cls] = span.base;
            spans_.insert(span.base, span);
        }
        Span &span = spans_.at(openSpan_[cls]);
        const Addr obj =
            span.base + static_cast<std::uint64_t>(span.carved) *
                            sizeClassBytes(cls);
        ++span.carved;
        cache_[cls].push_back(obj);
        --want;
    }
}

void
TcMalloc::release(unsigned cls, Env &env)
{
    ++releases_;
    env.chargeInstructions(140);
    env.accessVirtual(metaRegion_ + cls * 64, AccessType::Write);
    auto &cache = cache_[cls];
    for (unsigned i = 0; i < kTransferBatch && !cache.empty(); ++i) {
        central_[cls].push_back(cache.front());
        cache.erase(cache.begin());
        env.chargeInstructions(6);
    }
}

Addr
TcMalloc::allocObject(std::uint64_t size, Env &env)
{
    CategoryScope scope(env.ledger(), CycleCategory::UserAlloc);
    ++smallMallocs_;
    env.chargeInstructions(params_.cachedPathInstructions +
                           kRestOfFastPathInstructions);

    const unsigned cls = sizeClassIndex(size);
    if (cache_[cls].empty())
        refill(cls, env);

    Addr obj = cache_[cls].back();
    cache_[cls].pop_back();
    if (params_.popTouchesObject) {
        // The free list is threaded through the objects: popping reads
        // the next pointer stored in the object itself. This is the
        // dependent load Mallacc's cache short-circuits.
        env.accessVirtual(obj, AccessType::Read);
    }
    ++spanOf(obj).live;
    return obj;
}

void
TcMalloc::freeObject(Addr ptr, Env &env)
{
    CategoryScope scope(env.ledger(), CycleCategory::UserFree);
    ++smallFrees_;
    env.chargeInstructions(params_.cachedPathInstructions / 2 +
                           kRestOfFastPathInstructions / 2);

    Span &span = spanOf(ptr);
    --span.live;
    const unsigned cls = span.szclass;
    // Push threads the list pointer through the freed object.
    env.accessVirtual(ptr, AccessType::Write);
    cache_[cls].push_back(ptr);
    if (cache_[cls].size() > kCacheMax)
        release(cls, env);
}

void
TcMalloc::teardown(Env &env)
{
    // TCMalloc famously does not return memory eagerly; process exit
    // lets the OS unmap everything. Regions are unmapped here for the
    // accounting the paper's batch-free path measures.
    CategoryScope scope(env.ledger(), CycleCategory::KernelOther);
    for (Addr r : regions_)
        vm_.munmap(r, kGrowBytes, &env);
    regions_.clear();
    spans_.clear();
    for (auto &c : cache_)
        c.clear();
    for (auto &c : central_)
        c.clear();
    openSpan_.assign(kNumSmallClasses, kNullAddr);
    growBase_ = 0;
    growUsed_ = 0;
    growSize_ = 0;
}

double
TcMalloc::inactiveSlotFraction() const
{
    std::uint64_t total = 0;
    std::uint64_t live = 0;
    // Commutative integer sums: visit order cannot affect the result.
    spans_.forEach([&](Addr, const Span &span) {
        if (span.live == 0)
            return;
        total += span.capacity;
        live += span.live;
    });
    if (total == 0)
        return 0.0;
    return 1.0 - static_cast<double>(live) / static_cast<double>(total);
}

} // namespace memento
