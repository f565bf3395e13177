#include "hw/hot.h"

namespace memento {

Hot::Hot(const MementoConfig &cfg, StatRegistry &stats)
    : entries_(kNumSmallClasses),
      latency_(cfg.hotLatency),
      allocHits_(stats.counter("hot.alloc_hits")),
      allocMisses_(stats.counter("hot.alloc_misses")),
      freeHits_(stats.counter("hot.free_hits")),
      freeMisses_(stats.counter("hot.free_misses")),
      flushes_(stats.counter("hot.flushes"))
{
}

void
Hot::recordAlloc(bool hit)
{
    if (hit)
        ++allocHits_;
    else
        ++allocMisses_;
}

void
Hot::recordFree(bool hit)
{
    if (hit)
        ++freeHits_;
    else
        ++freeMisses_;
}

unsigned
Hot::flush()
{
    unsigned valid = 0;
    for (HotEntry &e : entries_) {
        if (e.valid)
            ++valid;
        e = HotEntry{};
    }
    ++flushes_;
    return valid;
}

double
Hot::allocHitRate() const
{
    const std::uint64_t total = allocHits_.value() + allocMisses_.value();
    return total == 0 ? 1.0
                      : static_cast<double>(allocHits_.value()) / total;
}

double
Hot::freeHitRate() const
{
    const std::uint64_t total = freeHits_.value() + freeMisses_.value();
    return total == 0 ? 1.0
                      : static_cast<double>(freeHits_.value()) / total;
}

} // namespace memento
