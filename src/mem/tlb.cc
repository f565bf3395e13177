#include "mem/tlb.h"

#include "sim/logging.h"

namespace memento {

namespace {

/**
 * Set count of a TLB level. A 2048-entry 12-way TLB (Table 3) is not
 * evenly divisible; the count rounds down as real designs do (capacity
 * 2040 here). Checked before any member is computed from it. A
 * Machine never gets here with a zero count: its constructor rejects
 * entries below ways as a config error first (checkConfig), so the
 * panic guards only a Tlb built directly.
 */
std::uint64_t
tlbSets(const std::string &name, const TlbConfig &cfg)
{
    panic_if(cfg.ways == 0 || cfg.entries < cfg.ways, "tlb ", name,
             ": too few entries");
    return cfg.entries / cfg.ways;
}

} // namespace

Tlb::Tlb(const std::string &name, const TlbConfig &cfg, StatRegistry &stats)
    : name_(name),
      numSets_(tlbSets(name, cfg)),
      setMask_(isPowerOfTwo(numSets_) ? numSets_ - 1 : 0),
      modConstant_(fastModConstant(numSets_)),
      ways_(cfg.ways),
      entries_(numSets_ * cfg.ways),
      lruClock_(ways_),
      hits_(stats.counter(name + ".hits")),
      misses_(stats.counter(name + ".misses"))
{
    flushAll();
}

void
Tlb::insert(Addr vaddr, Addr paddr, unsigned shift)
{
    const Addr vpage = vaddr >> shift;
    const Addr key = keyOf(vpage, shift);
    Entry *base = &entries_[setIndex(vpage) * ways_];

    // A resident copy is updated in place; otherwise the first least
    // stamp is the first invalid way, else the LRU entry. One pass of
    // selects tracks both.
    unsigned hit = ways_;
    unsigned victim = 0;
    std::uint64_t least = ~std::uint64_t{0};
    for (unsigned w = 0; w < ways_; ++w) {
        const Entry &e = base[w];
        hit = e.key == key ? w : hit;
        const bool lower = e.lruStamp < least;
        least = lower ? e.lruStamp : least;
        victim = lower ? w : victim;
    }
    Entry &e = base[hit == ways_ ? victim : hit];
    if (e.key != kNoKey && (e.key & 1))
        --hugeEntries_;
    if (shift == kHugePageShift)
        ++hugeEntries_;
    e = {key, paddr & ~((1ull << shift) - 1), ++lruClock_};
}

void
Tlb::invalidatePage(Addr vaddr)
{
    for (unsigned shift : {kPageShift, kHugePageShift}) {
        const Addr vpage = vaddr >> shift;
        const Addr key = keyOf(vpage, shift);
        Entry *base = &entries_[setIndex(vpage) * ways_];
        for (unsigned w = 0; w < ways_; ++w) {
            if (base[w].key == key) {
                base[w] = {kNoKey, 0, w};
                if (shift == kHugePageShift)
                    --hugeEntries_;
            }
        }
    }
}

void
Tlb::flushAll()
{
    for (std::uint64_t set = 0; set < numSets_; ++set) {
        for (unsigned w = 0; w < ways_; ++w)
            entries_[set * ways_ + w] = {kNoKey, 0, w};
    }
    hugeEntries_ = 0;
}

} // namespace memento
