#include "mem/cache.h"

#include "sim/logging.h"

namespace memento {

Cache::Cache(const std::string &name, const CacheConfig &cfg,
             StatRegistry &stats)
    : name_(name),
      numSets_(cfg.numSets()),
      ways_(cfg.ways),
      latency_(cfg.latency),
      lines_(numSets_ * ways_),
      lruClock_(ways_),
      hits_(stats.counter(name + ".hits")),
      misses_(stats.counter(name + ".misses")),
      evictions_(stats.counter(name + ".evictions")),
      dirtyEvictions_(stats.counter(name + ".dirty_evictions"))
{
    panic_if(numSets_ == 0, "cache ", name, ": zero sets");
    panic_if(!isPowerOfTwo(numSets_), "cache ", name,
             ": set count must be a power of two");
    flushAll();
}

std::uint64_t
Cache::flushAll()
{
    std::uint64_t dirty = 0;
    for (std::uint64_t set = 0; set < numSets_; ++set) {
        Line *base = &lines_[set * ways_];
        for (unsigned w = 0; w < ways_; ++w) {
            if (base[w].tag != kNoTag && (base[w].meta & 1))
                ++dirty;
            base[w] = {kNoTag, std::uint64_t{w} << 1};
        }
    }
    return dirty;
}

std::uint64_t
Cache::residentLines() const
{
    std::uint64_t n = 0;
    for (const Line &line : lines_) {
        if (line.tag != kNoTag)
            ++n;
    }
    return n;
}

void
Cache::forEachLine(
    const std::function<void(Addr lineAddr, bool dirty)> &fn) const
{
    for (const Line &line : lines_) {
        if (line.tag != kNoTag)
            fn(line.tag << kLineShift, (line.meta & 1) != 0);
    }
}

bool
Cache::checkIntegrity(std::vector<std::string> &violations) const
{
    const std::size_t before = violations.size();
    for (std::uint64_t set = 0; set < numSets_; ++set) {
        const Line *base = &lines_[set * ways_];
        for (unsigned w = 0; w < ways_; ++w) {
            const Line &line = base[w];
            const std::uint64_t lru = line.meta >> 1;
            if (line.tag == kNoTag) {
                if (line.meta & 1)
                    violations.push_back(name_ + ": invalid line dirty");
                if (lru != w)
                    violations.push_back(
                        name_ + ": invalid way stamp is not its index");
                continue;
            }
            if (lru <= ways_)
                violations.push_back(
                    name_ + ": valid line stamp within the invalid range");
            if (setIndex(line.tag << kLineShift) != set)
                violations.push_back(
                    name_ + ": tag does not map to its own set");
            for (unsigned v = w + 1; v < ways_; ++v) {
                if (base[v].tag == line.tag)
                    violations.push_back(
                        name_ + ": duplicate tag within a set");
            }
        }
    }
    return violations.size() == before;
}

} // namespace memento
