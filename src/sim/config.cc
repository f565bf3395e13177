#include "sim/config.h"

#include <utility>

#include "sim/error.h"
#include "sim/logging.h"

namespace memento {

MachineConfig
defaultConfig()
{
    return MachineConfig{};
}

MachineConfig
mementoConfig()
{
    MachineConfig cfg;
    cfg.memento.enabled = true;
    return cfg;
}

std::vector<GeometryProblem>
geometryProblems(const MachineConfig &cfg)
{
    std::vector<GeometryProblem> problems;
    const std::pair<const char *, const CacheConfig *> caches[] = {
        {"l1d", &cfg.l1d}, {"l1i", &cfg.l1i}, {"l2", &cfg.l2},
        {"llc", &cfg.llc}};
    for (const auto &[name, c] : caches) {
        const std::string size_key = std::string(name) + ".size";
        const std::string ways_key = std::string(name) + ".ways";
        const std::uint64_t sets = c->numSets();
        if (sets == 0 || !isPowerOfTwo(sets)) {
            problems.push_back(
                {size_key, ways_key,
                 detail::formatMsg(
                     size_key, " (", c->sizeBytes, ") / (", ways_key,
                     " (", c->ways, ") x ", kLineSize, " B lines) gives ",
                     sets, " set(s); a cache needs a power of two")});
        }
    }
    const std::pair<const char *, const TlbConfig *> tlbs[] = {
        {"tlb.l1", &cfg.l1Tlb}, {"tlb.l2", &cfg.l2Tlb}};
    for (const auto &[name, t] : tlbs) {
        if (t->entries < t->ways) {
            const std::string entries_key = std::string(name) + "_entries";
            const std::string ways_key = std::string(name) + "_ways";
            problems.push_back(
                {entries_key, ways_key,
                 detail::formatMsg(entries_key, " (", t->entries,
                                   ") is below ", ways_key, " (", t->ways,
                                   "): the TLB has no set")});
        }
    }
    return problems;
}

void
checkGeometry(const MachineConfig &cfg)
{
    const std::vector<GeometryProblem> problems = geometryProblems(cfg);
    if (!problems.empty())
        sim_error(ErrorCategory::Config, problems.front().message);
}

} // namespace memento
