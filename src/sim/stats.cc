#include "sim/stats.h"

namespace memento {

Counter
StatRegistry::counter(const std::string &name)
{
    auto [it, inserted] = values_.try_emplace(name, 0);
    (void)inserted;
    return Counter(&it->second);
}

std::uint64_t
StatRegistry::value(const std::string &name) const
{
    auto it = values_.find(name);
    return it == values_.end() ? 0 : it->second;
}

std::map<std::string, std::uint64_t>
StatRegistry::snapshot() const
{
    return values_;
}

} // namespace memento
