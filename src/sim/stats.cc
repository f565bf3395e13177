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

double
StatRegistry::ratio(const std::string &numer, const std::string &denom) const
{
    std::uint64_t d = value(denom);
    if (d == 0)
        return 0.0;
    return static_cast<double>(value(numer)) / static_cast<double>(d);
}

void
StatRegistry::resetAll()
{
    for (auto &entry : values_)
        entry.second = 0;
}

void
StatRegistry::dump(std::ostream &os) const
{
    for (const auto &[name, value] : values_)
        os << name << ' ' << value << '\n';
}

std::map<std::string, std::uint64_t>
StatRegistry::snapshot() const
{
    return values_;
}

} // namespace memento
