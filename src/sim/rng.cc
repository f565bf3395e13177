#include "sim/rng.h"

#include <cmath>

#include "sim/logging.h"

namespace memento {
namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &word : state_)
        word = splitmix64(s);
}

void
Rng::panicZeroBound()
{
    panic("nextBelow(0)");
}

std::uint64_t
Rng::nextRange(std::uint64_t lo, std::uint64_t hi)
{
    panic_if(lo > hi, "nextRange: lo > hi");
    return lo + nextBelow(hi - lo + 1);
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

std::size_t
Rng::nextWeighted(const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights)
        total += w > 0 ? w : 0;
    panic_if(total <= 0.0, "nextWeighted: no positive weight");

    double pick = nextDouble() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        double w = weights[i] > 0 ? weights[i] : 0;
        if (pick < w)
            return i;
        pick -= w;
    }
    return weights.size() - 1;
}

std::uint64_t
Rng::nextGeometric(double p)
{
    panic_if(p <= 0.0 || p > 1.0, "nextGeometric: p out of (0,1]");
    if (p >= 1.0)
        return 0;
    double u = nextDouble();
    // Inverse CDF; clamp to avoid log(0).
    if (u <= 0.0)
        u = 0x1.0p-53;
    if (p != geomP_) {
        geomP_ = p;
        geomLog1mP_ = std::log(1.0 - p);
    }
    return static_cast<std::uint64_t>(std::log(u) / geomLog1mP_);
}

} // namespace memento
