/**
 * @file
 * Deterministic pseudo-random number generation (xoshiro256**).
 *
 * The simulator never consults wall-clock entropy: every stochastic choice
 * flows from an explicitly seeded Rng so runs are exactly reproducible and
 * baseline/Memento comparisons are paired on identical operation streams.
 */

#ifndef MEMENTO_SIM_RNG_H
#define MEMENTO_SIM_RNG_H

#include <array>
#include <cstdint>
#include <vector>

namespace memento {

/** xoshiro256** generator with convenience distributions. */
class Rng
{
  public:
    /** Seed via splitmix64 expansion of @p seed. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound) ; @p bound must be non-zero. */
    std::uint64_t nextBelow(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t nextRange(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli trial with probability @p p of true. */
    bool nextBool(double p);

    /**
     * Sample an index from a discrete distribution given by @p weights
     * (need not be normalized; at least one must be positive).
     */
    std::size_t nextWeighted(const std::vector<double> &weights);

    /** Geometric-ish sample: number of failures before success(p). */
    std::uint64_t nextGeometric(double p);

  private:
    std::array<std::uint64_t, 4> state_;
    /** log(1 - p) of the last nextGeometric p (p = 0 is never valid). */
    double geomP_ = 0.0;
    double geomLog1mP_ = 0.0;
};

} // namespace memento

#endif // MEMENTO_SIM_RNG_H
