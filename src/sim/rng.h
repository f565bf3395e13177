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
#include <bit>
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
    std::uint64_t
    next()
    {
        const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;

        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = std::rotl(state_[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound) ; @p bound must be non-zero. */
    std::uint64_t
    nextBelow(std::uint64_t bound)
    {
        if (bound == 0) [[unlikely]]
            panicZeroBound();
        // Rejection sampling to avoid modulo bias: draws below
        // (2^64 - bound) % bound are redrawn. That threshold is below
        // bound, so a draw at or above bound is accepted without it.
        std::uint64_t r = next();
        if (r < bound) {
            const std::uint64_t threshold = -bound % bound;
            while (r < threshold)
                r = next();
        }
        return r % bound;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t nextRange(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

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
    /** The panic of nextBelow(0), out of line so the callers inline. */
    [[noreturn, gnu::cold]] static void panicZeroBound();

    std::array<std::uint64_t, 4> state_;
    /** log(1 - p) of the last nextGeometric p (p = 0 is never valid). */
    double geomP_ = 0.0;
    double geomLog1mP_ = 0.0;
};

} // namespace memento

#endif // MEMENTO_SIM_RNG_H
