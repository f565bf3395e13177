/**
 * @file
 * Fundamental scalar types shared by every simulator module.
 */

#ifndef MEMENTO_SIM_TYPES_H
#define MEMENTO_SIM_TYPES_H

#include <cstddef>
#include <cstdint>

namespace memento {

/** A virtual or physical byte address in the simulated machine. */
using Addr = std::uint64_t;

/** A count of core clock cycles. */
using Cycles = std::uint64_t;

/** A count of retired instructions. */
using InstCount = std::uint64_t;

/** Base-2 logarithm of the simulated page size (4 KiB pages). */
inline constexpr unsigned kPageShift = 12;

/** Simulated page size in bytes. */
inline constexpr std::uint64_t kPageSize = 1ull << kPageShift;

/** Base-2 logarithm of the cache-line size (64 B lines). */
inline constexpr unsigned kLineShift = 6;

/** Cache-line size in bytes. */
inline constexpr std::uint64_t kLineSize = 1ull << kLineShift;

/** An invalid / null simulated address sentinel. */
inline constexpr Addr kNullAddr = 0;

/** Round @p addr down to the containing page boundary. */
constexpr Addr
pageBase(Addr addr)
{
    return addr & ~(kPageSize - 1);
}

/** Round @p addr down to the containing cache-line boundary. */
constexpr Addr
lineBase(Addr addr)
{
    return addr & ~(kLineSize - 1);
}

/** Round @p value up to the next multiple of @p align (a power of two). */
constexpr std::uint64_t
alignUp(std::uint64_t value, std::uint64_t align)
{
    return (value + align - 1) & ~(align - 1);
}

/** True if @p value is a power of two (and non-zero). */
constexpr bool
isPowerOfTwo(std::uint64_t value)
{
    return value != 0 && (value & (value - 1)) == 0;
}

__extension__ typedef unsigned __int128 Uint128;

/** fastMod()'s constant for divisor @p d >= 1: ceil(2^128 / d) mod 2^128. */
constexpr Uint128
fastModConstant(std::uint64_t d)
{
    return ~Uint128{0} / d + 1;
}

/**
 * @p a % @p d by two multiplications instead of a divide (Lemire, Kaser
 * and Kurz, "Faster Remainder by Direct Computation", 2019): the high
 * 128 bits of d times the low 128 bits of @p c * @p a. With 128-bit
 * @p c = fastModConstant(@p d) this is exact for every 64-bit @p a.
 */
constexpr std::uint64_t
fastMod(std::uint64_t a, Uint128 c, std::uint64_t d)
{
    const Uint128 frac = c * a;
    const Uint128 lo = static_cast<std::uint64_t>(frac) * Uint128{d};
    const Uint128 hi = static_cast<std::uint64_t>(frac >> 64) * Uint128{d};
    return static_cast<std::uint64_t>((hi + (lo >> 64)) >> 64);
}

/** Integer log2 of a power-of-two @p value. */
constexpr unsigned
log2Exact(std::uint64_t value)
{
    unsigned shift = 0;
    while ((1ull << shift) < value)
        ++shift;
    return shift;
}

} // namespace memento

#endif // MEMENTO_SIM_TYPES_H
