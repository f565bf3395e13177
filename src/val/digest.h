/**
 * @file
 * Deterministic machine-state digest for paired-run verification.
 *
 * Hashes every piece of architectural and accounting state a run can
 * influence — statistics, the cycle ledger, page-table mappings, VMAs,
 * Memento arenas and lists, cache contents — into one 64-bit FNV-1a
 * value. Two runs of the same workload under the same configuration
 * must produce identical digests; a mismatch means hidden
 * nondeterminism (iteration over pointer-keyed containers, uninitialised
 * state, host-environment leakage) crept into the model.
 *
 * Only simulated state is hashed, never host pointers or addresses of
 * C++ objects, and hash tables (AddrMap) are visited in sorted key
 * order.
 */

#ifndef MEMENTO_VAL_DIGEST_H
#define MEMENTO_VAL_DIGEST_H

#include <cstdint>
#include <string>
#include <string_view>

namespace memento {

class Machine;

/** Incremental FNV-1a 64-bit hasher. */
class DigestBuilder
{
  public:
    static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ull;
    static constexpr std::uint64_t kPrime = 0x100000001b3ull;

    void
    addByte(std::uint8_t b)
    {
        hash_ = (hash_ ^ b) * kPrime;
    }

    void
    add(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i)
            addByte(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    add(std::string_view s)
    {
        add(static_cast<std::uint64_t>(s.size()));
        for (char c : s)
            addByte(static_cast<std::uint8_t>(c));
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = kOffsetBasis;
};

/** Digest of one machine's complete simulated state. */
std::uint64_t digestMachine(Machine &machine);

/** 16-hex-digit rendering for reports. */
std::string digestToHex(std::uint64_t digest);

} // namespace memento

#endif // MEMENTO_VAL_DIGEST_H
