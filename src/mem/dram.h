/**
 * @file
 * Banked open-row DRAM model with traffic accounting.
 *
 * A deliberately simple DDR4-3200-like timing model: each access maps to a
 * bank via address interleaving; hitting the bank's open row costs
 * hitLatency, a row conflict costs missLatency, and back-to-back accesses
 * to a busy bank queue behind it. All reads/writes count 64 B of traffic
 * for the bandwidth figures (Fig. 10).
 */

#ifndef MEMENTO_MEM_DRAM_H
#define MEMENTO_MEM_DRAM_H

#include <vector>

#include "sim/config.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace memento {

/** The main-memory device model. */
class Dram
{
  public:
    /** Extra queuing delay per access to a still-busy bank. */
    static constexpr Cycles kBankBusyPenalty = 24;

    Dram(const DramConfig &cfg, StatRegistry &stats);

    /**
     * Perform one line-sized access.
     *
     * @param paddr Physical address of the line.
     * @param is_write True for writebacks, false for fills.
     * @param now Current core cycle (for bank-busy queuing).
     * @return Latency in core cycles. Writebacks return 0: they are off
     *         the critical path but still occupy the bank and count
     *         traffic.
     */
    Cycles access(Addr paddr, bool is_write, Cycles now);

    /** Total bytes moved (reads + writes). */
    std::uint64_t totalBytes() const;

    std::uint64_t readCount() const { return reads_.value(); }
    std::uint64_t writeCount() const { return writes_.value(); }

  private:
    struct Bank
    {
        std::uint64_t openRow = ~0ull;
        Cycles busyUntil = 0;
    };

    /** Row size of the open-row model. */
    static constexpr std::uint64_t kRowBytes = 8192;
    static_assert(isPowerOfTwo(kRowBytes),
                  "dram: row size must be a power of two");
    static constexpr unsigned kRowShift = log2Exact(kRowBytes);

    DramConfig cfg_;
    std::vector<Bank> banks_;
    Uint128 bankModConstant_; ///< fastModConstant(banks_.size()).

    Counter reads_;
    Counter writes_;
    Counter rowHits_;
    Counter rowMisses_;
    Counter bytes_;
};

} // namespace memento

#endif // MEMENTO_MEM_DRAM_H
