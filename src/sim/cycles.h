/**
 * @file
 * Cycle accounting with per-category attribution.
 *
 * Every cycle charged in the simulator carries a CycleCategory so that
 * experiments can answer "where did the time go" questions (Table 2 and
 * Fig. 9 of the paper). Components charge cycles against the ledger's
 * current category, which callers select with a CategoryScope RAII guard.
 */

#ifndef MEMENTO_SIM_CYCLES_H
#define MEMENTO_SIM_CYCLES_H

#include <array>
#include <cstdint>
#include <string_view>

#include "sim/types.h"

namespace memento {

/** Attribution buckets for charged cycles. */
enum class CycleCategory : std::uint8_t {
    AppCompute,    ///< Application arithmetic / control instructions.
    AppMemory,     ///< Application loads and stores (incl. stall cycles).
    UserAlloc,     ///< Userspace software-allocator allocation path.
    UserFree,      ///< Userspace software-allocator free path.
    KernelMmap,    ///< mmap / munmap / brk system calls.
    KernelFault,   ///< Page-fault handling (incl. mode switches).
    KernelOther,   ///< Other kernel work attributed to memory management.
    HwAlloc,       ///< Memento obj-alloc handling.
    HwFree,        ///< Memento obj-free handling.
    HwPage,        ///< Memento hardware page-allocator work.
    Rpc,           ///< Function input/output RPC bookends.
    ContextSwitch, ///< Context-switch costs (incl. HOT flushes).
    NumCategories
};

/** Number of distinct cycle categories. */
inline constexpr std::size_t kNumCycleCategories =
    static_cast<std::size_t>(CycleCategory::NumCategories);

/** Human-readable name of a category, for reports. */
std::string_view cycleCategoryName(CycleCategory cat);

/**
 * The per-machine cycle ledger.
 *
 * Tracks total elapsed cycles and the split across CycleCategory buckets.
 * The "current" category is a piece of dynamic context: whoever initiates
 * an operation opens a CategoryScope and all cycles charged underneath
 * (e.g. by the cache hierarchy) land in that bucket.
 */
class CycleLedger
{
  public:
    CycleLedger() { reset(); }

    /** Charge @p n cycles to the current category. */
    void
    charge(Cycles n)
    {
        total_ += n;
        byCategory_[static_cast<std::size_t>(current_)] += n;
    }

    /** Charge @p n cycles to an explicit category. */
    void
    charge(Cycles n, CycleCategory cat)
    {
        total_ += n;
        byCategory_[static_cast<std::size_t>(cat)] += n;
    }

    /** Total cycles elapsed. */
    Cycles total() const { return total_; }

    /** Cycles charged to @p cat. */
    Cycles
    category(CycleCategory cat) const
    {
        return byCategory_[static_cast<std::size_t>(cat)];
    }

    /** Currently active attribution category. */
    CycleCategory current() const { return current_; }

    /** Zero all counters. */
    void
    reset()
    {
        total_ = 0;
        byCategory_.fill(0);
        current_ = CycleCategory::AppCompute;
    }

  private:
    friend class CategoryScope;
    friend struct InvariantTestPeer; ///< Corruption hooks for val tests.

    Cycles total_ = 0;
    std::array<Cycles, kNumCycleCategories> byCategory_{};
    CycleCategory current_ = CycleCategory::AppCompute;
};

/**
 * RAII guard that switches a ledger's current category and restores the
 * previous one on destruction. Nestable.
 */
class CategoryScope
{
  public:
    CategoryScope(CycleLedger &ledger, CycleCategory cat)
        : ledger_(ledger), saved_(ledger.current_)
    {
        ledger_.current_ = cat;
    }

    ~CategoryScope() { ledger_.current_ = saved_; }

    CategoryScope(const CategoryScope &) = delete;
    CategoryScope &operator=(const CategoryScope &) = delete;

  private:
    CycleLedger &ledger_;
    CycleCategory saved_;
};

} // namespace memento

#endif // MEMENTO_SIM_CYCLES_H
