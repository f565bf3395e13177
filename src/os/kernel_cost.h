/**
 * @file
 * Kernel cost helpers shared by the scheduler-level models: context
 * switches and the container set-up path used by the cold-start study.
 */

#ifndef MEMENTO_OS_KERNEL_COST_H
#define MEMENTO_OS_KERNEL_COST_H

#include "mem/env.h"
#include "sim/config.h"

namespace memento {

/** Charges scheduler/kernel operations that sit outside mmap/fault. */
class KernelCostModel
{
  public:
    explicit KernelCostModel(const MachineConfig &cfg) : cfg_(cfg) {}

    /**
     * Charge a context switch. @p hot_entries_flushed models Memento's
     * HOT flush on switch (§4): one writeback per valid entry.
     */
    void chargeContextSwitch(Env &env, unsigned hot_entries_flushed) const;

    /**
     * Charge the container set-up path for a cold-started function:
     * namespace creation, cgroup setup, runtime spawn (crun-like). The
     * instruction budget is deliberately coarse — the paper treats it as
     * an additive latency outside Memento's reach.
     */
    void chargeContainerSetup(Env &env) const;

    /** Instructions modeled for container set-up. */
    static constexpr InstCount kContainerSetupInstructions = 9'000'000;

    /** Context-switch cost, excluding any HOT flush. */
    static constexpr Cycles kContextSwitchCycles = 3600;

  private:
    const MachineConfig &cfg_;
};

} // namespace memento

#endif // MEMENTO_OS_KERNEL_COST_H
