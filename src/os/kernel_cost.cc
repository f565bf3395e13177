#include "os/kernel_cost.h"

namespace memento {

void
KernelCostModel::chargeContextSwitch(Env &env,
                                     unsigned hot_entries_flushed) const
{
    CategoryScope scope(env.ledger(), CycleCategory::ContextSwitch);
    env.chargeCycles(kContextSwitchCycles);
    // Flushing the HOT issues one metadata writeback per valid entry;
    // each completes at L1 speed (the entries are small and the write
    // port is pipelined), so charge the HOT latency per entry.
    env.chargeCycles(static_cast<Cycles>(hot_entries_flushed) *
                     cfg_.memento.hotLatency);
}

void
KernelCostModel::chargeContainerSetup(Env &env) const
{
    CategoryScope scope(env.ledger(), CycleCategory::KernelOther);
    env.chargeInstructions(kContainerSetupInstructions);
}

} // namespace memento
