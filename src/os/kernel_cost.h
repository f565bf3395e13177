/**
 * @file
 * Kernel costs outside mmap/fault: the context switch and the container
 * set-up path of the cold-start study. Machine::switchTo, the function
 * executor and the fleet stage all charge these definitions.
 */

#ifndef MEMENTO_OS_KERNEL_COST_H
#define MEMENTO_OS_KERNEL_COST_H

#include <cstdint>

#include "sim/config.h"

namespace memento {

/**
 * Instructions modeled for container set-up: namespace creation,
 * cgroup setup, runtime spawn (crun-like). Deliberately coarse — the
 * paper treats it as an additive latency outside Memento's reach.
 */
inline constexpr InstCount kContainerSetupInstructions = 9'000'000;

/** Context-switch cost, excluding any HOT flush. */
inline constexpr Cycles kContextSwitchCycles = 3600;

/**
 * Cycles of a context switch that flushes @p hot_flushed HOT entries
 * (§4). Each flushed entry issues one metadata writeback that completes
 * at L1 speed (the entries are small and the write port is pipelined),
 * so it costs the HOT latency.
 */
inline Cycles
contextSwitchCycles(const MachineConfig &cfg, std::uint64_t hot_flushed)
{
    return kContextSwitchCycles + hot_flushed * cfg.memento.hotLatency;
}

} // namespace memento

#endif // MEMENTO_OS_KERNEL_COST_H
