/**
 * @file
 * Plain-text configuration files for the simulator.
 *
 * Format: one `key = value` pair per line; `#` starts a comment; blank
 * lines ignored. Values are integers (decimal, or with a k/m/g binary
 * suffix: "256k" = 262144), floating point, or booleans
 * (true/false/on/off/1/0). Unknown keys and malformed values raise a
 * recoverable SimError (ErrorCategory::Config) so typos never silently
 * run the default, yet a sweep driver can report and continue.
 *
 * Supported keys mirror MachineConfig:
 *
 *   core.freq_ghz, core.base_ipc, core.load_hidden, core.store_hidden
 *   l1d.size, l1d.ways, l1d.latency         (same for l1i, l2, llc)
 *   tlb.l1_entries, tlb.l1_ways, tlb.l2_entries, tlb.l2_ways
 *   dram.size, dram.banks, dram.hit_latency, dram.miss_latency
 *   kernel.fault_instructions, kernel.mmap_instructions,
 *   kernel.mode_switch_cycles, kernel.map_populate
 *   memento.enabled, memento.bypass, memento.eager_prefetch,
 *   memento.objects_per_arena, memento.hot_latency,
 *   memento.pool_refill, memento.mallacc
 *   tuning.pymalloc_arena, tuning.jemalloc_chunk, tuning.go_gc_trigger
 *   check.interval, check.max_ops, check.max_cycles
 *   inject.pool_exhaust_at, inject.mmap_fail_at,
 *   inject.trace_truncate_at, inject.trace_corrupt_at,
 *   inject.arena_bit_flip_at, inject.workload,
 *   inject.store_torn_write, inject.store_kill_at
 *   sweep.cache_dir, sweep.keep_going
 */

#ifndef MEMENTO_SIM_CONFIG_FILE_H
#define MEMENTO_SIM_CONFIG_FILE_H

#include <istream>
#include <string>

#include "sim/config.h"

namespace memento {

/**
 * Apply `key = value` lines from @p is on top of @p cfg.
 * Throws SimError(Config) on malformed lines or unknown keys.
 */
void applyConfigStream(std::istream &is, MachineConfig &cfg);

/**
 * applyConfigStream() over the file at @p path.
 * Throws SimError(Config) when the file is unreadable.
 */
void applyConfigFile(const std::string &path, MachineConfig &cfg);

/** Apply a single "key=value" assignment (command-line overrides). */
void applyConfigOption(const std::string &key, const std::string &value,
                       MachineConfig &cfg);

} // namespace memento

#endif // MEMENTO_SIM_CONFIG_FILE_H
