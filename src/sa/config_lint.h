/**
 * @file
 * Config rules and the static config linter.
 *
 * configProblems() is the one definition of every rule that makes a
 * configuration unusable: cache and TLB geometry, the allocator models'
 * pool and slab multiples, the heap inside the Memento region, the
 * fleet's arrival kind and mix, and the fleet's arrival window. Runs
 * enforce them through checkConfig() (Machine's constructor, runFleet,
 * generateArrivals), and lint-config reports the same list, so every
 * error the linter reports is a run that would fail as a config error.
 *
 * The linter validates `key = value` files (the sim/config_file.h
 * format) against the declarative schema in sim/config_schema.h
 * without constructing a machine. Per-line rules: config-parse (not an
 * assignment), config-unknown-key (with an edit-distance "did you
 * mean" suggestion), config-bad-value, config-out-of-range,
 * config-duplicate-key (explicit last-value-wins). On the effective
 * configuration after the whole file is read it reports each of
 * configProblems() at the latest line among its keys, then three
 * warnings that no run enforces: config-bypass-no-memento (memento.*
 * hardware keys set while memento.enabled stays off),
 * config-check-conflict (check.interval beyond the check.max_ops
 * watchdog budget) and config-fleet-keepalive-no-budget.
 *
 * The linter never throws and reports every finding with its 1-based
 * line number; lint order is line order, then cross-key order, so
 * output is deterministic.
 */

#ifndef MEMENTO_SA_CONFIG_LINT_H
#define MEMENTO_SA_CONFIG_LINT_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sa/diag.h"
#include "sim/config.h"

namespace memento {

/** One config rule a configuration breaks. */
struct ConfigProblem
{
    /** The lint rule it is reported under (config-bad-value, ...). */
    std::string_view ruleId;
    /**
     * The schema keys that fix it; lint reports the problem at the
     * latest line that sets one. A rule is a fleet rule when its first
     * key is a fleet.* key.
     */
    std::vector<std::string> keys;
    std::string message;
};

/**
 * Every config rule @p cfg breaks, in a fixed order: the heap inside
 * [MRS, MRE), the pymalloc and jemalloc multiples, cache and TLB
 * geometry (schema order), the fleet's expected arrival window past
 * 2^56 cycles, fleet.arrival, fleet.mix.
 */
std::vector<ConfigProblem> configProblems(const MachineConfig &cfg);

/** Which of configProblems() checkConfig() enforces. */
enum class ConfigRules : std::uint8_t {
    Machine, ///< Every rule but the fleet.* ones.
    Fleet,   ///< Only the fleet.* rules.
    All,
};

/** Throw SimError(Config) with the first of @p rules that @p cfg breaks. */
void checkConfig(const MachineConfig &cfg, ConfigRules rules);

/** Lint @p is, tagging findings with @p subject (the file name). */
void lintConfigStream(std::istream &is, const std::string &subject,
                      DiagReport &report);

/**
 * lintConfigStream() over the file at @p path; an unreadable file is a
 * config-parse diagnostic, not an exception.
 */
void lintConfigFile(const std::string &path, DiagReport &report);

} // namespace memento

#endif // MEMENTO_SA_CONFIG_LINT_H
