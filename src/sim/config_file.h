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
 * The accepted keys, their types and ranges are the schema in
 * sim/config_schema.cc, the one list of configuration keys.
 */

#ifndef MEMENTO_SIM_CONFIG_FILE_H
#define MEMENTO_SIM_CONFIG_FILE_H

#include <istream>
#include <string>

#include "sim/config.h"

namespace memento {

/** How one line reads under the config-file line grammar. */
enum class ConfigLineKind {
    Blank,         ///< Nothing but spaces and a `#` comment.
    Assignment,    ///< `key = value` with both parts non-empty.
    MissingEquals, ///< Text without an `=`.
    EmptyPart,     ///< An `=` with an empty key or value.
};

/**
 * Split @p line by the line grammar that applyConfigStream() and
 * lint-config share: drop a `#` comment, then cut at the first `=` into
 * a trimmed @p key and @p value.
 */
ConfigLineKind splitConfigLine(std::string line, std::string &key,
                               std::string &value);

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
