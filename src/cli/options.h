/**
 * @file
 * The shared command-line API of memento_sim.
 *
 * Every command (`run`, `compare`, `check`, `lint-config`, `fleet`, …)
 * parses its options through one declarative flag table: each flag is
 * registered once with its value shape, help text, and application
 * function, and each command declares which flags it accepts. That
 * buys one parser, one `--help` renderer, and one error-message style
 * for the whole tool — a command can no longer drift its own flag
 * spelling or silently accept a flag it ignores.
 *
 * All pre-existing flag spellings (`--config`, `--set`, `--memento`,
 * `--cold`, `--trace`, `--stats`, `--keep-going`, `--digest`,
 * `--jobs`, `--json`, `--allow`, `--werror`) are preserved verbatim.
 * The crash-safe sweep layer adds `--cache DIR`, `--no-cache`, and
 * `--revalidate`.
 *
 * Parse errors raise the usual fatal() path (user error, exit 1).
 * The parser knows no `--help`: memento_sim scans a command's
 * arguments for it before parsing, renders the command's help page,
 * and exits 0.
 */

#ifndef MEMENTO_CLI_OPTIONS_H
#define MEMENTO_CLI_OPTIONS_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sa/diag.h"
#include "sim/config.h"

namespace memento {

/** Everything a memento_sim command can be asked to do. */
struct CliOptions
{
    MachineConfig cfg = defaultConfig();
    bool memento = false;
    bool cold = false;
    bool dumpStats = false;
    bool keepGoing = false;
    bool digest = false;
    bool json = false;
    /** --no-cache: ignore sweep.cache_dir from config files. */
    bool noCache = false;
    /** --revalidate: recompute a sample of cache hits and compare. */
    bool revalidate = false;
    unsigned jobs = 0; ///< Sweep worker threads; 0 = hw concurrency.
    std::string traceFile;
    DiagPolicy diagPolicy; ///< --allow / --werror (analysis commands).
    /** Variadic arguments (lint-src paths, figures ids), in CLI order. */
    std::vector<std::string> paths;
};

/** One registered flag. */
struct FlagSpec
{
    std::string_view name;      ///< "--config".
    std::string_view valueName; ///< "FILE" / "N" / "" (boolean flag).
    std::string_view help;      ///< One-line help text.
    /** Apply the flag; @p value is empty for boolean flags. */
    void (*apply)(CliOptions &opts, const std::string &value);

    bool takesValue() const { return !valueName.empty(); }
};

/** One registered command. */
struct CommandSpec
{
    std::string_view name;      ///< "run".
    std::string_view usageArgs; ///< "<workload>|all".
    std::string_view help;      ///< One-line help text.
    /** Names of the flags this command accepts, in help order. */
    std::vector<std::string_view> flags;
    /** Required positional-argument count (before any flags). */
    std::size_t positionals = 0;
    /** Accept additional non-flag arguments into CliOptions::paths
     * (lint-src [paths...], figures ids); otherwise a bare argument is
     * an error. */
    bool variadicPaths = false;
};

/** The full flag table, in help order. */
const std::vector<FlagSpec> &allFlags();

/** The full command table, in help order. */
const std::vector<CommandSpec> &allCommands();

/** Registry lookups; nullptr when unknown. */
const FlagSpec *findFlag(std::string_view name);
const CommandSpec *findCommand(std::string_view name);

/**
 * Parse @p command's options from @p args starting at @p from. Every
 * flag must be registered and accepted by the command; a flag that
 * takes a value consumes the following argument. fatal()s on unknown
 * flags, flags the command does not accept, and missing/bad values.
 */
CliOptions parseCommandOptions(const CommandSpec &command,
                               const std::vector<std::string> &args,
                               std::size_t from);

/** Render the global usage page (all commands + shared flags). */
void printUsage(std::ostream &os);

/** Render one command's help page (usage line + accepted flags). */
void printCommandHelp(std::ostream &os, const CommandSpec &command);

} // namespace memento

#endif // MEMENTO_CLI_OPTIONS_H
