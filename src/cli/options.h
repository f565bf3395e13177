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
 * spelling or silently accept a flag it ignores. The command table
 * itself, with the handler each entry runs, lives next to those
 * handlers in tools/memento_sim.cc.
 *
 * Parse errors raise the usual fatal() path (user error, exit 1).
 * The parser knows no `--help`: memento_sim scans a command's
 * arguments for it before parsing, renders the command's help page,
 * and exits 0.
 */

#ifndef MEMENTO_CLI_OPTIONS_H
#define MEMENTO_CLI_OPTIONS_H

#include <cstddef>
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
    bool digest = false;
    bool json = false;
    /** --no-cache: ignore sweep.cache_dir from config files. */
    bool noCache = false;
    /** --revalidate: recompute a sample of cache hits and compare. */
    bool revalidate = false;
    unsigned jobs = 0; ///< Sweep worker threads; 0 = hw concurrency.
    std::string traceFile;
    DiagPolicy diagPolicy; ///< --allow / --werror (analysis commands).
    /** Positional arguments (workload, file, paths, ids), in CLI order. */
    std::vector<std::string> args;
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

/** CommandSpec::maxArgs of a command with no upper bound. */
inline constexpr std::size_t kAnyArgs = SIZE_MAX;

/** One command: its help, its handler, its flags and its arity. */
struct CommandSpec
{
    std::string_view name;      ///< "run".
    std::string_view usageArgs; ///< "<workload>|all".
    std::string_view help;      ///< One-line help text.
    /** Run the parsed command; returns the process exit status. */
    int (*run)(const CliOptions &opts);
    /** Names of the flags this command accepts, in help order. */
    std::vector<std::string_view> flags;
    /** Bounds on the positional-argument count (CliOptions::args). */
    std::size_t minArgs = 0;
    std::size_t maxArgs = 0;
};

/** The full flag table, in help order. */
const std::vector<FlagSpec> &allFlags();

/** Flag registry lookup; nullptr when unknown. */
const FlagSpec *findFlag(std::string_view name);

/**
 * Parse @p command's options from @p args, the arguments after the
 * command name. An argument without a leading '-' is positional; every
 * other one must be a registered flag the command accepts, and a flag
 * that takes a value consumes the following argument. fatal()s on
 * unknown flags, flags the command does not accept, missing/bad
 * values, and a positional count outside the command's bounds.
 */
CliOptions parseCommandOptions(const CommandSpec &command,
                               const std::vector<std::string> &args);

/** Render the global usage page (every command of @p commands). */
void printUsage(std::ostream &os, const std::vector<CommandSpec> &commands);

/**
 * Render one command's help page (usage line + accepted flags).
 * panic()s on a declared flag that is not registered.
 */
void printCommandHelp(std::ostream &os, const CommandSpec &command);

} // namespace memento

#endif // MEMENTO_CLI_OPTIONS_H
