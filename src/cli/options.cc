#include "cli/options.h"

#include <cstdlib>
#include <ostream>

#include "sim/config_file.h"
#include "sim/logging.h"

namespace memento {
namespace {

unsigned
parsePositiveCount(const std::string &v, const char *flag)
{
    char *end = nullptr;
    const long n = std::strtol(v.c_str(), &end, 10);
    fatal_if(end == v.c_str() || *end != '\0' || n < 1 || n > 4096,
             flag, " expects a positive count, got ", v);
    return static_cast<unsigned>(n);
}

} // namespace

const std::vector<FlagSpec> &
allFlags()
{
    static const std::vector<FlagSpec> flags = {
        {"--config", "FILE",
         "apply `key = value` lines (see sim/config_file.h)",
         [](CliOptions &o, const std::string &v) {
             applyConfigFile(v, o.cfg);
         }},
        {"--set", "key=value",
         "single config override (repeatable, applied after --config)",
         [](CliOptions &o, const std::string &v) {
             const std::size_t eq = v.find('=');
             fatal_if(eq == std::string::npos,
                      "--set expects key=value, got ", v);
             applyConfigOption(v.substr(0, eq), v.substr(eq + 1), o.cfg);
         }},
        {"--memento", "", "enable the Memento hardware",
         [](CliOptions &o, const std::string &) { o.memento = true; }},
        {"--cold", "", "charge container set-up (cold start)",
         [](CliOptions &o, const std::string &) { o.cold = true; }},
        {"--trace", "FILE",
         "replay a recorded trace instead of synthesizing",
         [](CliOptions &o, const std::string &v) { o.traceFile = v; }},
        {"--stats", "", "dump every raw counter after each run's metrics",
         [](CliOptions &o, const std::string &) { o.dumpStats = true; }},
        {"--keep-going", "",
         "survive failing runs; report failures at the end",
         [](CliOptions &o, const std::string &) {
             o.cfg.sweep.keepGoing = true;
         }},
        {"--digest", "",
         "run each workload twice and compare machine-state digests",
         [](CliOptions &o, const std::string &) { o.digest = true; }},
        {"--jobs", "N",
         "worker threads for the sweep (default: hardware concurrency)",
         [](CliOptions &o, const std::string &v) {
             o.jobs = parsePositiveCount(v, "--jobs");
         }},
        {"--json", "",
         "emit a versioned JSON document instead of text",
         [](CliOptions &o, const std::string &) { o.json = true; }},
        {"--allow", "RULE[,RULE...]",
         "suppress findings of the rule id(s); repeatable",
         [](CliOptions &o, const std::string &v) {
             // Comma-separated list or repeated flag, interchangeably.
             std::size_t from = 0;
             while (from <= v.size()) {
                 std::size_t comma = v.find(',', from);
                 if (comma == std::string::npos)
                     comma = v.size();
                 const std::string rule = v.substr(from, comma - from);
                 fatal_if(rule.empty(),
                          "--allow: empty rule id in '", v, "'");
                 fatal_if(findDiagRule(rule) == nullptr,
                          "--allow: unknown rule '", rule,
                          "' (see `memento_sim rules` or the rule table "
                          "in README.md)");
                 o.diagPolicy.allowed.insert(rule);
                 from = comma + 1;
             }
         }},
        {"--werror", "", "treat analysis warnings as errors",
         [](CliOptions &o, const std::string &) {
             o.diagPolicy.werror = true;
         }},
        {"--cache", "DIR",
         "crash-safe result store: resume and share sweeps",
         [](CliOptions &o, const std::string &v) {
             fatal_if(v.empty(), "--cache expects a directory path");
             o.cfg.sweep.cacheDir = v;
         }},
        {"--no-cache", "",
         "ignore any sweep.cache_dir from config files",
         [](CliOptions &o, const std::string &) { o.noCache = true; }},
        {"--revalidate", "",
         "recompute a sample of cache hits; fail loudly on divergence",
         [](CliOptions &o, const std::string &) { o.revalidate = true; }},
        // Fleet conveniences: each is sugar for --set fleet.<key>=V, so
        // the schema's type and range validation applies unchanged.
        {"--cores", "N", "fleet: simulated cores on the node",
         [](CliOptions &o, const std::string &v) {
             applyConfigOption("fleet.cores", v, o.cfg);
         }},
        {"--invocations", "N", "fleet: arrivals to generate",
         [](CliOptions &o, const std::string &v) {
             applyConfigOption("fleet.invocations", v, o.cfg);
         }},
        {"--arrival", "KIND",
         "fleet: arrival process (poisson, bursty, diurnal)",
         [](CliOptions &o, const std::string &v) {
             applyConfigOption("fleet.arrival", v, o.cfg);
         }},
        {"--rate", "RPS", "fleet: mean arrival rate (requests/sec)",
         [](CliOptions &o, const std::string &v) {
             applyConfigOption("fleet.rate_rps", v, o.cfg);
         }},
    };
    return flags;
}

const FlagSpec *
findFlag(std::string_view name)
{
    for (const FlagSpec &flag : allFlags()) {
        if (flag.name == name)
            return &flag;
    }
    return nullptr;
}

CliOptions
parseCommandOptions(const CommandSpec &command,
                    const std::vector<std::string> &args)
{
    CliOptions opts;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (!arg.starts_with('-')) {
            opts.args.push_back(arg);
            continue;
        }
        const FlagSpec *flag = findFlag(arg);
        fatal_if(flag == nullptr, "unknown option ", arg,
                 " (see `memento_sim help ", command.name, "`)");
        bool accepted = false;
        for (std::string_view name : command.flags)
            accepted = accepted || name == arg;
        fatal_if(!accepted, "command '", command.name,
                 "' does not accept ", arg, " (see `memento_sim help ",
                 command.name, "`)");
        std::string value;
        if (flag->takesValue()) {
            fatal_if(i + 1 >= args.size(), "missing ", flag->valueName,
                     " after ", arg);
            value = args[++i];
        }
        flag->apply(opts, value);
    }
    const std::size_t n = opts.args.size();
    fatal_if(n < command.minArgs || n > command.maxArgs, "command '",
             command.name, "' expects ",
             command.usageArgs.empty() ? std::string_view("no arguments")
                                       : command.usageArgs,
             ", got ", n, " (see `memento_sim help ", command.name, "`)");
    if (opts.memento)
        opts.cfg.memento.enabled = true;
    // --no-cache beats --cache and sweep.cache_dir regardless of the
    // order they appeared in.
    if (opts.noCache)
        opts.cfg.sweep.cacheDir.clear();
    return opts;
}

void
printCommandHelp(std::ostream &os, const CommandSpec &command)
{
    os << "usage: memento_sim " << command.name;
    if (!command.usageArgs.empty())
        os << ' ' << command.usageArgs;
    if (!command.flags.empty())
        os << " [options]";
    os << "\n  " << command.help << "\n";
    if (command.flags.empty())
        return;
    os << "options:\n";
    for (std::string_view name : command.flags) {
        const FlagSpec *flag = findFlag(name);
        panic_if(flag == nullptr, "command '", command.name,
                 "' declares unregistered flag ", name);
        std::string left(flag->name);
        if (flag->takesValue()) {
            left += ' ';
            left += flag->valueName;
        }
        os << "  " << left;
        for (std::size_t pad = left.size(); pad < 22; ++pad)
            os << ' ';
        os << flag->help << "\n";
    }
}

void
printUsage(std::ostream &os, const std::vector<CommandSpec> &commands)
{
    os << "usage: memento_sim <command> [args]\n";
    for (const CommandSpec &cmd : commands) {
        std::string left(cmd.name);
        if (!cmd.usageArgs.empty()) {
            left += ' ';
            left += cmd.usageArgs;
        }
        os << "  " << left;
        for (std::size_t pad = left.size(); pad < 26; ++pad)
            os << ' ';
        os << cmd.help << "\n";
    }
    os << "Run `memento_sim help <command>` for that command's "
          "options.\n";
}

} // namespace memento
