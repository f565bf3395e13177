/**
 * @file
 * Tests for the shared declarative CLI options API (cli/options.h).
 *
 * The contract under test: every command parses through one flag
 * table, commands only accept the flags they declare, old flag
 * spellings keep working, and user errors exit through the fatal()
 * path (exit code 1) with an actionable message.
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli/options.h"

namespace memento {
namespace {

int
noop(const CliOptions &)
{
    return 0;
}

// Commands built here, not memento_sim's table: these tests pin the
// parser and the renderers. The shipped table is checked on the binary
// (the cli_help_* and cli_*_rejects_* ctests).
const CommandSpec kRun{"run", "<workload>|all", "run one configuration",
                       noop,
                       {"--memento", "--digest", "--jobs", "--cache",
                        "--no-cache", "--revalidate", "--keep-going"},
                       1, 1};
const CommandSpec kFleet{"fleet", "", "simulate a node", noop,
                         {"--cores", "--invocations", "--arrival",
                          "--rate", "--jobs"}};
const CommandSpec kLint{"lint-config", "<file>", "validate a config file",
                        noop, {"--json", "--allow", "--werror"}, 1, 1};

TEST(CliOptions, LegacyFlagSpellingsAllExist)
{
    // The pre-redesign front end accepted exactly these spellings;
    // they must keep working verbatim.
    for (const char *flag :
         {"--config", "--set", "--memento", "--cold", "--trace",
          "--stats", "--keep-going", "--digest", "--jobs", "--json",
          "--allow", "--werror"})
        EXPECT_NE(findFlag(flag), nullptr) << flag;
}

TEST(CliOptions, ParseAppliesRunFlags)
{
    const CliOptions opts = parseCommandOptions(
        kRun, {"aes", "--memento", "--digest", "--jobs", "2"});
    EXPECT_TRUE(opts.memento);
    EXPECT_TRUE(opts.cfg.memento.enabled);
    EXPECT_TRUE(opts.digest);
    EXPECT_EQ(opts.jobs, 2u);
    EXPECT_FALSE(opts.json);
    EXPECT_EQ(opts.args, std::vector<std::string>{"aes"});
}

TEST(CliOptions, ParseAppliesFleetFlags)
{
    const CliOptions opts = parseCommandOptions(
        kFleet, {"--cores", "4", "--invocations", "300", "--arrival",
                 "bursty", "--rate", "1500", "--jobs", "2"});
    EXPECT_EQ(opts.cfg.fleet.cores, 4u);
    EXPECT_EQ(opts.cfg.fleet.invocations, 300u);
    EXPECT_EQ(opts.cfg.fleet.arrival, "bursty");
    EXPECT_DOUBLE_EQ(opts.cfg.fleet.ratePerSec, 1500.0);
    EXPECT_EQ(opts.jobs, 2u);
}

TEST(CliOptions, DefaultsMatchDocumentedBehaviour)
{
    const CliOptions opts;
    EXPECT_EQ(opts.jobs, 0u);
    EXPECT_FALSE(opts.cfg.memento.enabled);
}

TEST(CliOptions, PositionalsMayFollowFlags)
{
    const CliOptions opts =
        parseCommandOptions(kRun, {"--jobs", "3", "aes", "--memento"});
    EXPECT_EQ(opts.args, std::vector<std::string>{"aes"});
    EXPECT_EQ(opts.jobs, 3u);
    EXPECT_TRUE(opts.memento);
}

TEST(CliOptions, KeepGoingSetsTheSweepPolicy)
{
    EXPECT_FALSE(parseCommandOptions(kRun, {"all"}).cfg.sweep.keepGoing);
    EXPECT_TRUE(parseCommandOptions(kRun, {"all", "--keep-going"})
                    .cfg.sweep.keepGoing);
}

using CliOptionsDeath = ::testing::Test;

TEST(CliOptionsDeath, UnacceptedFlagIsFatal)
{
    // kRun does not declare fleet's --cores; the shared parser must
    // say so.
    EXPECT_EXIT(parseCommandOptions(kRun, {"aes", "--cores", "4"}),
                ::testing::ExitedWithCode(1), "does not accept --cores");
}

TEST(CliOptionsDeath, UnknownFlagIsFatal)
{
    EXPECT_EXIT(parseCommandOptions(kRun, {"aes", "--bogus"}),
                ::testing::ExitedWithCode(1), "unknown option --bogus");
}

TEST(CliOptionsDeath, MissingValueIsFatal)
{
    EXPECT_EXIT(parseCommandOptions(kRun, {"aes", "--jobs"}),
                ::testing::ExitedWithCode(1), "missing N after --jobs");
}

TEST(CliOptionsDeath, NonPositiveJobsIsFatal)
{
    EXPECT_EXIT(parseCommandOptions(kRun, {"aes", "--jobs", "0"}),
                ::testing::ExitedWithCode(1), "positive count");
}

TEST(CliOptionsDeath, PositionalCountOutsideTheBoundsIsFatal)
{
    EXPECT_EXIT(parseCommandOptions(kRun, {"--memento"}),
                ::testing::ExitedWithCode(1),
                "'run' expects <workload>.all, got 0");
    EXPECT_EXIT(parseCommandOptions(kRun, {"aes", "gups"}),
                ::testing::ExitedWithCode(1), "got 2");
    EXPECT_EXIT(parseCommandOptions(kFleet, {"aes"}),
                ::testing::ExitedWithCode(1),
                "'fleet' expects no arguments, got 1");
}

TEST(CliOptions, CacheFlagsApplyToTheSweepPolicy)
{
    const CliOptions opts = parseCommandOptions(
        kRun, {"all", "--cache", "/tmp/store", "--revalidate"});
    EXPECT_EQ(opts.cfg.sweep.cacheDir, "/tmp/store");
    EXPECT_TRUE(opts.revalidate);
    EXPECT_FALSE(opts.noCache);
}

TEST(CliOptions, NoCacheBeatsCacheRegardlessOfOrder)
{
    const CliOptions opts = parseCommandOptions(
        kRun, {"all", "--no-cache", "--cache", "/tmp/store"});
    EXPECT_TRUE(opts.noCache);
    EXPECT_TRUE(opts.cfg.sweep.cacheDir.empty());
}

TEST(CliOptionsDeath, EmptyCacheDirIsFatal)
{
    EXPECT_EXIT(parseCommandOptions(kRun, {"all", "--cache", ""}),
                ::testing::ExitedWithCode(1), "--cache");
}

TEST(CliOptions, HelpRendererListsOnlyAcceptedFlags)
{
    std::ostringstream os;
    printCommandHelp(os, kLint);
    const std::string help = os.str();
    EXPECT_NE(help.find("--json"), std::string::npos);
    EXPECT_NE(help.find("--werror"), std::string::npos);
    EXPECT_EQ(help.find("--jobs"), std::string::npos);
    EXPECT_EQ(help.find("--digest"), std::string::npos);
}

TEST(CliOptions, UsagePageListsEveryCommand)
{
    const std::vector<CommandSpec> table = {kRun, kFleet, kLint};
    std::ostringstream os;
    printUsage(os, table);
    const std::string usage = os.str();
    for (const CommandSpec &cmd : table)
        EXPECT_NE(usage.find(std::string(cmd.name)), std::string::npos)
            << cmd.name;
}

TEST(CliOptionsDeath, HelpForAnUnregisteredFlagPanics)
{
    const CommandSpec bad{"bad", "", "declares a flag nobody registered",
                          noop, {"--json", "--no-such-flag"}};
    std::ostringstream os;
    EXPECT_DEATH(printCommandHelp(os, bad),
                 "declares unregistered flag --no-such-flag");
}

} // namespace
} // namespace memento
