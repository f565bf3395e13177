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

#include <gtest/gtest.h>

#include "cli/options.h"

namespace memento {
namespace {

const CommandSpec &
command(std::string_view name)
{
    const CommandSpec *spec = findCommand(name);
    EXPECT_NE(spec, nullptr) << name;
    return *spec;
}

TEST(CliOptions, EveryDeclaredFlagIsRegistered)
{
    for (const CommandSpec &cmd : allCommands()) {
        for (std::string_view flag : cmd.flags)
            EXPECT_NE(findFlag(flag), nullptr)
                << "command " << cmd.name << " declares unknown flag "
                << flag;
    }
}

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
        command("run"),
        {"run", "aes", "--memento", "--digest", "--jobs", "2"}, 2);
    EXPECT_TRUE(opts.memento);
    EXPECT_TRUE(opts.cfg.memento.enabled);
    EXPECT_TRUE(opts.digest);
    EXPECT_EQ(opts.jobs, 2u);
    EXPECT_FALSE(opts.json);
}

TEST(CliOptions, ParseAppliesFleetFlags)
{
    const CliOptions opts = parseCommandOptions(
        command("fleet"),
        {"fleet", "--cores", "4", "--invocations", "300", "--arrival",
         "bursty", "--rate", "1500", "--jobs", "2"},
        1);
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

using CliOptionsDeath = ::testing::Test;

TEST(CliOptionsDeath, UnacceptedFlagIsFatal)
{
    // `run` does not declare fleet's --cores; the shared parser must
    // say so.
    EXPECT_EXIT(parseCommandOptions(command("run"),
                                    {"run", "aes", "--cores", "4"}, 2),
                ::testing::ExitedWithCode(1), "does not accept --cores");
}

TEST(CliOptionsDeath, UnknownFlagIsFatal)
{
    EXPECT_EXIT(
        parseCommandOptions(command("run"), {"run", "aes", "--bogus"}, 2),
        ::testing::ExitedWithCode(1), "unknown option --bogus");
}

TEST(CliOptionsDeath, MissingValueIsFatal)
{
    EXPECT_EXIT(
        parseCommandOptions(command("run"), {"run", "aes", "--jobs"}, 2),
        ::testing::ExitedWithCode(1), "missing N after --jobs");
}

TEST(CliOptionsDeath, NonPositiveJobsIsFatal)
{
    EXPECT_EXIT(parseCommandOptions(command("run"),
                                    {"run", "aes", "--jobs", "0"}, 2),
                ::testing::ExitedWithCode(1), "positive count");
}

TEST(CliOptions, CacheFlagsApplyToTheSweepPolicy)
{
    const CliOptions opts = parseCommandOptions(
        command("run"),
        {"run", "all", "--cache", "/tmp/store", "--revalidate"}, 2);
    EXPECT_EQ(opts.cfg.sweep.cacheDir, "/tmp/store");
    EXPECT_TRUE(opts.revalidate);
    EXPECT_FALSE(opts.noCache);
}

TEST(CliOptions, NoCacheBeatsCacheRegardlessOfOrder)
{
    const CliOptions opts = parseCommandOptions(
        command("run"),
        {"run", "all", "--no-cache", "--cache", "/tmp/store"}, 2);
    EXPECT_TRUE(opts.noCache);
    EXPECT_TRUE(opts.cfg.sweep.cacheDir.empty());
}

TEST(CliOptionsDeath, EmptyCacheDirIsFatal)
{
    EXPECT_EXIT(parseCommandOptions(command("run"),
                                    {"run", "all", "--cache", ""}, 2),
                ::testing::ExitedWithCode(1), "--cache");
}

TEST(CliOptionsDeath, FleetRejectsRetry)
{
    // fleet stops at the first failed profile, so it has no use for
    // sweep failure policy; the declarative command table must reject
    // such a flag rather than silently ignoring it.
    EXPECT_EXIT(parseCommandOptions(command("fleet"),
                                    {"fleet", "--keep-going"}, 1),
                ::testing::ExitedWithCode(1),
                "does not accept --keep-going");
}

TEST(CliOptions, HelpRendererListsOnlyAcceptedFlags)
{
    std::ostringstream os;
    printCommandHelp(os, command("lint-config"));
    const std::string help = os.str();
    EXPECT_NE(help.find("--json"), std::string::npos);
    EXPECT_NE(help.find("--werror"), std::string::npos);
    EXPECT_EQ(help.find("--jobs"), std::string::npos);
    EXPECT_EQ(help.find("--digest"), std::string::npos);
}

TEST(CliOptions, UsagePageListsEveryCommand)
{
    std::ostringstream os;
    printUsage(os);
    const std::string usage = os.str();
    for (const CommandSpec &cmd : allCommands())
        EXPECT_NE(usage.find(std::string(cmd.name)), std::string::npos)
            << cmd.name;
}

} // namespace
} // namespace memento
