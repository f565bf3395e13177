/**
 * @file
 * Tests for the configuration-file parser.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "fleet/arrivals.h"
#include "machine/machine.h"
#include "sa/config_lint.h"
#include "sim/config_file.h"
#include "sim/error.h"
#include "test_util.h"

namespace memento {
namespace {

TEST(ConfigFile, ParsesTypesAndSuffixes)
{
    MachineConfig cfg = defaultConfig();
    std::istringstream is(R"(
# comment line
core.freq_ghz = 2.5
l1d.size = 64k          # inline comment
llc.size = 4m
dram.size = 32g
memento.enabled = true
memento.bypass = off
kernel.fault_instructions = 1234
)");
    applyConfigStream(is, cfg);
    EXPECT_DOUBLE_EQ(cfg.core.freqGhz, 2.5);
    EXPECT_EQ(cfg.l1d.sizeBytes, 64u << 10);
    EXPECT_EQ(cfg.llc.sizeBytes, 4u << 20);
    EXPECT_EQ(cfg.dram.sizeBytes, 32ull << 30);
    EXPECT_TRUE(cfg.memento.enabled);
    EXPECT_FALSE(cfg.memento.bypassEnabled);
    EXPECT_EQ(cfg.kernel.faultInstructions, 1234u);
}

TEST(ConfigFile, SingleOptionOverride)
{
    MachineConfig cfg = defaultConfig();
    applyConfigOption("memento.objects_per_arena", "128", cfg);
    applyConfigOption("tuning.pymalloc_arena", "512k", cfg);
    applyConfigOption("core.store_hidden", "0.5", cfg);
    EXPECT_EQ(cfg.memento.objectsPerArena, 128u);
    EXPECT_EQ(cfg.tuning.pymallocArenaBytes, 512u << 10);
    EXPECT_DOUBLE_EQ(cfg.core.storeLatencyHiddenFraction, 0.5);
}

TEST(ConfigFile, BooleanSpellings)
{
    MachineConfig cfg = defaultConfig();
    for (const char *yes : {"true", "on", "1", "yes"}) {
        cfg.memento.enabled = false;
        applyConfigOption("memento.enabled", yes, cfg);
        EXPECT_TRUE(cfg.memento.enabled) << yes;
    }
    for (const char *no : {"false", "off", "0", "no"}) {
        cfg.memento.enabled = true;
        applyConfigOption("memento.enabled", no, cfg);
        EXPECT_FALSE(cfg.memento.enabled) << no;
    }
}

TEST(ConfigFileError, UnknownKeyThrows)
{
    MachineConfig cfg = defaultConfig();
    EXPECT_THROW(applyConfigOption("l1d.sizze", "64k", cfg), SimError);
    try {
        applyConfigOption("l1d.sizze", "64k", cfg);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::Config);
        EXPECT_NE(std::string(e.what()).find("unknown key"),
                  std::string::npos);
    }
}

TEST(ConfigFileError, MalformedValueThrows)
{
    MachineConfig cfg = defaultConfig();
    EXPECT_THROW(applyConfigOption("l1d.size", "sixty-four", cfg),
                 SimError);
    EXPECT_THROW(applyConfigOption("core.freq_ghz", "fast", cfg),
                 SimError);
    EXPECT_THROW(applyConfigOption("memento.enabled", "maybe", cfg),
                 SimError);
}

TEST(ConfigFileError, MissingEqualsThrows)
{
    MachineConfig cfg = defaultConfig();
    std::istringstream is("l1d.size 64k\n");
    try {
        applyConfigStream(is, cfg);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::Config);
        EXPECT_NE(std::string(e.what()).find("missing '='"),
                  std::string::npos);
    }
}

TEST(ConfigFile, EmptyAndCommentOnlyStreamsAreFine)
{
    MachineConfig cfg = defaultConfig();
    std::istringstream is("\n\n# nothing here\n   \n");
    applyConfigStream(is, cfg);
    EXPECT_EQ(cfg.l1d.sizeBytes, 32u << 10); // Unchanged defaults.
}

TEST(ConfigFile, ParsedConfigDrivesRealMachineGeometry)
{
    MachineConfig cfg = defaultConfig();
    std::istringstream is("l1d.size = 16k\nl1d.ways = 4\n");
    applyConfigStream(is, cfg);
    EXPECT_EQ(cfg.l1d.numSets(), (16u << 10) / (4 * 64));
}

// applyConfigStream() and lint-config read lines by one grammar: a line
// the loader rejects as malformed is exactly a line lint-config reports
// as config-parse. Each case is (line, malformed).
class ConfigLineGrammar
    : public ::testing::TestWithParam<std::tuple<std::string, bool>>
{
};

TEST_P(ConfigLineGrammar, LoaderThrowsExactlyWhereLintReportsParse)
{
    const auto &[line, malformed] = GetParam();
    MachineConfig cfg = defaultConfig();
    std::istringstream load_in(line + "\n");
    bool threw = false;
    try {
        applyConfigStream(load_in, cfg);
    } catch (const SimError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::Config);
        threw = true;
    }

    std::istringstream lint_in(line + "\n");
    DiagReport report;
    lintConfigStream(lint_in, "conf", report);
    bool parse_diag = false;
    for (const Diag &d : report.diags()) {
        if (d.ruleId == "config-parse") {
            EXPECT_EQ(d.location, 1u);
            parse_diag = true;
        }
    }
    EXPECT_EQ(threw, malformed) << "'" << line << "'";
    EXPECT_EQ(parse_diag, malformed) << "'" << line << "'";
}

INSTANTIATE_TEST_SUITE_P(
    LineShapes, ConfigLineGrammar,
    ::testing::Values(std::tuple{"core.freq_ghz=1", false},
                      std::tuple{" core.freq_ghz = 1 # c", false},
                      std::tuple{"=1", true},
                      std::tuple{"core.freq_ghz=", true},
                      std::tuple{"core.freq_ghz", true},
                      std::tuple{"", false},
                      std::tuple{"  # only a comment", false},
                      std::tuple{"core.freq_ghz # = 1", true}));

// Every error lint-config reports on the effective configuration is a
// run's config error: lint reports rule R at line L exactly when
// checkConfig throws SimError(Config) with the same message, and the
// gate the run meets throws it too (Machine's constructor, or
// generateArrivals for a fleet.* rule). An empty rule is a clean file.
struct RuleCase
{
    const char *text;
    const char *rule;
    unsigned line;
    bool fleet;
};

void
PrintTo(const RuleCase &c, std::ostream *os)
{
    *os << "'" << c.text << "'";
}

class ConfigProblems : public ::testing::TestWithParam<RuleCase>
{
};

TEST_P(ConfigProblems, LintErrorIsARunError)
{
    const RuleCase &c = GetParam();
    std::istringstream lint_in(c.text);
    DiagReport report;
    lintConfigStream(lint_in, "conf", report);
    std::vector<Diag> errors;
    for (const Diag &d : report.diags()) {
        if (d.severity == DiagSeverity::Error)
            errors.push_back(d);
    }

    MachineConfig cfg = defaultConfig();
    std::istringstream load_in(c.text);
    applyConfigStream(load_in, cfg);
    const auto checked =
        test::simErrorOf([&] { checkConfig(cfg, ConfigRules::All); });
    const auto machine = test::simErrorOf([&] { Machine m(cfg); });
    const auto arrivals =
        test::simErrorOf([&] { generateArrivals(cfg, 1); });

    if (*c.rule == '\0') {
        EXPECT_TRUE(errors.empty()) << errors.front().message;
        EXPECT_FALSE(checked.has_value()) << checked->what();
        EXPECT_FALSE(machine.has_value()) << machine->what();
        EXPECT_FALSE(arrivals.has_value()) << arrivals->what();
        return;
    }
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_EQ(errors[0].ruleId, c.rule);
    EXPECT_EQ(errors[0].location, c.line);
    ASSERT_TRUE(checked.has_value());
    EXPECT_EQ(checked->category(), ErrorCategory::Config);
    EXPECT_EQ(checked->what(), errors[0].message);

    const auto &gate = c.fleet ? arrivals : machine;
    const auto &other = c.fleet ? machine : arrivals;
    ASSERT_TRUE(gate.has_value());
    EXPECT_EQ(gate->category(), ErrorCategory::Config);
    EXPECT_EQ(gate->what(), errors[0].message);
    EXPECT_FALSE(other.has_value()) << other->what();
}

INSTANTIATE_TEST_SUITE_P(
    EachRule, ConfigProblems,
    ::testing::Values(
        RuleCase{"l2.ways = 4\n# 3 sets\nl2.size = 768\n",
                 "config-bad-value", 3, false},
        RuleCase{"tlb.l1_ways = 1024\n", "config-bad-value", 1, false},
        RuleCase{"tuning.pymalloc_arena = 6000\n", "config-bad-value", 1,
                 false},
        RuleCase{"tuning.jemalloc_chunk = 20480\n", "config-bad-value", 1,
                 false},
        RuleCase{"layout.heap_base = 0x400000000000\n",
                 "config-region-overlap", 1, false},
        RuleCase{"layout.heap_base = 0x20000080000\n"
                 "layout.memento_region_start = 0x20000000000\n",
                 "config-region-overlap", 2, false},
        RuleCase{"fleet.arrival = uniform\n", "config-fleet-bad-arrival",
                 1, true},
        RuleCase{"fleet.mix = nope\n", "config-fleet-bad-mix", 1, true},
        RuleCase{"fleet.rate_rps = 0.01\n# slow\n"
                 "fleet.invocations = 300000\n",
                 "config-bad-value", 3, true},
        RuleCase{"fleet.mix = aes\nfleet.arrival = bursty\n"
                 "layout.heap_base = 0x30000000000\n",
                 "", 0, false}));

} // namespace
} // namespace memento
