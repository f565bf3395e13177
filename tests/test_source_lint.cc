/**
 * @file
 * Tests for the determinism & thread-safety source linter
 * (sa/source_lint.h, `memento_sim lint-src`).
 *
 * Four layers under test:
 *   1. The tests/sa_corpus/ regression corpus: every rule fires on its
 *      minimal true positive (bad.cc) and stays silent on the content-
 *      level near-miss (ok.cc), driven by one TEST_P over the catalog.
 *   2. Tokenizer discipline: trigger tokens inside string literals, raw
 *      strings, and comments must never produce findings, and inline
 *      `lint-src: allow(...)` comments suppress exactly their line.
 *   3. The full pipeline: lintSourcePaths() renders byte-identical
 *      reports at --jobs 1/2/4 (the same contract as `check all`).
 *   4. DiagPolicy edges on the new rules: --werror never promotes
 *      Note, --allow removes findings from every count, and the text
 *      and JSON renderings agree on error/warning/note totals.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "cli/options.h"
#include "sa/diag.h"
#include "sa/source_lint.h"

#ifndef MEMENTO_TEST_CORPUS_DIR
#error "MEMENTO_TEST_CORPUS_DIR must point at tests/sa_corpus"
#endif

namespace memento {
namespace {

const std::string kCorpusDir = MEMENTO_TEST_CORPUS_DIR;

// Ad-hoc snippets lint under a subject path with no scope-exempt
// segments, so every rule is active — same as the corpus layout.
DiagReport
lintSnippet(std::string_view text, const std::string &subject = "snippet.cc")
{
    DiagReport report;
    lintSourceText(text, subject, report);
    return report;
}

std::size_t
countRule(const DiagReport &report, std::string_view rule)
{
    return static_cast<std::size_t>(
        std::count_if(report.diags().begin(), report.diags().end(),
                      [&](const Diag &d) { return d.ruleId == rule; }));
}

std::string
renderText(const DiagReport &report, const DiagPolicy &policy = {})
{
    std::ostringstream os;
    report.printText(os, policy);
    return os.str();
}

// ---------------------------------------------------------------------
// Corpus: one true positive + one near-miss per rule.
// ---------------------------------------------------------------------

// src-include-cycle is cross-file and has its own test below.
const char *const kPerFileRules[] = {
    "src-unordered-iteration",
    "src-pointer-key-order",
    "src-unseeded-random",
    "src-wallclock-in-sim",
    "src-naked-cout",
    "src-mutex-unannotated",
    "src-fatal-in-library",
    "src-float-accumulation-in-digest",
    "src-todo-without-issue",
};

class SourceLintCorpus : public ::testing::TestWithParam<const char *>
{
};

TEST_P(SourceLintCorpus, BadSnippetFiresTheRule)
{
    const std::string rule = GetParam();
    const std::string path = kCorpusDir + "/" + rule + "/bad.cc";
    DiagReport report;
    lintSourceFile(path, path, report);
    EXPECT_GE(countRule(report, rule), 1u) << renderText(report);
}

TEST_P(SourceLintCorpus, NearMissStaysSilent)
{
    const std::string rule = GetParam();
    const std::string path = kCorpusDir + "/" + rule + "/ok.cc";
    DiagReport report;
    lintSourceFile(path, path, report);
    EXPECT_EQ(countRule(report, rule), 0u) << renderText(report);
}

INSTANTIATE_TEST_SUITE_P(Rules, SourceLintCorpus,
                         ::testing::ValuesIn(kPerFileRules),
                         [](const auto &info) {
                             std::string name = info.param;
                             std::replace(name.begin(), name.end(), '-',
                                          '_');
                             return name;
                         });

TEST(SourceLintCorpus, IncludeCycleFiresOnceAnchoredAtSmallestMember)
{
    DiagReport report;
    lintSourcePaths({kCorpusDir + "/src-include-cycle"}, 1, report);
    ASSERT_EQ(countRule(report, "src-include-cycle"), 1u)
        << renderText(report);
    const auto it = std::find_if(
        report.diags().begin(), report.diags().end(),
        [](const Diag &d) { return d.ruleId == "src-include-cycle"; });
    EXPECT_EQ(it->subject, "bad_a.h");
    // The acyclic ok_a.h -> ok_b.h chain must not contribute.
    EXPECT_EQ(renderText(report).find("ok_"), std::string::npos);
}

TEST(SourceLintCorpus, EverySrcRuleIsRegistered)
{
    for (const char *rule : kPerFileRules)
        EXPECT_NE(findDiagRule(rule), nullptr) << rule;
    EXPECT_NE(findDiagRule("src-include-cycle"), nullptr);
}

// ---------------------------------------------------------------------
// Tokenizer discipline: literals and comments are inert.
// ---------------------------------------------------------------------

TEST(SourceLintTokenizer, TriggerWordsInsideStringLiteralsAreInert)
{
    const DiagReport report = lintSnippet(
        "const char *kHelp =\n"
        "    \"rand() system_clock std::cout fatal() abort()\";\n");
    EXPECT_TRUE(report.empty()) << renderText(report);
}

TEST(SourceLintTokenizer, TriggerWordsInsideRawStringsAreInert)
{
    const DiagReport report = lintSnippet(
        "const char *kDoc = R\"(rand() is bad; so is std::cout and\n"
        "#include \"bad_b.h\" — none of this is code)\";\n");
    EXPECT_TRUE(report.empty()) << renderText(report);
}

TEST(SourceLintTokenizer, TriggerWordsInsideCommentsAreInert)
{
    const DiagReport report = lintSnippet(
        "// rand() and std::cout in a line comment\n"
        "/* system_clock in a block\n"
        "   comment spanning lines: abort() */\n"
        "int x = 0;\n");
    EXPECT_TRUE(report.empty()) << renderText(report);
}

TEST(SourceLintTokenizer, EscapedQuotesDoNotEndTheLiteral)
{
    const DiagReport report = lintSnippet(
        "const char *s = \"say \\\"rand()\\\" loudly\";\n");
    EXPECT_TRUE(report.empty()) << renderText(report);
}

TEST(SourceLintTokenizer, MemberCallsAndDeclarationsAreNotFreeCalls)
{
    // rng.rand() is a member call; `std::uint64_t rand()` declares a
    // method; only `return rand();` is a free-call expression.
    EXPECT_EQ(countRule(lintSnippet("void f(Rng &rng) { rng.rand(); }\n"),
                        "src-unseeded-random"),
              0u);
    EXPECT_EQ(countRule(lintSnippet("std::uint64_t rand();\n"),
                        "src-unseeded-random"),
              0u);
    EXPECT_EQ(countRule(lintSnippet("int f() { return rand(); }\n"),
                        "src-unseeded-random"),
              1u);
}

TEST(SourceLintTokenizer, InlineAllowSuppressesExactlyItsLine)
{
    const char *without = "void f() { std::cout << 1; }\n"
                          "void g() { std::cout << 2; }\n";
    const char *with =
        "void f() { std::cout << 1; } // lint-src: allow(src-naked-cout)\n"
        "void g() { std::cout << 2; }\n";
    EXPECT_EQ(countRule(lintSnippet(without), "src-naked-cout"), 2u);
    const DiagReport report = lintSnippet(with);
    ASSERT_EQ(countRule(report, "src-naked-cout"), 1u)
        << renderText(report);
    EXPECT_EQ(report.diags().front().location, 2u);
}

TEST(SourceLintTokenizer, UnorderedIterationNeedsAnUnorderedDecl)
{
    const char *unordered = "std::unordered_map<int, int> m;\n"
                            "void f() {\n"
                            "    for (const auto &kv : m)\n"
                            "        (void)kv;\n"
                            "}\n";
    const char *ordered = "std::map<int, int> m;\n"
                          "void f() {\n"
                          "    for (const auto &kv : m)\n"
                          "        (void)kv;\n"
                          "}\n";
    EXPECT_EQ(countRule(lintSnippet(unordered), "src-unordered-iteration"),
              1u);
    EXPECT_EQ(countRule(lintSnippet(ordered), "src-unordered-iteration"),
              0u);
}

TEST(SourceLintScope, WallclockUnderBenchIsFlagged)
{
    // Simulator self-timing lives in perfbench/, so a bench/ segment no
    // longer exempts a file; the CLI front end still is.
    const char *stamp = "auto t = std::chrono::system_clock::now();\n";
    EXPECT_EQ(countRule(lintSnippet(stamp, "bench/fig08_speedup.cc"),
                        "src-wallclock-in-sim"),
              1u);
    EXPECT_EQ(countRule(lintSnippet(stamp, "tools/memento_sim.cc"),
                        "src-wallclock-in-sim"),
              0u);
}

// ---------------------------------------------------------------------
// Pipeline: byte-identical reports at any --jobs level.
// ---------------------------------------------------------------------

TEST(SourceLintPipeline, ReportIsByteIdenticalAcrossJobLevels)
{
    std::vector<std::string> renders;
    std::size_t files = 0;
    for (unsigned jobs : {1u, 2u, 4u}) {
        DiagReport report;
        const std::size_t n = lintSourcePaths({kCorpusDir}, jobs, report);
        if (files == 0)
            files = n;
        EXPECT_EQ(n, files) << "file count drifts with --jobs " << jobs;
        renders.push_back(renderText(report));
    }
    EXPECT_FALSE(renders[0].empty()); // The corpus is full of positives.
    EXPECT_EQ(renders[0], renders[1]);
    EXPECT_EQ(renders[0], renders[2]);
}

TEST(SourceLintPipeline, CollectSourceFilesIsSortedAndKeyed)
{
    const auto files =
        collectSourceFiles({kCorpusDir + "/src-include-cycle"});
    ASSERT_EQ(files.size(), 4u);
    EXPECT_TRUE(std::is_sorted(files.begin(), files.end()));
    // Keys are relative to the argument root, how includes are spelled.
    EXPECT_EQ(files[0].second, "bad_a.h");
    EXPECT_EQ(files[3].second, "ok_b.h");
}

// ---------------------------------------------------------------------
// DiagPolicy edges on the new rules.
// ---------------------------------------------------------------------

TEST(SourceLintPolicy, WerrorPromotesWarningsButNeverNotes)
{
    // One warning (naked cout) + one note (untracked TODO).
    const DiagReport report =
        lintSnippet("void f() { std::cout << 1; }\n"
                    "// TODO: tighten this bound\n");
    ASSERT_EQ(report.warnings(), 1u);
    ASSERT_EQ(report.notes(), 1u);
    ASSERT_EQ(report.errors(), 0u);

    DiagPolicy werror;
    werror.werror = true;
    EXPECT_EQ(report.errors(werror), 1u);   // the warning, promoted
    EXPECT_EQ(report.warnings(werror), 0u);
    EXPECT_EQ(report.notes(werror), 1u);    // notes stay advisory
    EXPECT_FALSE(report.clean(werror));
}

TEST(SourceLintPolicy, NoteOnlyReportStaysCleanUnderWerror)
{
    const DiagReport report =
        lintSnippet("// FIXME: no issue reference here\nint x;\n");
    ASSERT_EQ(report.notes(), 1u);
    DiagPolicy werror;
    werror.werror = true;
    EXPECT_TRUE(report.clean(werror));
    EXPECT_NE(renderText(report, werror).find("note:"), std::string::npos);
}

TEST(SourceLintPolicy, AllowRemovesFindingsFromEveryRendering)
{
    const DiagReport report = lintSnippet("void f() { std::cout << 1; }\n");
    ASSERT_EQ(report.warnings(), 1u);
    DiagPolicy policy;
    policy.allowed.insert("src-naked-cout");
    EXPECT_EQ(report.warnings(policy), 0u);
    EXPECT_TRUE(renderText(report, policy).empty());
    std::ostringstream json;
    report.printJson(json, policy);
    EXPECT_EQ(json.str().find("src-naked-cout"), std::string::npos);
}

TEST(SourceLintPolicy, TextAndJsonAgreeOnCounts)
{
    // One of each severity: unseeded rand (error), naked cout
    // (warning), untracked TODO (note).
    const DiagReport report =
        lintSnippet("void f() { std::cout << 1; }\n"
                    "int g() { return rand(); }\n"
                    "// TODO: someday\n");
    ASSERT_EQ(report.errors(), 1u);
    ASSERT_EQ(report.warnings(), 1u);
    ASSERT_EQ(report.notes(), 1u);

    const std::string text = renderText(report);
    const auto countWord = [&](std::string_view needle) {
        std::size_t n = 0;
        for (std::size_t at = text.find(needle); at != std::string::npos;
             at = text.find(needle, at + 1))
            ++n;
        return n;
    };
    EXPECT_EQ(countWord(" error: "), report.errors());
    EXPECT_EQ(countWord(" warning: "), report.warnings());
    EXPECT_EQ(countWord(" note: "), report.notes());

    std::ostringstream json;
    report.printJson(json, {});
    EXPECT_NE(json.str().find("\"errors\": 1"), std::string::npos);
    EXPECT_NE(json.str().find("\"warnings\": 1"), std::string::npos);
    EXPECT_NE(json.str().find("\"notes\": 1"), std::string::npos);
}

// ---------------------------------------------------------------------
// CLI parsing: comma --allow lists and variadic paths.
// ---------------------------------------------------------------------

const CommandSpec &
command(std::string_view name)
{
    const CommandSpec *spec = findCommand(name);
    EXPECT_NE(spec, nullptr) << name;
    return *spec;
}

TEST(SourceLintCli, CommaSeparatedAllowListParses)
{
    const CliOptions opts = parseCommandOptions(
        command("lint-src"),
        {"lint-src", "src", "--allow",
         "src-naked-cout,src-todo-without-issue", "--allow",
         "src-unordered-iteration"},
        1);
    EXPECT_EQ(opts.diagPolicy.allowed.size(), 3u);
    EXPECT_TRUE(opts.diagPolicy.suppressed("src-naked-cout"));
    EXPECT_TRUE(opts.diagPolicy.suppressed("src-todo-without-issue"));
    EXPECT_TRUE(opts.diagPolicy.suppressed("src-unordered-iteration"));
}

TEST(SourceLintCli, VariadicPathsCollectInCliOrder)
{
    const CliOptions opts = parseCommandOptions(
        command("lint-src"),
        {"lint-src", "src/sa", "tools", "--jobs", "2", "--werror"}, 1);
    ASSERT_EQ(opts.paths.size(), 2u);
    EXPECT_EQ(opts.paths[0], "src/sa");
    EXPECT_EQ(opts.paths[1], "tools");
    EXPECT_EQ(opts.jobs, 2u);
    EXPECT_TRUE(opts.diagPolicy.werror);
}

TEST(SourceLintCli, RulesCommandIsRegistered)
{
    const CliOptions opts =
        parseCommandOptions(command("rules"), {"rules", "--json"}, 1);
    EXPECT_TRUE(opts.json);
}

using SourceLintCliDeath = ::testing::Test;

TEST(SourceLintCliDeath, UnknownRuleInCommaListIsFatal)
{
    EXPECT_EXIT(parseCommandOptions(
                    command("lint-src"),
                    {"lint-src", "src", "--allow",
                     "src-naked-cout,src-bogus-rule"},
                    1),
                ::testing::ExitedWithCode(1), "unknown rule");
}

TEST(SourceLintCliDeath, EmptyAllowEntryIsFatal)
{
    EXPECT_EXIT(parseCommandOptions(command("lint-src"),
                                    {"lint-src", "src", "--allow",
                                     "src-naked-cout,,src-wallclock-in-sim"},
                                    1),
                ::testing::ExitedWithCode(1), "--allow");
}

TEST(SourceLintCliDeath, BarePathOnNonVariadicCommandIsFatal)
{
    EXPECT_EXIT(parseCommandOptions(command("rules"),
                                    {"rules", "stray-arg"}, 1),
                ::testing::ExitedWithCode(1), "unknown option");
}

} // namespace
} // namespace memento
