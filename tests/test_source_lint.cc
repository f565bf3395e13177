/**
 * @file
 * Tests for the determinism source linter (sa/source_lint.h,
 * `memento_sim lint-src`).
 *
 * Four layers under test:
 *   1. The tests/sa_corpus/ regression corpus: every rule fires on its
 *      minimal true positive (bad.cc) and stays silent on the content-
 *      level near-miss (ok.cc), driven by one TEST_P over the catalog,
 *      and linting the whole corpus at once reports each rule exactly
 *      once, at its own bad.cc.
 *   2. Tokenizer discipline: trigger tokens inside string literals, raw
 *      strings, and comments must never produce findings, and inline
 *      `lint-src: allow(...)` comments suppress exactly their line.
 *   3. Path scopes and the pipeline: tools/ keeps the ordering rules,
 *      files lint in sorted path order, and a file reached through two
 *      paths lints once.
 *   4. DiagPolicy edges on the rules: --allow removes findings from
 *      every count, and the text and JSON renderings agree on
 *      error/warning totals.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
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

const char *const kRules[] = {
    "src-unordered-iteration",
    "src-pointer-key-order",
    "src-unseeded-random",
    "src-wallclock-in-sim",
    "src-naked-cout",
    "src-fatal-in-library",
    "src-float-accumulation-in-digest",
};

class SourceLintCorpus : public ::testing::TestWithParam<const char *>
{
};

TEST_P(SourceLintCorpus, BadSnippetFiresTheRule)
{
    const std::string rule = GetParam();
    DiagReport report;
    lintSourcePaths({kCorpusDir + "/" + rule + "/bad.cc"}, report);
    EXPECT_GE(countRule(report, rule), 1u) << renderText(report);
}

TEST_P(SourceLintCorpus, NearMissStaysSilent)
{
    const std::string rule = GetParam();
    DiagReport report;
    lintSourcePaths({kCorpusDir + "/" + rule + "/ok.cc"}, report);
    EXPECT_EQ(countRule(report, rule), 0u) << renderText(report);
}

INSTANTIATE_TEST_SUITE_P(Rules, SourceLintCorpus,
                         ::testing::ValuesIn(kRules),
                         [](const auto &info) {
                             std::string name = info.param;
                             std::replace(name.begin(), name.end(), '-',
                                          '_');
                             return name;
                         });

TEST(SourceLintCorpus, WholeCorpusReportsEachRuleOnceAtItsBadFile)
{
    // Linted together, each true positive fires once and no near-miss
    // fires at all.
    DiagReport report;
    lintSourcePaths({kCorpusDir}, report);
    ASSERT_EQ(report.diags().size(), std::size(kRules))
        << renderText(report);
    for (const char *rule : kRules) {
        const auto it = std::find_if(
            report.diags().begin(), report.diags().end(),
            [&](const Diag &d) { return d.ruleId == rule; });
        ASSERT_NE(it, report.diags().end()) << rule;
        EXPECT_EQ(it->subject,
                  kCorpusDir + "/" + std::string(rule) + "/bad.cc");
    }
}

TEST(SourceLintCorpus, EverySrcRuleIsRegistered)
{
    for (const char *rule : kRules)
        EXPECT_NE(findDiagRule(rule), nullptr) << rule;
    const std::size_t src_rules = static_cast<std::size_t>(std::count_if(
        allDiagRules().begin(), allDiagRules().end(),
        [](const DiagRule &r) { return r.id.substr(0, 4) == "src-"; }));
    EXPECT_EQ(src_rules, std::size(kRules));
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

TEST(SourceLintTokenizer, EveryUnorderedContainerInCodeFires)
{
    // A declaration, a parameter type and a using alias each fire on
    // their own line, iterated or not; the #include line, the comment
    // and the string stay inert.
    const DiagReport report = lintSnippet(
        "#include <unordered_map>\n"
        "std::unordered_set<int> seen;\n"
        "int f(const std::unordered_multimap<int, int> &m);\n"
        "using Index = std::unordered_map<int, int>;\n"
        "// std::unordered_multiset in a comment\n"
        "const char *kDoc = \"std::unordered_map in a string\";\n");
    ASSERT_EQ(countRule(report, "src-unordered-iteration"), 3u)
        << renderText(report);
    EXPECT_EQ(report.diags()[0].location, 2u);
    EXPECT_EQ(report.diags()[1].location, 3u);
    EXPECT_EQ(report.diags()[2].location, 4u);

    const char *ordered = "std::map<int, int> m;\n"
                          "void f() {\n"
                          "    for (const auto &kv : m)\n"
                          "        (void)kv;\n"
                          "}\n";
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

TEST(SourceLintScope, FatalUnderBenchIsFlagged)
{
    // No bench/ directory exists, so the segment exempts nothing; the
    // CLI layer still may terminate through fatal().
    const char *bail = "void f() { fatal(\"bad input\"); }\n";
    EXPECT_EQ(countRule(lintSnippet(bail, "bench/fig08_speedup.cc"),
                        "src-fatal-in-library"),
              1u);
    EXPECT_EQ(countRule(lintSnippet(bail, "src/rt/pymalloc.cc"),
                        "src-fatal-in-library"),
              1u);
    EXPECT_EQ(countRule(lintSnippet(bail, "src/cli/options.cc"),
                        "src-fatal-in-library"),
              0u);
}

TEST(SourceLintScope, ToolsIsExemptFromStreamClockAndFatal)
{
    const char *front_end =
        "void f() { std::cout << 1; }\n"
        "auto t = std::chrono::system_clock::now();\n"
        "void g() { fatal(\"bad input\"); }\n";
    const DiagReport tools = lintSnippet(front_end, "tools/memento_sim.cc");
    EXPECT_TRUE(tools.empty()) << renderText(tools);
    const DiagReport library = lintSnippet(front_end);
    EXPECT_EQ(countRule(library, "src-naked-cout"), 1u);
    EXPECT_EQ(countRule(library, "src-wallclock-in-sim"), 1u);
    EXPECT_EQ(countRule(library, "src-fatal-in-library"), 1u);
}

TEST(SourceLintScope, ToolsKeepsTheOrderingRules)
{
    const DiagReport report = lintSnippet(
        "std::unordered_map<int, int> m;\n"
        "void f() {\n"
        "    for (const auto &kv : m)\n"
        "        (void)kv;\n"
        "}\n"
        "struct Obj;\n"
        "std::map<Obj *, int> by_ptr;\n"
        "int g() { return rand(); }\n",
        "tools/memento_sim.cc");
    EXPECT_EQ(countRule(report, "src-unordered-iteration"), 1u)
        << renderText(report);
    EXPECT_EQ(countRule(report, "src-pointer-key-order"), 1u)
        << renderText(report);
    EXPECT_EQ(countRule(report, "src-unseeded-random"), 1u)
        << renderText(report);
}

// ---------------------------------------------------------------------
// Pipeline: file collection and order.
// ---------------------------------------------------------------------

void
writeFile(const std::string &path, std::string_view text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << path;
    out << text;
}

TEST(SourceLintPipeline, FileReachedThroughTwoPathsLintsOnce)
{
    DiagReport once;
    const std::size_t files = lintSourcePaths({kCorpusDir}, once);
    DiagReport twice;
    EXPECT_EQ(
        lintSourcePaths({kCorpusDir + "/src-naked-cout", kCorpusDir}, twice),
        files);
    EXPECT_EQ(countRule(twice, "src-naked-cout"), 1u) << renderText(twice);

    // Other spellings of the same directory: relative to the working
    // directory, and an absolute path through a symlink. Each file is
    // linted once, reported under its first spelling.
    namespace fs = std::filesystem;
    const std::string link = ::testing::TempDir() + "source_lint_corpus";
    fs::remove(link);
    fs::create_directory_symlink(kCorpusDir, link);
    DiagReport spelled;
    EXPECT_EQ(lintSourcePaths({kCorpusDir, fs::relative(kCorpusDir).string(),
                               link},
                              spelled),
              files);
    EXPECT_EQ(countRule(spelled, "src-naked-cout"), 1u)
        << renderText(spelled);
    for (const Diag &d : spelled.diags())
        EXPECT_EQ(d.subject.rfind(kCorpusDir + "/", 0), 0u) << d.subject;
}

TEST(SourceLintPipeline, ReportFollowsSortedPathOrderNotArgumentOrder)
{
    const std::string cout_dir = kCorpusDir + "/src-naked-cout";
    const std::string rand_dir = kCorpusDir + "/src-unseeded-random";
    DiagReport forward;
    DiagReport backward;
    EXPECT_EQ(lintSourcePaths({cout_dir, rand_dir}, forward), 4u);
    EXPECT_EQ(lintSourcePaths({rand_dir, cout_dir}, backward), 4u);
    ASSERT_EQ(forward.diags().size(), 2u) << renderText(forward);
    EXPECT_EQ(forward.diags()[0].subject, cout_dir + "/bad.cc");
    EXPECT_EQ(forward.diags()[1].subject, rand_dir + "/bad.cc");
    EXPECT_EQ(renderText(backward), renderText(forward));
}

TEST(SourceLintPipeline, OnlyHeadersAndSourcesAreCollected)
{
    const std::string dir = ::testing::TempDir() + "source_lint_exts";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir + "/nested");
    const char *stream = "void f() { std::cout << 1; }\n";
    writeFile(dir + "/a.h", stream);
    writeFile(dir + "/nested/b.cc", stream);
    writeFile(dir + "/notes.txt", stream);
    writeFile(dir + "/gen.py", stream);
    writeFile(dir + "/c.cpp", stream);
    DiagReport report;
    EXPECT_EQ(lintSourcePaths({dir}, report), 2u);
    ASSERT_EQ(report.diags().size(), 2u) << renderText(report);
    EXPECT_EQ(report.diags()[0].subject, dir + "/a.h");
    EXPECT_EQ(report.diags()[1].subject, dir + "/nested/b.cc");
}

// ---------------------------------------------------------------------
// DiagPolicy edges on the rules.
// ---------------------------------------------------------------------

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
    // (warning).
    const DiagReport report =
        lintSnippet("void f() { std::cout << 1; }\n"
                    "int g() { return rand(); }\n");
    ASSERT_EQ(report.errors(), 1u);
    ASSERT_EQ(report.warnings(), 1u);

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

    std::ostringstream json;
    report.printJson(json, {});
    EXPECT_NE(json.str().find("\"errors\": 1"), std::string::npos);
    EXPECT_NE(json.str().find("\"warnings\": 1"), std::string::npos);
}

// ---------------------------------------------------------------------
// CLI parsing: comma --allow lists and variadic paths.
// ---------------------------------------------------------------------

int
noop(const CliOptions &)
{
    return 0;
}

// Built here to match memento_sim's lint-src and rules entries.
const CommandSpec kLintSrc{"lint-src", "[paths...]", "lint", noop,
                           {"--json", "--allow", "--werror"}, 0,
                           kAnyArgs};
const CommandSpec kRulesCommand{"rules", "", "rules", noop, {"--json"}};

TEST(SourceLintCli, CommaSeparatedAllowListParses)
{
    const CliOptions opts = parseCommandOptions(
        kLintSrc, {"src", "--allow", "src-naked-cout,src-wallclock-in-sim",
                   "--allow", "src-unordered-iteration"});
    EXPECT_EQ(opts.diagPolicy.allowed.size(), 3u);
    EXPECT_TRUE(opts.diagPolicy.suppressed("src-naked-cout"));
    EXPECT_TRUE(opts.diagPolicy.suppressed("src-wallclock-in-sim"));
    EXPECT_TRUE(opts.diagPolicy.suppressed("src-unordered-iteration"));
}

TEST(SourceLintCli, VariadicPathsCollectInCliOrder)
{
    const CliOptions opts =
        parseCommandOptions(kLintSrc, {"src/sa", "tools", "--werror"});
    ASSERT_EQ(opts.args.size(), 2u);
    EXPECT_EQ(opts.args[0], "src/sa");
    EXPECT_EQ(opts.args[1], "tools");
    EXPECT_TRUE(opts.diagPolicy.werror);
}

using SourceLintCliDeath = ::testing::Test;

TEST(SourceLintCliDeath, UnknownRuleInCommaListIsFatal)
{
    EXPECT_EXIT(parseCommandOptions(kLintSrc,
                                    {"src", "--allow",
                                     "src-naked-cout,src-bogus-rule"}),
                ::testing::ExitedWithCode(1), "unknown rule");
}

TEST(SourceLintCliDeath, EmptyAllowEntryIsFatal)
{
    EXPECT_EXIT(parseCommandOptions(kLintSrc,
                                    {"src", "--allow",
                                     "src-naked-cout,,src-wallclock-in-sim"}),
                ::testing::ExitedWithCode(1), "--allow");
}

TEST(SourceLintCliDeath, BarePathOnNonVariadicCommandIsFatal)
{
    EXPECT_EXIT(parseCommandOptions(kRulesCommand, {"stray-arg"}),
                ::testing::ExitedWithCode(1), "expects no arguments");
}

} // namespace
} // namespace memento
