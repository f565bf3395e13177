/**
 * @file
 * Golden diagnostics for the static-analysis layer. Every rule id in
 * the sa/diag.h registry is triggered by a minimal malformed input —
 * a hand-built op trace for the trace checker, a config snippet for
 * the linter — and the test asserts the exact rule, severity, and
 * location (op index / line number) of the finding. Rendering, --allow
 * suppression, and --werror promotion are exercised on the same
 * reports, including byte-exact text and JSON output.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <string_view>

#include "sa/config_lint.h"
#include "sa/diag.h"
#include "sa/trace_check.h"
#include "sim/config_schema.h"
#include "wl/trace.h"

namespace memento {
namespace {

// ---------------------------------------------------------------------
// Trace-building shorthand.
// ---------------------------------------------------------------------

TraceOp
M(std::uint32_t id, std::uint32_t size)
{
    return {OpKind::Malloc, size, id, 0};
}
TraceOp
F(std::uint32_t id)
{
    return {OpKind::Free, 0, id, 0};
}
TraceOp
L(std::uint32_t id, std::uint32_t off)
{
    return {OpKind::Load, 0, id, off};
}
TraceOp
S(std::uint32_t id, std::uint32_t off)
{
    return {OpKind::Store, 0, id, off};
}
TraceOp
E()
{
    return {OpKind::FunctionEnd, 0, 0, 0};
}

std::string
renderText(const DiagReport &report, const DiagPolicy &policy = {})
{
    std::ostringstream os;
    report.printText(os, policy);
    return os.str();
}

DiagReport
checkOps(const Trace &trace, const TraceCheckPolicy &policy = {})
{
    DiagReport report;
    checkTrace(trace, policy, "trace", report);
    return report;
}

DiagReport
lint(const std::string &text)
{
    DiagReport report;
    std::istringstream in(text);
    lintConfigStream(in, "conf", report);
    return report;
}

void
expectDiag(const DiagReport &report, std::size_t i,
           std::string_view rule, DiagSeverity severity,
           std::uint64_t location)
{
    ASSERT_LT(i, report.diags().size()) << renderText(report);
    const Diag &d = report.diags()[i];
    EXPECT_EQ(d.ruleId, rule) << d.message;
    EXPECT_EQ(d.severity, severity) << d.message;
    EXPECT_EQ(d.location, location) << d.message;
}

/** The report holds exactly one finding, with these golden fields. */
void
expectOnly(const DiagReport &report, std::string_view rule,
           DiagSeverity severity, std::uint64_t location)
{
    ASSERT_EQ(report.diags().size(), 1u) << renderText(report);
    expectDiag(report, 0, rule, severity, location);
}

// ---------------------------------------------------------------------
// Rule registry.
// ---------------------------------------------------------------------

TEST(DiagRegistry, RuleIdsAreUniqueAndFindable)
{
    std::set<std::string_view> seen;
    for (const DiagRule &rule : allDiagRules()) {
        EXPECT_TRUE(seen.insert(rule.id).second)
            << "duplicate rule id " << rule.id;
        EXPECT_EQ(findDiagRule(rule.id), &rule);
        EXPECT_FALSE(rule.summary.empty()) << rule.id;
    }
    EXPECT_EQ(findDiagRule("no-such-rule"), nullptr);
}

// ---------------------------------------------------------------------
// Trace checker goldens: one malformed trace per rule id.
// ---------------------------------------------------------------------

TEST(TraceCheck, CleanTraceHasNoFindings)
{
    const DiagReport r =
        checkOps({M(1, 16), S(1, 0), L(1, 15), F(1), M(2, 256), E()});
    EXPECT_TRUE(r.empty()) << renderText(r);
    EXPECT_TRUE(r.clean());
}

TEST(TraceCheck, DoubleFree)
{
    const DiagReport r = checkOps({M(1, 16), F(1), F(1), E()});
    expectOnly(r, "trace-double-free", DiagSeverity::Error, 2);
    EXPECT_NE(r.diags()[0].message.find("freed at op 1"),
              std::string::npos);
}

TEST(TraceCheck, FreeOfNeverAllocated)
{
    expectOnly(checkOps({F(7), E()}), "trace-free-unallocated",
               DiagSeverity::Error, 0);
}

TEST(TraceCheck, UseAfterFreeOfReusedHandle)
{
    const DiagReport r = checkOps({M(1, 16), F(1), L(1, 0), E()});
    expectOnly(r, "trace-use-after-free", DiagSeverity::Error, 2);
    EXPECT_NE(r.diags()[0].message.find("after free at op 1"),
              std::string::npos);
}

TEST(TraceCheck, FreedHandleReuseIsLegalAndRetires)
{
    // Re-allocating a freed id starts a new object: accesses are fine,
    // and the old free site no longer poisons it.
    const DiagReport r =
        checkOps({M(1, 16), F(1), M(1, 32), L(1, 31), F(1), E()});
    EXPECT_TRUE(r.empty()) << renderText(r);
}

TEST(TraceCheck, UseOfNeverAllocated)
{
    expectOnly(checkOps({S(9, 8), E()}), "trace-use-unallocated",
               DiagSeverity::Error, 0);
}

TEST(TraceCheck, OutOfBoundsAccess)
{
    // Offset 16 on a 16-byte object is one past the end; 15 is fine.
    expectOnly(checkOps({M(1, 16), L(1, 16), F(1), E()}),
               "trace-out-of-bounds", DiagSeverity::Error, 1);
    EXPECT_TRUE(checkOps({M(1, 16), L(1, 15), F(1), E()}).empty());
}

TEST(TraceCheck, DuplicateLiveObjectId)
{
    const DiagReport r = checkOps({M(1, 16), M(1, 32), E()});
    expectOnly(r, "trace-duplicate-id", DiagSeverity::Error, 1);
}

TEST(TraceCheck, SizeClassViolationZeroByte)
{
    expectOnly(checkOps({M(1, 0), E()}), "trace-size-class",
               DiagSeverity::Error, 0);
}

TEST(TraceCheck, SizeClassViolationBeyondRegion)
{
    // Default policy reserves 1 GiB per class; a larger object cannot
    // be routed anywhere.
    expectOnly(checkOps({M(1, (1ull << 30) + 1), E()}),
               "trace-size-class", DiagSeverity::Error, 0);
}

TEST(TraceCheck, ArenaOversubscription)
{
    // Tiny region: one 2-object arena per class, so the third live
    // 8-byte object exceeds the class capacity. Reported once.
    TraceCheckPolicy policy;
    policy.objectsPerArena = 2;
    policy.perClassRegionBytes = 16;
    const DiagReport r =
        checkOps({M(1, 8), M(2, 8), M(3, 8), M(4, 8), E()}, policy);
    expectOnly(r, "trace-arena-oversubscription", DiagSeverity::Error, 2);
    EXPECT_EQ(policy.classCapacity(0), 2u);
}

TEST(TraceCheck, ArenaOccupancyDropsOnFree)
{
    TraceCheckPolicy policy;
    policy.objectsPerArena = 2;
    policy.perClassRegionBytes = 16;
    // Never more than two live at once: churn through six objects.
    const DiagReport r = checkOps({M(1, 8), M(2, 8), F(1), M(3, 8), F(2),
                                   M(4, 8), F(3), F(4), E()},
                                  policy);
    EXPECT_TRUE(r.empty()) << renderText(r);
}

TEST(TraceCheck, OpsAfterFunctionEnd)
{
    const DiagReport r = checkOps({M(1, 16), E(), M(2, 16), E()});
    expectOnly(r, "trace-function-boundary", DiagSeverity::Error, 1);
}

TEST(TraceCheck, TruncatedStream)
{
    expectOnly(checkOps({M(1, 16), F(1)}), "trace-truncated",
               DiagSeverity::Error, 2);
}

TEST(TraceCheck, TruncatedStreamWithLeak)
{
    const DiagReport r = checkOps({M(1, 16), S(1, 0)});
    ASSERT_EQ(r.diags().size(), 2u) << renderText(r);
    expectDiag(r, 0, "trace-truncated", DiagSeverity::Error, 2);
    expectDiag(r, 1, "trace-leak", DiagSeverity::Warning, 0);
    EXPECT_EQ(r.errors(), 1u);
    EXPECT_EQ(r.warnings(), 1u);
}

TEST(TraceCheck, EmptyStream)
{
    expectOnly(checkOps({}), "trace-truncated", DiagSeverity::Error,
               Diag::kNoLocation);
}

TEST(TraceCheck, StreamParseError)
{
    std::istringstream in("M 16 1 0\nbogus record here\n");
    DiagReport r;
    checkTraceStream(in, TraceCheckPolicy{}, "file.trace", r);
    expectOnly(r, "trace-parse", DiagSeverity::Error, 2);
}

TEST(TraceCheck, StreamCleanRoundTrip)
{
    std::istringstream in("M 16 1 0\nL 0 1 8\nF 0 1 0\nE 0 0 0\n");
    DiagReport r;
    checkTraceStream(in, TraceCheckPolicy{}, "file.trace", r);
    EXPECT_TRUE(r.empty()) << renderText(r);
}

TEST(TraceCheck, RecoversAndReportsEveryViolation)
{
    // The checker never stops at the first finding: a double free and
    // a later out-of-bounds access in one stream both surface.
    const DiagReport r =
        checkOps({M(1, 16), F(1), F(1), M(2, 8), L(2, 64), F(2), E()});
    ASSERT_EQ(r.diags().size(), 2u) << renderText(r);
    expectDiag(r, 0, "trace-double-free", DiagSeverity::Error, 2);
    expectDiag(r, 1, "trace-out-of-bounds", DiagSeverity::Error, 4);
}

// ---------------------------------------------------------------------
// Config linter goldens: one bad snippet per rule id.
// ---------------------------------------------------------------------

TEST(ConfigLint, CleanFileHasNoFindings)
{
    const DiagReport r = lint("# comment\n"
                              "memento.enabled = true\n"
                              "memento.bypass = on\n"
                              "dram.size = 2g\n");
    EXPECT_TRUE(r.empty()) << renderText(r);
}

TEST(ConfigLint, MissingEquals)
{
    expectOnly(lint("this is not an assignment\n"), "config-parse",
               DiagSeverity::Error, 1);
}

TEST(ConfigLint, UnknownKeySuggestsNearMiss)
{
    const DiagReport r = lint("core.freq_gz = 3\n");
    expectOnly(r, "config-unknown-key", DiagSeverity::Error, 1);
    EXPECT_NE(r.diags()[0].message.find("did you mean 'core.freq_ghz'"),
              std::string::npos)
        << r.diags()[0].message;
}

TEST(ConfigLint, UnknownKeyWithoutPlausibleSuggestion)
{
    const DiagReport r = lint("zzz.qqq = 1\n");
    expectOnly(r, "config-unknown-key", DiagSeverity::Error, 1);
    EXPECT_EQ(r.diags()[0].message.find("did you mean"),
              std::string::npos)
        << r.diags()[0].message;
}

TEST(ConfigLint, DuplicateKeyWarnsAtLaterLine)
{
    const DiagReport r =
        lint("check.interval = 1\ncheck.interval = 2\n");
    expectOnly(r, "config-duplicate-key", DiagSeverity::Warning, 2);
    EXPECT_NE(r.diags()[0].message.find("overrides line 1"),
              std::string::npos);
}

TEST(ConfigLint, BadValue)
{
    expectOnly(lint("memento.enabled = maybe\n"), "config-bad-value",
               DiagSeverity::Error, 1);
}

TEST(ConfigLint, OutOfRangeValue)
{
    const DiagReport r = lint("core.base_ipc = 900\n");
    expectOnly(r, "config-out-of-range", DiagSeverity::Error, 1);
    EXPECT_NE(r.diags()[0].message.find("out of range"),
              std::string::npos);
    // The arena header's bitmap has 256 bits; more objects per arena
    // would panic at machine construction.
    expectOnly(lint("memento.objects_per_arena = 300\n"),
               "config-out-of-range", DiagSeverity::Error, 1);
}

TEST(ConfigLint, HeapBaseInsideMementoRegion)
{
    const DiagReport r =
        lint("layout.memento_region_start = 0x20000000000\n"
             "layout.heap_base = 0x20000080000\n");
    expectOnly(r, "config-region-overlap", DiagSeverity::Error, 2);
}

TEST(ConfigLint, DisjointLayoutIsClean)
{
    const DiagReport r =
        lint("layout.memento_region_start = 0x20000000000\n"
             "layout.heap_base = 0x30000000000\n");
    EXPECT_TRUE(r.empty()) << renderText(r);
}

TEST(ConfigLint, PymallocArenaOffThePoolSize)
{
    const DiagReport r = lint("# tuning\ntuning.pymalloc_arena = 6000\n");
    expectOnly(r, "config-bad-value", DiagSeverity::Error, 2);
    EXPECT_NE(renderText(r).find("4096 B pool size"), std::string::npos)
        << renderText(r);
    EXPECT_TRUE(lint("tuning.pymalloc_arena = 512k\n").empty());
}

TEST(ConfigLint, JemallocChunkOffTheSlabSize)
{
    const DiagReport r = lint("tuning.jemalloc_chunk = 20480\n");
    expectOnly(r, "config-bad-value", DiagSeverity::Error, 1);
    EXPECT_NE(renderText(r).find("16384 B slab size"), std::string::npos)
        << renderText(r);
    EXPECT_TRUE(lint("tuning.jemalloc_chunk = 32k\n").empty());
}

TEST(ConfigLint, CacheAndTlbGeometryWithoutASet)
{
    // Reported at the later of the level's two keys.
    DiagReport r = lint("tlb.l1_ways = 1024\n");
    expectOnly(r, "config-bad-value", DiagSeverity::Error, 1);
    EXPECT_NE(renderText(r).find("the TLB has no set"), std::string::npos)
        << renderText(r);
    r = lint("l1d.size = 100\n");
    expectOnly(r, "config-bad-value", DiagSeverity::Error, 1);
    EXPECT_NE(renderText(r).find("gives 0 set(s)"), std::string::npos)
        << renderText(r);
    expectOnly(lint("l2.ways = 4\n# 3 sets\nl2.size = 768\n"),
               "config-bad-value", DiagSeverity::Error, 3);
    EXPECT_TRUE(lint("tlb.l1_ways = 64\nl1d.size = 512\n").empty());
}

TEST(ConfigLint, MementoHardwareKeyWhileDisabled)
{
    expectOnly(lint("memento.bypass = true\n"),
               "config-bypass-no-memento", DiagSeverity::Warning, 1);
    EXPECT_TRUE(
        lint("memento.enabled = true\nmemento.bypass = true\n").empty());
    // Every memento.* key but the enable bit itself configures gated
    // hardware ("1" parses, in range, for each of them).
    for (const ConfigKeyInfo &info : configSchema()) {
        const std::string key = info.name;
        if (!key.starts_with("memento.") || key == "memento.enabled")
            continue;
        SCOPED_TRACE(key);
        expectOnly(lint(key + " = 1\n"), "config-bypass-no-memento",
                   DiagSeverity::Warning, 1);
    }
}

TEST(ConfigLint, CheckIntervalBeyondWatchdog)
{
    const DiagReport r =
        lint("check.interval = 200\ncheck.max_ops = 100\n");
    expectOnly(r, "config-check-conflict", DiagSeverity::Warning, 1);
    EXPECT_TRUE(
        lint("check.interval = 50\ncheck.max_ops = 100\n").empty());
}

TEST(ConfigLint, SweepKeyTypoGetsADidYouMean)
{
    const DiagReport r = lint("sweep.cache_dri = /tmp/store\n");
    expectOnly(r, "config-unknown-key", DiagSeverity::Error, 1);
    EXPECT_NE(r.diags()[0].message.find("sweep.cache_dir"),
              std::string::npos)
        << r.diags()[0].message;
    // The sharding and retry keys are gone from the schema.
    for (const char *gone : {"sweep.shard_index = 0\n",
                             "sweep.shard_count = 2\n", "sweep.retry = 1\n"})
        expectOnly(lint(gone), "config-unknown-key", DiagSeverity::Error, 1);
}

// ---------------------------------------------------------------------
// Policy: suppression, promotion, rendering.
// ---------------------------------------------------------------------

TEST(DiagPolicy, AllowSuppressesRule)
{
    const DiagReport r = checkOps({M(1, 16), F(1), F(1), E()});
    DiagPolicy policy;
    policy.allowed.insert("trace-double-free");
    EXPECT_EQ(r.errors(policy), 0u);
    EXPECT_TRUE(r.clean(policy));
    EXPECT_EQ(renderText(r, policy), "");
}

TEST(DiagPolicy, WerrorPromotesWarnings)
{
    const DiagReport r = checkOps({M(1, 16)}); // truncated + leak
    DiagPolicy werror;
    werror.werror = true;
    EXPECT_EQ(r.errors(), 1u);
    EXPECT_EQ(r.warnings(), 1u);
    EXPECT_EQ(r.errors(werror), 2u);
    EXPECT_EQ(r.warnings(werror), 0u);
    EXPECT_FALSE(r.clean(werror));
    EXPECT_NE(renderText(r, werror).find("error: 1 object(s) still"),
              std::string::npos);
}

TEST(DiagRender, GoldenTextLine)
{
    const DiagReport r = checkOps({M(1, 16), F(1), F(1), E()});
    EXPECT_EQ(renderText(r),
              "trace:2: error: double free of object 1 (freed at op 1) "
              "[trace-double-free]\n");
}

TEST(DiagRender, GoldenJson)
{
    const DiagReport r = checkOps({M(1, 16), F(1), F(1), E()});
    std::ostringstream os;
    r.printJson(os);
    EXPECT_EQ(os.str(),
              "{\n"
              "  \"schema_version\": 1,\n"
              "  \"kind\": \"diagnostics\",\n"
              "  \"findings\": [\n"
              "    {\n"
              "      \"rule\": \"trace-double-free\",\n"
              "      \"severity\": \"error\",\n"
              "      \"subject\": \"trace\",\n"
              "      \"location\": 2,\n"
              "      \"message\": \"double free of object 1 (freed at "
              "op 1)\"\n"
              "    }\n"
              "  ],\n"
              "  \"errors\": 1,\n"
              "  \"warnings\": 0,\n"
              "  \"notes\": 0\n"
              "}");
}

TEST(DiagRender, EmptyJsonHasEmptyFindings)
{
    DiagReport r;
    std::ostringstream os;
    r.printJson(os);
    EXPECT_NE(os.str().find("\"findings\": []"), std::string::npos);
    EXPECT_NE(os.str().find("\"schema_version\": 1"), std::string::npos);
    EXPECT_NE(os.str().find("\"errors\": 0"), std::string::npos);
}

TEST(DiagRender, JsonEscapesSpecialCharacters)
{
    DiagReport r;
    r.add("config-parse", "a\"b\\c", 1, "tab\there");
    std::ostringstream os;
    r.printJson(os);
    EXPECT_NE(os.str().find("a\\\"b\\\\c"), std::string::npos);
    EXPECT_NE(os.str().find("tab\\there"), std::string::npos);
}

} // namespace
} // namespace memento
