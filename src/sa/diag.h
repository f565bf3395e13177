/**
 * @file
 * Shared diagnostic engine for the static-analysis layer.
 *
 * All sa/ analyzers — the trace checker, the config linter, and the
 * source linter (lint-src) — report through this engine: every finding
 * names a registered rule (stable
 * string id, fixed severity, one-line summary), a subject (workload id
 * or file path), a location (trace op index or config line), and a
 * message. Reports render as sanitizer-style text
 *
 *     aes:1234: error: double free of object 42 (freed at op 1200)
 *         [trace-double-free]
 *
 * or as a versioned JSON document (sim/json.h envelope, kind
 * "diagnostics"), and a DiagPolicy applies `--allow RULE`
 * suppression and `--werror` warning promotion uniformly at render and
 * count time, so suppression never has to be re-implemented per
 * analyzer.
 *
 * Diagnostics are value types appended in analysis order; rendering
 * never reorders them, which is what makes `check all` output
 * byte-identical at any worker count once per-subject reports are
 * merged in subject order.
 */

#ifndef MEMENTO_SA_DIAG_H
#define MEMENTO_SA_DIAG_H

#include <cstdint>
#include <iosfwd>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace memento {

/** Severity of a rule (fixed per rule; --werror promotes at render). */
enum class DiagSeverity : std::uint8_t { Warning, Error };

/** Display name: "warning", "error". */
std::string_view severityName(DiagSeverity severity);

/** One registered analysis rule. */
struct DiagRule
{
    std::string_view id;      ///< Stable slug, e.g. "trace-double-free".
    DiagSeverity severity;
    std::string_view summary; ///< One-liner for the rule table / docs.
};

/** Every rule both analyzers can emit, in rule-table order. */
const std::vector<DiagRule> &allDiagRules();

/** Registry lookup; nullptr when @p id is not a rule. */
const DiagRule *findDiagRule(std::string_view id);

/** One finding. */
struct Diag
{
    /** Sentinel for "no op index / line number". */
    static constexpr std::uint64_t kNoLocation = ~0ull;

    std::string_view ruleId;
    DiagSeverity severity;      ///< The rule's registered severity.
    std::string subject;        ///< Workload id or config file path.
    std::uint64_t location = kNoLocation; ///< Op index or line number.
    std::string message;

    bool hasLocation() const { return location != kNoLocation; }
};

/** Suppression / promotion policy (--allow RULE, --werror). */
struct DiagPolicy
{
    /** Rule ids whose findings are dropped entirely. */
    std::set<std::string, std::less<>> allowed;
    /** Report warnings as errors (exit status and rendering). */
    bool werror = false;

    bool suppressed(std::string_view rule_id) const;
    /** Severity after promotion (Warning -> Error under werror). */
    DiagSeverity effective(DiagSeverity severity) const;
};

/** An ordered collection of findings. */
class DiagReport
{
  public:
    /**
     * Append a finding for the registered rule @p rule_id (severity
     * comes from the registry; unknown ids are a programming error and
     * panic).
     */
    void add(std::string_view rule_id, std::string subject,
             std::uint64_t location, std::string message);

    /** Append every finding of @p other, preserving order. */
    void append(const DiagReport &other);

    const std::vector<Diag> &diags() const { return diags_; }
    bool empty() const { return diags_.empty(); }

    /** Finding counts under @p policy (suppression + promotion). */
    std::size_t errors(const DiagPolicy &policy = {}) const;
    std::size_t warnings(const DiagPolicy &policy = {}) const;

    /** True when @p policy leaves no errors (the exit-0 criterion). */
    bool clean(const DiagPolicy &policy = {}) const;

    /** One text line per non-suppressed finding, in order. */
    void printText(std::ostream &os, const DiagPolicy &policy = {}) const;

    /**
     * The report as a versioned JSON document: the sim/json.h envelope
     * ("schema_version", "kind": "diagnostics"), a "findings" array of
     * objects with stable key order (rule, severity, subject,
     * location, message), and "errors"/"warnings" totals. Suppressed
     * findings are omitted and promoted severities are rendered.
     */
    void printJson(std::ostream &os, const DiagPolicy &policy = {}) const;

  private:
    std::vector<Diag> diags_;
};

} // namespace memento

#endif // MEMENTO_SA_DIAG_H
