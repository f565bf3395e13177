/**
 * @file
 * Determinism & thread-safety source analyzer (`memento_sim lint-src`).
 *
 * A repo-aware C++ lint pass over this code base's own sources: a
 * lightweight comment/string-aware tokenizer (no libclang dependency)
 * feeds a registry of rules that encode the project's determinism
 * contract — `run` / `compare` / `check` / `fleet` output must be
 * byte-identical at any --jobs level and across result-store resumes —
 * at the *source* level, where the TSan job and the differential TEST_P
 * suites can only catch violations dynamically and after the fact.
 *
 * The rule catalog (all ids registered in sa/diag.h):
 *
 *   src-unordered-iteration        range-for / .begin() iteration over a
 *                                  std::unordered_{map,set} variable:
 *                                  hash order is implementation-defined,
 *                                  so anything it feeds (stdout, digests,
 *                                  the result store, simulated access
 *                                  order) silently loses portability.
 *   src-pointer-key-order          std::map/std::set keyed by a raw
 *                                  pointer: iteration order is the
 *                                  allocator's address order, different
 *                                  every run.
 *   src-unseeded-random            rand()/srand()/std::random_device/
 *                                  std::random_shuffle outside the seeded
 *                                  RNG layer (sim/rng, wl/, fleet/arrivals).
 *   src-wallclock-in-sim           time()/std::chrono::system_clock/
 *                                  gettimeofday/localtime in simulation
 *                                  or digest code (perfbench/ self-timing
 *                                  via steady_clock is not flagged).
 *   src-naked-cout                 std::cout/std::cerr/printf writes
 *                                  outside the serialized logging layer
 *                                  (sim/logging) and the CLI front end.
 *   src-mutex-unannotated          a class declares a std::mutex but a
 *                                  sibling data member carries neither
 *                                  MEMENTO_GUARDED_BY nor
 *                                  MEMENTO_READONLY_AFTER_INIT (see
 *                                  sim/thread_annotations.h).
 *   src-fatal-in-library           fatal()/abort()/exit() in model-layer
 *                                  code (hw/ mem/ os/ rt/ machine/) that
 *                                  must raise recoverable SimError.
 *   src-float-accumulation-in-digest  a float/double expression fed to a
 *                                  DigestBuilder: FNV-1a inputs must be
 *                                  integers or the digest depends on FP
 *                                  rounding mode and summation order.
 *   src-include-cycle              `#include "..."` cycle among the
 *                                  scanned files.
 *   src-todo-without-issue         TODO/FIXME/XXX comment with no issue
 *                                  reference (`TODO(#123)` / `ISSUE-42`).
 *
 * Findings report through the shared DiagEngine (sa/diag.h), so
 * --allow, --werror, and --json (kind "diagnostics") work unchanged.
 *
 * An inline comment `lint-src: allow(rule-id)` on the same physical
 * line as a finding suppresses it — used for the handful of benign
 * patterns a lexical pass cannot prove safe (collect-keys-then-sort,
 * min_element by a unique projection).
 *
 * lintSourcePaths() walks the given files/directories, lints every
 * .h/.cc in sorted path order through machine/sweep.h's parallelFor,
 * and merges per-file reports in that order, then appends cross-file
 * include-cycle findings — byte-identical output at any --jobs level,
 * the same contract as `check all`.
 */

#ifndef MEMENTO_SA_SOURCE_LINT_H
#define MEMENTO_SA_SOURCE_LINT_H

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sa/diag.h"

namespace memento {

/** One `#include "..."` edge out of a scanned file. */
struct IncludeEdge
{
    std::string target; ///< Quoted include path, verbatim.
    unsigned line = 0;  ///< 1-based line of the directive.
};

/** Per-file scan byproducts needed by the cross-file passes. */
struct SourceScan
{
    /** Path key the include graph knows this file by (see below). */
    std::string key;
    std::vector<IncludeEdge> includes;
};

/**
 * Lint the translation unit @p text. @p subject tags the findings (and
 * drives the path-scoped rules: e.g. naked stream writes are exempt
 * under `sim/logging` and `tools/`). When @p scan is non-null it is
 * filled with this file's include edges for findIncludeCycles().
 * Findings append in line order; the function never throws.
 */
void lintSourceText(std::string_view text, const std::string &subject,
                    DiagReport &report, SourceScan *scan = nullptr);

/** lintSourceText() over the file at @p path (with @p key as the
 * include-graph key). An unreadable path is a user error and
 * fatal()s, matching the CLI's input-validation convention. */
void lintSourceFile(const std::string &path, const std::string &key,
                    DiagReport &report, SourceScan *scan = nullptr);

/**
 * Cross-file pass: detect `#include "..."` cycles among the scanned
 * files. Each cycle is reported exactly once, anchored at its
 * lexicographically smallest member, in sorted order — deterministic
 * regardless of scan parallelism. Includes that leave the scanned set
 * are ignored.
 */
void findIncludeCycles(const std::vector<SourceScan> &scans,
                       DiagReport &report);

/**
 * Recursively collect the .h/.cc files under each of @p paths (a file
 * argument is taken verbatim), returning (path, include-key) pairs in
 * sorted path order. The include key is the path relative to the
 * argument root that found it, which is how this repo spells includes
 * (`#include "machine/sweep.h"` relative to `src/`).
 */
std::vector<std::pair<std::string, std::string>>
collectSourceFiles(const std::vector<std::string> &paths);

/**
 * The whole `lint-src` pipeline: collect, lint each file via
 * parallelFor(@p jobs), merge per-file reports in sorted path order,
 * then append include-cycle findings. Byte-identical at any @p jobs.
 * Returns the number of files linted.
 */
std::size_t lintSourcePaths(const std::vector<std::string> &paths,
                            unsigned jobs, DiagReport &report);

} // namespace memento

#endif // MEMENTO_SA_SOURCE_LINT_H
