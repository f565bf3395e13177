/**
 * @file
 * Determinism source analyzer (`memento_sim lint-src`).
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
 *   src-unordered-iteration        any std::unordered_{map,set,multimap,
 *                                  multiset} in code: hash order is
 *                                  implementation-defined, so anything a
 *                                  walk feeds (stdout, digests, the
 *                                  result store, simulated access order)
 *                                  silently loses portability. A ban,
 *                                  with no declaration index: use
 *                                  AddrMap or an ordered container.
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
 *   src-fatal-in-library           fatal()/abort()/exit() in model-layer
 *                                  code (hw/ mem/ os/ rt/ machine/) that
 *                                  must raise recoverable SimError.
 *   src-float-accumulation-in-digest  a float/double expression fed to a
 *                                  DigestBuilder: FNV-1a inputs must be
 *                                  integers or the digest depends on FP
 *                                  rounding mode and summation order.
 *
 * Findings report through the shared DiagEngine (sa/diag.h), so
 * --allow, --werror, and --json (kind "diagnostics") work unchanged.
 *
 * An inline comment `lint-src: allow(rule-id)` on the same physical
 * line as a finding suppresses it, for a pattern a lexical pass cannot
 * prove safe. CI rejects any allow of src-unordered-iteration in the
 * shipped tree.
 */

#ifndef MEMENTO_SA_SOURCE_LINT_H
#define MEMENTO_SA_SOURCE_LINT_H

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "sa/diag.h"

namespace memento {

/**
 * Lint the translation unit @p text on its own. @p subject tags the
 * findings (and drives the path-scoped rules: e.g. naked stream writes
 * are exempt under `sim/logging` and `tools/`). Findings append in
 * line order; the function never throws.
 */
void lintSourceText(std::string_view text, const std::string &subject,
                    DiagReport &report);

/**
 * The whole `lint-src` pipeline: collect the .h/.cc files under
 * @p paths (a file argument is taken verbatim; a file reached through
 * two arguments is linted once) and lint them one at a time in sorted
 * path order. A missing or unreadable path is a user error and
 * fatal()s. Returns the number of files linted.
 */
std::size_t lintSourcePaths(const std::vector<std::string> &paths,
                            DiagReport &report);

} // namespace memento

#endif // MEMENTO_SA_SOURCE_LINT_H
