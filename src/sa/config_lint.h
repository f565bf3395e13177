/**
 * @file
 * Static config linter: validates `key = value` files (the
 * sim/config_file.h format) against the declarative schema in
 * sim/config_schema.h without constructing a machine.
 *
 * Per-line rules: config-parse (not an assignment), config-unknown-key
 * (with an edit-distance "did you mean" suggestion), config-bad-value,
 * config-out-of-range, config-duplicate-key (explicit
 * last-value-wins). Cross-key rules evaluated on the effective
 * configuration after the whole file is read: config-region-overlap
 * (MRS/MRE inversion or overlap with the heap), config-bad-value for a
 * tuning.pymalloc_arena or tuning.jemalloc_chunk that is not a multiple
 * of the model's pool or slab size, config-bypass-no-memento (memento.*
 * hardware keys set while memento.enabled stays off), and
 * config-check-conflict (check.interval beyond the check.max_ops
 * watchdog budget).
 *
 * The linter never throws and reports every finding with its 1-based
 * line number; lint order is line order, then cross-key order, so
 * output is deterministic.
 */

#ifndef MEMENTO_SA_CONFIG_LINT_H
#define MEMENTO_SA_CONFIG_LINT_H

#include <iosfwd>
#include <string>

#include "sa/diag.h"

namespace memento {

/** Lint @p is, tagging findings with @p subject (the file name). */
void lintConfigStream(std::istream &is, const std::string &subject,
                      DiagReport &report);

/**
 * lintConfigStream() over the file at @p path; an unreadable file is a
 * config-parse diagnostic, not an exception.
 */
void lintConfigFile(const std::string &path, DiagReport &report);

} // namespace memento

#endif // MEMENTO_SA_CONFIG_LINT_H
