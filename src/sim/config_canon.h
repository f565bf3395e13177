/**
 * @file
 * Canonical serialization of a MachineConfig, for content addressing.
 *
 * The result store keys every sweep cell by an FNV-1a digest of
 * (workload id, canonical config text, run options, code version), so
 * the canonical text must satisfy two properties:
 *
 *  - *Complete over results*: every configuration field that can
 *    change a run's outcome appears, in a fixed order with a fixed
 *    rendering. Adding a result-affecting field to MachineConfig and
 *    not here silently aliases distinct cells — the CanonCoversConfig
 *    test guards this with a sizeof tripwire.
 *  - *Silent over policy*: fields that steer the sweep *around* the
 *    cells without changing any cell's result — the sweep.* execution
 *    policy (cache dir, keep-going) and the store-level crash faults
 *    (inject.store_*) — are excluded, so a resumed sweep hits the
 *    cells its predecessor wrote.
 *
 * Doubles render with %.17g (exact binary round-trip); addresses in
 * hex; everything else in decimal. The text is stable across
 * platforms and runs by construction.
 */

#ifndef MEMENTO_SIM_CONFIG_CANON_H
#define MEMENTO_SIM_CONFIG_CANON_H

#include <string>

#include "sim/config.h"

namespace memento {

/** The canonical `key=value` text of @p cfg (see file comment). */
std::string canonicalConfigText(const MachineConfig &cfg);

/**
 * The code version cache keys incorporate: "src-" and 16 hex digits of
 * a SHA-256 over every .h and .cc file of the library, generated at
 * build time (src/code_version.cmake). Any source edit changes it; the
 * working directory and the git state do not.
 */
const std::string &codeVersionString();

} // namespace memento

#endif // MEMENTO_SIM_CONFIG_CANON_H
