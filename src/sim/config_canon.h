/**
 * @file
 * Canonical serialization of a MachineConfig, for content addressing.
 *
 * The result store keys every sweep cell by an FNV-1a digest of
 * (workload id, canonical config text, run options, code version), so
 * the canonical text must satisfy two properties:
 *
 *  - *Complete over results*: every value that can change a run's
 *    outcome is covered. The text is rendered from the schema
 *    (sim/config_schema.h), one `key=value` line per key in key order,
 *    and every MachineConfig field is set by exactly one schema entry,
 *    so a new key is in the text without an edit here. A model
 *    parameter that no key sets is a named constant in the source
 *    (the TLB latencies, the DRAM row size, the size classes, ...);
 *    only a source edit can change it, and any source edit changes the
 *    code version, which is also in the key.
 *  - *Silent over policy*: keys that steer the sweep *around* the cells
 *    without changing any cell's result — the sweep.* execution policy
 *    (cache dir, keep-going) and the store-level crash faults
 *    (inject.store_*) — are left out, so a resumed sweep hits the cells
 *    its predecessor wrote. So are the fleet.* keys: a workload's
 *    per-invocation profile does not depend on the fleet built on top
 *    of it, and those keys feed the fleet digest instead
 *    (fleetCanonicalText in fleet/fleet.h). Which key goes where is
 *    ConfigKeyInfo::scope, decided in one place in the schema.
 *
 * Integers render in decimal, doubles with %.17g (exact binary
 * round-trip), booleans as 1/0 and strings verbatim. The text is
 * stable across platforms and runs by construction.
 */

#ifndef MEMENTO_SIM_CONFIG_CANON_H
#define MEMENTO_SIM_CONFIG_CANON_H

#include <string>

#include "sim/config.h"
#include "sim/config_schema.h"

namespace memento {

/**
 * The canonical `key=value` text of @p cfg over the keys of @p scope
 * (see file comment); the default is the result-store cell key's text.
 */
std::string canonicalConfigText(const MachineConfig &cfg,
                                ConfigScope scope = ConfigScope::Cell);

/**
 * The code version cache keys incorporate: "src-" and 16 hex digits of
 * a SHA-256 over every .h and .cc file of the library, generated at
 * build time (src/code_version.cmake). Any source edit changes it; the
 * working directory and the git state do not.
 */
const std::string &codeVersionString();

} // namespace memento

#endif // MEMENTO_SIM_CONFIG_CANON_H
