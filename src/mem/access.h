/**
 * @file
 * Shared request/result types for the simulated memory hierarchy.
 */

#ifndef MEMENTO_MEM_ACCESS_H
#define MEMENTO_MEM_ACCESS_H

#include "sim/types.h"

namespace memento {

/** Kind of memory reference presented to the hierarchy. */
enum class AccessType {
    Read,
    Write,
    Fetch, ///< Instruction fetch (routed to the L1I).
};

/** Side-band attributes of a reference. */
struct AccessAttrs
{
    /**
     * The line belongs to a freshly allocated Memento object that has
     * never been touched: on a full cache miss it may be instantiated
     * zero-filled at the LLC instead of being read from DRAM (§3.3).
     */
    bool bypassCandidate = false;
};

/** Outcome of one hierarchy access. */
struct AccessResult
{
    /** Critical-path latency of the access. */
    Cycles latency = 0;
};

} // namespace memento

#endif // MEMENTO_MEM_ACCESS_H
