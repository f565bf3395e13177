/**
 * @file
 * Static trace checker: an abstract interpreter that replays an
 * operation trace over *shadow allocation state only* — no caches, no
 * DRAM, no cycle ledger — and reports every memory-discipline
 * violation the full simulator would trip over mid-run, before any
 * cycle-accurate machinery is spun up.
 *
 * The shadow state is the sanitizer view of the heap: which object ids
 * are live (with size and allocation site), which were freed (with the
 * free site, for double-free / use-after-free messages), and how many
 * live objects each Memento size class holds (for the paper's
 * arena-discipline rules). One forward pass over the trace costs
 * O(ops) with O(live objects) memory — roughly two orders of magnitude
 * cheaper than `run` — which is what lets CI and the fuzz corpus vet
 * every input without paying simulation cost.
 *
 * Detected rules (see sa/diag.h for the registry):
 *   trace-double-free, trace-free-unallocated, trace-use-after-free,
 *   trace-use-unallocated, trace-out-of-bounds, trace-duplicate-id,
 *   trace-size-class, trace-arena-oversubscription,
 *   trace-function-boundary, trace-truncated, trace-leak, trace-parse.
 *
 * The checker never throws and never stops at the first finding: it
 * reports every violation with the exact op index, recovering with the
 * same state transition the dynamic executor would have applied.
 */

#ifndef MEMENTO_SA_TRACE_CHECK_H
#define MEMENTO_SA_TRACE_CHECK_H

#include <cstdint>
#include <iosfwd>
#include <string>

#include "sa/diag.h"
#include "sim/config.h"
#include "wl/trace.h"

namespace memento {

/**
 * The admission rules the checker enforces, lifted from the machine
 * configuration (paper defaults: 256 objects per arena, 1 GiB of region
 * per class); the size classes are sim/size_class.h's.
 */
struct TraceCheckPolicy
{
    /** Objects per arena. */
    unsigned objectsPerArena = 256;
    /** Memento region bytes reserved per size class. */
    std::uint64_t perClassRegionBytes = 1ull << 30;

    static TraceCheckPolicy fromConfig(const MachineConfig &cfg);

    /**
     * Maximum live objects of size class @p cls: the number of arenas
     * the class region can hold (at least one) times the objects per
     * arena. Beyond this the hardware has no arena to place the next
     * object in — the over-subscription rule.
     */
    std::uint64_t classCapacity(unsigned cls) const;
};

/**
 * Abstract-interpret @p trace and append one diagnostic per violation
 * to @p report, each tagged with @p subject and the offending op
 * index. Never throws.
 */
void checkTrace(const Trace &trace, const TraceCheckPolicy &policy,
                const std::string &subject, DiagReport &report);

/**
 * readTrace() + checkTrace(): parse failures become trace-parse
 * diagnostics (with the offending line when the parser reports one)
 * instead of exceptions, so `check --trace FILE` diagnoses malformed
 * files uniformly.
 */
void checkTraceStream(std::istream &is, const TraceCheckPolicy &policy,
                      const std::string &subject, DiagReport &report);

/**
 * Apply @p plan's trace corruptions (truncation, record corruption) to
 * a copy of @p trace, with exactly the semantics FunctionExecutor::run
 * applies mid-simulation, when the plan targets @p workload_id. Lets
 * `check` flag statically every trace fault the dynamic invariant
 * checker would catch (the differential-testing contract); machine
 * faults (pool exhaustion, mmap failure, arena bit flips) have no
 * trace image and remain dynamic-only.
 */
Trace applyTraceFaultPlan(const Trace &trace, const FaultPlan &plan,
                          const std::string &workload_id);

} // namespace memento

#endif // MEMENTO_SA_TRACE_CHECK_H
