/**
 * @file
 * Allocation-trace operation stream.
 *
 * Workloads are abstract operation streams: compute bursts, loads and
 * stores addressed by object id + offset, mallocs and frees, and a
 * function-end marker. The same stream is replayed against the baseline
 * and the Memento machine so comparisons are exactly paired. Traces can
 * be serialized to a simple line-oriented text format for
 * record/replay.
 */

#ifndef MEMENTO_WL_TRACE_H
#define MEMENTO_WL_TRACE_H

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "sim/types.h"

namespace memento {

/** Trace operation kinds. */
enum class OpKind : std::uint8_t {
    Compute,     ///< Retire `value` application instructions.
    Load,        ///< Read object `objId` at byte `offset`.
    Store,       ///< Write object `objId` at byte `offset`.
    Malloc,      ///< Allocate `value` bytes as object `objId`.
    Free,        ///< Release object `objId`.
    StaticLoad,  ///< Read the static working set at byte `offset`.
    StaticStore, ///< Write the static working set at byte `offset`.
    FunctionEnd, ///< Function completes; batch-free everything live.
};

/**
 * One operation, packed into 16 bytes: a sweep keeps every workload's
 * stream resident, so the op width sets the simulator's peak memory.
 * The three operands are 32 bits wide, and the text format carries the
 * same limit (see kTraceFieldMax).
 */
struct TraceOp
{
    OpKind kind = OpKind::Compute;
    std::uint32_t value = 0;  ///< Instructions (Compute) or size (Malloc).
    std::uint32_t objId = 0;  ///< Object identity for Malloc/Free/L/S.
    std::uint32_t offset = 0; ///< Byte offset for Load/Store/Static*.

    bool operator==(const TraceOp &) const = default;
};
static_assert(sizeof(TraceOp) == 16, "TraceOp must stay packed");

/** Largest value any TraceOp field (and any text-format field) holds. */
inline constexpr std::uint64_t kTraceFieldMax =
    std::numeric_limits<decltype(TraceOp::value)>::max();

/**
 * The object id an injected corrupt record frees (inject.trace_corrupt_at).
 * Generated traces never allocate it: their ids count up from 1 and
 * the generator refuses to reach it.
 */
inline constexpr std::uint32_t kCorruptObjId = 1u << 31;

/** A full operation stream. */
using Trace = std::vector<TraceOp>;

/** Write @p trace to @p os in the text format. */
void writeTrace(const Trace &trace, std::ostream &os);

/**
 * Parse a trace written by writeTrace(). Throws SimError(Trace) on
 * malformed input, including a negative field or one above
 * kTraceFieldMax (a user error, not a simulator bug), so a sweep can
 * skip the bad trace and continue.
 */
Trace readTrace(std::istream &is);

/**
 * Parse records only, without readTrace()'s completeness check (a
 * recorded invocation must end in FunctionEnd). The static trace
 * checker uses this so a truncated file is diagnosed with proper rule
 * ids instead of rejected at parse time. Unparseable lines throw
 * SimError(Trace) carrying the 1-based line number in opIndex().
 */
Trace readTraceOps(std::istream &is);

/** Count operations of @p kind in @p trace. */
std::uint64_t countOps(const Trace &trace, OpKind kind);

} // namespace memento

#endif // MEMENTO_WL_TRACE_H
