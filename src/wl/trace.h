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

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "sim/logging.h"
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
 * One operation, decoded: the view every reader works with. A field
 * the op's kind does not use is 0 (see unusedFieldsAreZero()). The
 * three operands are 32 bits wide, and the text format carries the
 * same limit (see kTraceFieldMax). A Trace does not store this struct;
 * it stores each op in 9 bytes (see Trace).
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

/** The record an injected corruption replaces op N with. */
inline constexpr TraceOp kCorruptOp{OpKind::Free, 0, kCorruptObjId, 0};

/** The bit of @p kind in the per-field kind sets below. */
constexpr unsigned
opKindBit(OpKind kind)
{
    return 1u << static_cast<unsigned>(kind);
}

/** Kinds that use `value`, `objId` and `offset`, as opKindBit() sets. */
inline constexpr unsigned kValueKinds =
    opKindBit(OpKind::Compute) | opKindBit(OpKind::Malloc);
inline constexpr unsigned kObjIdKinds =
    opKindBit(OpKind::Load) | opKindBit(OpKind::Store) |
    opKindBit(OpKind::Malloc) | opKindBit(OpKind::Free);
inline constexpr unsigned kOffsetKinds =
    opKindBit(OpKind::Load) | opKindBit(OpKind::Store) |
    opKindBit(OpKind::StaticLoad) | opKindBit(OpKind::StaticStore);
static_assert((kValueKinds & kOffsetKinds) == 0,
              "value and offset share a Trace payload half");

/**
 * True when @p op has a valid kind and every field its kind does not
 * use is 0: the only ops a Trace can store without dropping a field.
 */
constexpr bool
unusedFieldsAreZero(const TraceOp &op)
{
    if (op.kind > OpKind::FunctionEnd)
        return false;
    const unsigned bit = opKindBit(op.kind);
    return ((kValueKinds & bit) != 0 || op.value == 0) &&
           ((kObjIdKinds & bit) != 0 || op.objId == 0) &&
           ((kOffsetKinds & bit) != 0 || op.offset == 0);
}

/**
 * A full operation stream, stored as 9 bytes per op: a sweep keeps
 * every workload's stream resident, so the op width sets the
 * simulator's peak memory. Each op is its kind byte plus one 64-bit
 * payload holding the (at most two) fields the kind uses at full
 * width: `objId` in the high half, and `value` or `offset` (no kind
 * uses both) in the low half. Reads decode a TraceOp by value.
 */
class Trace
{
  public:
    /** Decodes ops in order; dereferencing yields a TraceOp by value. */
    class const_iterator
    {
      public:
        using iterator_category = std::input_iterator_tag;
        using value_type = TraceOp;
        using difference_type = std::ptrdiff_t;
        using pointer = void;
        using reference = TraceOp;

        const_iterator(const Trace &trace, std::size_t i)
            : trace_(&trace), i_(i)
        {
        }
        TraceOp operator*() const { return (*trace_)[i_]; }
        const_iterator &
        operator++()
        {
            ++i_;
            return *this;
        }
        bool operator==(const const_iterator &) const = default;

      private:
        const Trace *trace_;
        std::size_t i_;
    };

    Trace() = default;
    Trace(std::initializer_list<TraceOp> ops)
    {
        reserve(ops.size());
        for (const TraceOp &op : ops)
            push_back(op);
    }

    std::size_t size() const { return kinds_.size(); }
    bool empty() const { return kinds_.empty(); }
    void
    reserve(std::size_t n)
    {
        kinds_.reserve(n);
        payloads_.reserve(n);
    }
    /** Shrink, or grow with `Compute 0` ops (a default TraceOp). */
    void
    resize(std::size_t n)
    {
        kinds_.resize(n, OpKind::Compute);
        payloads_.resize(n, 0);
    }

    /** Append @p op; panics when a field its kind does not use is set. */
    void
    push_back(const TraceOp &op)
    {
        const std::uint64_t payload = encode(op);
        kinds_.push_back(op.kind);
        payloads_.push_back(payload);
    }
    void
    pop_back()
    {
        kinds_.pop_back();
        payloads_.pop_back();
    }
    /** Replace op @p i (fault injection); checked like push_back(). */
    void
    set(std::size_t i, const TraceOp &op)
    {
        payloads_[i] = encode(op);
        kinds_[i] = op.kind;
    }

    TraceOp
    operator[](std::size_t i) const
    {
        return decode(kinds_[i], payloads_[i]);
    }
    TraceOp back() const { return (*this)[size() - 1]; }
    const_iterator begin() const { return {*this, 0}; }
    const_iterator end() const { return {*this, size()}; }

    bool operator==(const Trace &) const = default;

    /** Stored bytes per op: the kind byte plus the payload. */
    static constexpr std::size_t kBytesPerOp =
        sizeof(OpKind) + sizeof(std::uint64_t);

  private:
    static std::uint64_t
    encode(const TraceOp &op)
    {
        panic_if(!unusedFieldsAreZero(op), "trace: op kind ",
                 static_cast<unsigned>(op.kind),
                 " sets a field it does not use (value ", op.value,
                 ", objId ", op.objId, ", offset ", op.offset, ")");
        return (std::uint64_t{op.objId} << 32) | op.value | op.offset;
    }

    /**
     * The low half is `value` for the kinds that use it and `offset`
     * otherwise (0 for kinds that use neither), so one mask splits it
     * without a branch.
     */
    static TraceOp
    decode(OpKind kind, std::uint64_t payload)
    {
        const auto low = static_cast<std::uint32_t>(payload);
        const std::uint32_t value_mask =
            0u - ((kValueKinds >> static_cast<unsigned>(kind)) & 1u);
        return {kind, low & value_mask,
                static_cast<std::uint32_t>(payload >> 32),
                low & ~value_mask};
    }

    std::vector<OpKind> kinds_;
    std::vector<std::uint64_t> payloads_;
};
static_assert(Trace::kBytesPerOp == 9, "a stored op must stay 9 bytes");

/** Write @p trace to @p os in the text format. */
void writeTrace(const Trace &trace, std::ostream &os);

/**
 * Parse a trace written by writeTrace(). Throws SimError(Trace) on
 * malformed input, including a negative field, one above
 * kTraceFieldMax, or a nonzero field the op's kind does not use (a
 * user error, not a simulator bug), so a sweep can skip the bad trace
 * and continue.
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
