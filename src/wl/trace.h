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
 * it stores each op in one 32-bit word (see Trace).
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
              "value and offset share a Trace payload field");

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
 * A full operation stream, stored as one 32-bit word per op: a sweep
 * keeps every workload's stream resident, so the op width sets the
 * simulator's peak memory. A word is the op's kind in its top 3 bits
 * and a 29-bit payload holding the fields the kind uses:
 *
 *   Compute                   value
 *   Load, Store               objId (18 bits), offset (11 bits)
 *   Malloc                    objId (18 bits), value (11 bits)
 *   Free                      objId
 *   StaticLoad, StaticStore   offset
 *   FunctionEnd               0, or an escape (below)
 *
 * An op whose fields do not fit (an access at offset >= 2 KiB, a
 * malloc of >= 2 KiB; about 0.13% of the paper traces' ops) is stored
 * whole in a side table, and its word is an escape: kind FunctionEnd
 * with payload p != 0 stands for side table entry p - 1. Reads decode
 * a TraceOp by value.
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

    std::size_t size() const { return words_.size(); }
    bool empty() const { return words_.empty(); }
    void reserve(std::size_t n) { words_.reserve(n); }
    /** Shrink, or grow with `Compute 0` ops (a default TraceOp). */
    void
    resize(std::size_t n)
    {
        while (size() > n)
            pop_back();
        words_.resize(n, 0);
    }

    /** Append @p op; panics when a field its kind does not use is set. */
    void
    push_back(const TraceOp &op)
    {
        std::uint32_t word;
        if (!encode(op, word))
            word = escape(op);
        words_.push_back(word);
    }
    /** Drop the last op, and its side table entry if it is the last. */
    void
    pop_back()
    {
        if (!side_.empty() && words_.back() == kEscapeBase + side_.size())
            side_.pop_back();
        words_.pop_back();
    }
    /**
     * Replace op @p i (fault injection); checked like push_back(). An
     * escaped op's side table entry is reused when @p op escapes too,
     * and left unreferenced when it fits its word.
     */
    void
    set(std::size_t i, const TraceOp &op)
    {
        std::uint32_t word;
        if (encode(op, word))
            words_[i] = word;
        else if (words_[i] > kEscapeBase)
            side_[words_[i] - kEscapeBase - 1] = op;
        else
            words_[i] = escape(op);
    }

    TraceOp
    operator[](std::size_t i) const
    {
        const std::uint32_t word = words_[i];
        if (word > kEscapeBase) [[unlikely]]
            return side_[word - kEscapeBase - 1];
        const unsigned k = word >> kPayloadBits;
        const Layout &layout = kLayouts[k];
        const std::uint32_t payload = word & kPayloadMask;
        return {static_cast<OpKind>(k), payload & layout.valueMask,
                (payload >> layout.objIdShift) & layout.objIdMask,
                payload & layout.offsetMask};
    }
    TraceOp back() const { return (*this)[size() - 1]; }
    const_iterator begin() const { return {*this, 0}; }
    const_iterator end() const { return {*this, size()}; }

    /**
     * Equal when the decoded ops are, whatever side table entries a
     * set() history left unreferenced.
     */
    bool
    operator==(const Trace &other) const
    {
        if (size() != other.size())
            return false;
        for (std::size_t i = 0; i < size(); ++i) {
            if ((*this)[i] != other[i])
                return false;
        }
        return true;
    }

    /** Bytes the ops occupy: the words plus the side table. */
    std::size_t
    storedBytes() const
    {
        return words_.size() * kBytesPerOp + side_.size() * sizeof(TraceOp);
    }

    /** Stored bytes per op that fits its word. */
    static constexpr std::size_t kBytesPerOp = sizeof(std::uint32_t);

  private:
    static constexpr unsigned kPayloadBits = 29;
    static constexpr std::uint32_t kPayloadMask = (1u << kPayloadBits) - 1;
    /** A real FunctionEnd; every larger word is an escape. */
    static constexpr std::uint32_t kEscapeBase =
        static_cast<std::uint32_t>(OpKind::FunctionEnd) << kPayloadBits;

    /**
     * Where a kind's fields sit in its payload: objId at objIdShift
     * under objIdMask, value and offset in the low bits under their
     * masks (a field the kind does not use has mask 0).
     */
    struct Layout
    {
        std::uint32_t objIdShift;
        std::uint32_t objIdMask;
        std::uint32_t valueMask;
        std::uint32_t offsetMask;
    };
    /** Widths of an objId and the field beside it in one payload. */
    static constexpr unsigned kLowBits = 11;
    static constexpr std::uint32_t kLowMask = (1u << kLowBits) - 1;
    static constexpr std::uint32_t kObjIdMask = kPayloadMask >> kLowBits;
    /** Indexed by OpKind, in declaration order. */
    static constexpr Layout kLayouts[] = {
        {0, 0, kPayloadMask, 0},               // Compute
        {kLowBits, kObjIdMask, 0, kLowMask},   // Load
        {kLowBits, kObjIdMask, 0, kLowMask},   // Store
        {kLowBits, kObjIdMask, kLowMask, 0},   // Malloc
        {0, kPayloadMask, 0, 0},               // Free
        {0, 0, 0, kPayloadMask},               // StaticLoad
        {0, 0, 0, kPayloadMask},               // StaticStore
        {0, 0, 0, 0},                          // FunctionEnd
    };

    /**
     * Panic that @p op cannot be stored because it @p why. Out of line
     * and cold, so push_back() and the encoder inline into their
     * callers.
     */
    [[noreturn, gnu::cold]] static void panicUnstorable(const TraceOp &op,
                                                        const char *why);

    /**
     * Encode @p op into @p word; false when a field is too wide for
     * its word. Panics when a field its kind does not use is set.
     */
    static bool
    encode(const TraceOp &op, std::uint32_t &word)
    {
        if (!unusedFieldsAreZero(op)) [[unlikely]]
            panicUnstorable(op, "sets a field it does not use");
        const unsigned k = static_cast<unsigned>(op.kind);
        const Layout &layout = kLayouts[k];
        if ((op.objId & ~layout.objIdMask) != 0 ||
            (op.value & ~layout.valueMask) != 0 ||
            (op.offset & ~layout.offsetMask) != 0)
            return false;
        // No kind uses both value and offset: they share the low bits.
        word = (k << kPayloadBits) | (op.objId << layout.objIdShift) |
               op.value | op.offset;
        return true;
    }

    /**
     * Store @p op in the side table; returns its escape word. Rare, so
     * kept out of line: push_back() then inlines at every call site.
     */
    [[gnu::noinline]] std::uint32_t
    escape(const TraceOp &op)
    {
        if (side_.size() >= kPayloadMask) [[unlikely]]
            panicUnstorable(op, "overflows the full side table");
        side_.push_back(op);
        return kEscapeBase + static_cast<std::uint32_t>(side_.size());
    }

    std::vector<std::uint32_t> words_;
    /** Ops too wide for their word, referenced by escape words. */
    std::vector<TraceOp> side_;
};
static_assert(Trace::kBytesPerOp == 4, "a stored op must stay one word");

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
