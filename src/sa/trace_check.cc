#include "sa/trace_check.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "sim/error.h"
#include "sim/logging.h"
#include "sim/size_class.h"

namespace memento {
namespace {

/** Shadow record of one live object. */
struct ShadowObject
{
    std::uint64_t size = 0;
    std::uint64_t allocOp = 0;
};

/**
 * The abstract interpreter. State mirrors exactly what the dynamic
 * executor tracks (FunctionExecutor::objects_) plus the free history
 * and per-class occupancy the sanitizer-style rules need.
 */
class ShadowHeap
{
  public:
    ShadowHeap(const TraceCheckPolicy &policy,
               const std::string &subject, DiagReport &report)
        : policy_(policy), subject_(subject), report_(report),
          classLive_(kNumSmallClasses, 0),
          classReported_(kNumSmallClasses, false)
    {
    }

    void
    step(const TraceOp &op, std::uint64_t i)
    {
        switch (op.kind) {
          case OpKind::Malloc: onMalloc(op, i); break;
          case OpKind::Free: onFree(op, i); break;
          case OpKind::Load:
          case OpKind::Store: onAccess(op, i); break;
          case OpKind::FunctionEnd: onFunctionEnd(i); break;
          case OpKind::Compute:
          case OpKind::StaticLoad:
          case OpKind::StaticStore:
            break; // No heap effect.
        }
    }

    void
    finish(const Trace &trace)
    {
        if (trace.empty()) {
            diag("trace-truncated", Diag::kNoLocation, "empty op stream");
            return;
        }
        if (trace.back().kind == OpKind::FunctionEnd)
            return;
        diag("trace-truncated", trace.size(),
             detail::formatMsg("op stream ends after ", trace.size(),
                               " op(s) without a FunctionEnd terminator"));
        if (!live_.empty()) {
            // Earliest-allocated leaked object, for a stable exemplar.
            const auto first = std::min_element(
                live_.begin(), live_.end(),
                [](const auto &a, const auto &b) {
                    return a.second.allocOp < b.second.allocOp;
                });
            diag("trace-leak", first->second.allocOp,
                 detail::formatMsg(
                     live_.size(),
                     " object(s) still live at end of stream (first: "
                     "object ",
                     first->first, " allocated at op ",
                     first->second.allocOp, ", never freed)"));
        }
    }

  private:
    void
    diag(std::string_view rule, std::uint64_t location,
         std::string message)
    {
        report_.add(rule, subject_, location, std::move(message));
    }

    void
    onMalloc(const TraceOp &op, std::uint64_t i)
    {
        if (op.value == 0 || op.value > policy_.perClassRegionBytes) {
            diag("trace-size-class", i,
                 detail::formatMsg(
                     "malloc of ", op.value, " byte(s) for object ",
                     op.objId,
                     op.value == 0
                         ? " has no size class"
                         : " exceeds the per-class region and cannot "
                           "be routed"));
        }
        const auto it = live_.find(op.objId);
        if (it != live_.end()) {
            diag("trace-duplicate-id", i,
                 detail::formatMsg("malloc reuses object id ", op.objId,
                                   " which is still live (allocated at "
                                   "op ",
                                   it->second.allocOp, ")"));
            return; // Keep the original binding, as the executor would.
        }
        freed_.erase(op.objId); // Reusing a freed handle is legal.
        live_.emplace(op.objId, ShadowObject{op.value, i});
        if (isSmallSize(op.value)) {
            const unsigned cls = sizeClassIndex(op.value);
            if (++classLive_[cls] > policy_.classCapacity(cls) &&
                !classReported_[cls]) {
                classReported_[cls] = true;
                diag("trace-arena-oversubscription", i,
                     detail::formatMsg(
                         "size class ", cls, " holds ", classLive_[cls],
                         " live object(s), beyond its region capacity "
                         "of ",
                         policy_.classCapacity(cls), " (",
                         policy_.objectsPerArena, " per arena)"));
            }
        }
    }

    void
    onFree(const TraceOp &op, std::uint64_t i)
    {
        const auto it = live_.find(op.objId);
        if (it != live_.end()) {
            if (isSmallSize(it->second.size))
                --classLive_[sizeClassIndex(it->second.size)];
            freed_[op.objId] = i;
            live_.erase(it);
            return;
        }
        const auto freed = freed_.find(op.objId);
        if (freed != freed_.end()) {
            diag("trace-double-free", i,
                 detail::formatMsg("double free of object ", op.objId,
                                   " (freed at op ", freed->second,
                                   ")"));
        } else {
            diag("trace-free-unallocated", i,
                 detail::formatMsg("free of object ", op.objId,
                                   " which was never allocated"));
        }
    }

    void
    onAccess(const TraceOp &op, std::uint64_t i)
    {
        const char *what = op.kind == OpKind::Store ? "store" : "load";
        const auto it = live_.find(op.objId);
        if (it != live_.end()) {
            if (op.offset >= it->second.size) {
                diag("trace-out-of-bounds", i,
                     detail::formatMsg(
                         what, " at offset ", op.offset, " past the end "
                         "of object ", op.objId, " (", it->second.size,
                         " byte(s), allocated at op ",
                         it->second.allocOp, ")"));
            }
            return;
        }
        const auto freed = freed_.find(op.objId);
        if (freed != freed_.end()) {
            diag("trace-use-after-free", i,
                 detail::formatMsg(what, " to object ", op.objId,
                                   " after free at op ", freed->second));
        } else {
            diag("trace-use-unallocated", i,
                 detail::formatMsg(what, " to object ", op.objId,
                                   " which was never allocated"));
        }
    }

    void
    onFunctionEnd(std::uint64_t i)
    {
        sawEnd_ = true;
        lastEnd_ = i;
        // FunctionEnd batch-frees everything live, exactly like the
        // executor's functionExit(): the next frame starts clean and a
        // stale handle from the previous frame is "never allocated".
        live_.clear();
        freed_.clear();
        std::fill(classLive_.begin(), classLive_.end(), 0);
        std::fill(classReported_.begin(), classReported_.end(), false);
    }

  public:
    bool sawEnd_ = false;
    std::uint64_t lastEnd_ = 0;

  private:
    const TraceCheckPolicy &policy_;
    const std::string &subject_;
    DiagReport &report_;
    std::unordered_map<std::uint64_t, ShadowObject> live_;
    std::unordered_map<std::uint64_t, std::uint64_t> freed_;
    std::vector<std::uint64_t> classLive_;
    std::vector<bool> classReported_;
};

} // namespace

TraceCheckPolicy
TraceCheckPolicy::fromConfig(const MachineConfig &cfg)
{
    TraceCheckPolicy policy;
    policy.objectsPerArena = cfg.memento.objectsPerArena;
    policy.perClassRegionBytes = cfg.layout.perClassRegionBytes;
    return policy;
}

std::uint64_t
TraceCheckPolicy::classCapacity(unsigned cls) const
{
    const std::uint64_t arena_bytes =
        std::max<std::uint64_t>(1, sizeClassBytes(cls) * objectsPerArena);
    const std::uint64_t arenas =
        std::max<std::uint64_t>(1, perClassRegionBytes / arena_bytes);
    return arenas * objectsPerArena;
}

void
checkTrace(const Trace &trace, const TraceCheckPolicy &policy,
           const std::string &subject, DiagReport &report)
{
    ShadowHeap heap(policy, subject, report);
    bool boundary_reported = false;
    for (std::uint64_t i = 0; i < trace.size(); ++i) {
        if (heap.sawEnd_ && !boundary_reported) {
            boundary_reported = true;
            report.add("trace-function-boundary", subject, heap.lastEnd_,
                       detail::formatMsg(
                           "FunctionEnd at op ", heap.lastEnd_,
                           " is followed by ", trace.size() - i,
                           " more op(s); function boundaries must "
                           "terminate the stream"));
        }
        heap.step(trace[i], i);
    }
    heap.finish(trace);
}

void
checkTraceStream(std::istream &is, const TraceCheckPolicy &policy,
                 const std::string &subject, DiagReport &report)
{
    Trace trace;
    try {
        trace = readTraceOps(is);
    } catch (const SimError &e) {
        report.add("trace-parse", subject, e.opIndex(), e.what());
        return;
    }
    checkTrace(trace, policy, subject, report);
}

Trace
applyTraceFaultPlan(const Trace &trace, const FaultPlan &plan,
                    const std::string &workload_id)
{
    Trace out = trace;
    if (!plan.appliesTo(workload_id))
        return out;
    // Same order and 1-based indexing as FunctionExecutor::run: the
    // truncation shortens the stream first, and a corruption is only
    // visible when it lands inside the surviving prefix.
    if (plan.traceTruncateAt != 0 && plan.traceTruncateAt < out.size())
        out.resize(plan.traceTruncateAt);
    if (plan.traceCorruptAt != 0 && plan.traceCorruptAt <= out.size())
        out.set(plan.traceCorruptAt - 1, kCorruptOp);
    return out;
}

} // namespace memento
