#include "machine/function_executor.h"

#include <optional>
#include <string>

#include "os/kernel_cost.h"
#include "sim/error.h"
#include "sim/logging.h"
#include "val/invariants.h"

namespace memento {

void
FunctionExecutor::chargeRpc(const WorkloadSpec &spec)
{
    if (spec.rpcBytes == 0)
        return;
    // The paper measures RPC costs of hundreds of microseconds per
    // function; model a fixed software cost plus a per-byte component.
    CategoryScope scope(machine_.ledger(), CycleCategory::Rpc);
    machine_.chargeCycles(120'000 + spec.rpcBytes / 4);
}

void
FunctionExecutor::execute(const WorkloadSpec &spec, TraceOp op)
{
    Allocator &alloc = machine_.allocator();
    const Addr static_base = machine_.staticBase();

    switch (op.kind) {
      case OpKind::Compute:
        machine_.appCompute(op.value);
        break;
      case OpKind::StaticLoad:
      case OpKind::StaticStore: {
        // Generated offsets are already below the working set, so only
        // a handwritten trace pays the wrap's divide.
        const std::uint64_t ws = spec.staticWsBytes;
        const std::uint64_t offset =
            op.offset < ws ? op.offset : op.offset % ws;
        machine_.appAccess(static_base + offset,
                           op.kind == OpKind::StaticStore
                               ? AccessType::Write
                               : AccessType::Read);
        break;
      }
      case OpKind::Malloc: {
        Addr addr = alloc.malloc(op.value, machine_);
        if (op.objId < kDenseIdLimit) {
            if (op.objId >= dense_.size())
                dense_.resize(op.objId + 1);
            ObjectInfo &slot = dense_[op.objId];
            sim_error_if(slot.live, ErrorCategory::Trace,
                         "trace: duplicate object id ", op.objId);
            slot.addr = addr;
            slot.size = op.value;
            slot.live = true;
        } else {
            sim_error_if(sparse_.contains(op.objId), ErrorCategory::Trace,
                         "trace: duplicate object id ", op.objId);
            sparse_.insert(op.objId, ObjectInfo{addr, op.value, true});
        }
        ++liveCount_;
        if (++opsSinceFragSample_ >= 4096) {
            opsSinceFragSample_ = 0;
            const std::uint64_t live = alloc.liveBytes();
            if (live >= fragMaxLive_) {
                fragMaxLive_ = live;
                fragSample_ = alloc.inactiveSlotFraction();
            }
        }
        break;
      }
      case OpKind::Free: {
        if (op.objId < dense_.size() && dense_[op.objId].live) {
            ObjectInfo &slot = dense_[op.objId];
            slot.live = false;
            --liveCount_;
            alloc.free(slot.addr, machine_);
            break;
        }
        const std::optional<ObjectInfo> info = sparse_.take(op.objId);
        sim_error_if(!info, ErrorCategory::Trace,
                     "trace: free of unknown object ", op.objId);
        alloc.free(info->addr, machine_);
        --liveCount_;
        break;
      }
      case OpKind::Load:
      case OpKind::Store: {
        const ObjectInfo *info;
        if (op.objId < dense_.size() && dense_[op.objId].live) {
            info = &dense_[op.objId];
        } else {
            info = sparse_.find(op.objId);
            sim_error_if(!info, ErrorCategory::Trace,
                         "trace: access to unknown object ", op.objId);
        }
        sim_error_if(op.offset >= info->size, ErrorCategory::Trace,
                     "trace: access past object end");
        machine_.appAccess(info->addr + op.offset,
                           op.kind == OpKind::Store ? AccessType::Write
                                                    : AccessType::Read);
        break;
      }
      case OpKind::FunctionEnd:
        if (fragMaxLive_ == 0) {
            // Short trace: sample once before teardown.
            fragSample_ = alloc.inactiveSlotFraction();
        }
        alloc.functionExit(machine_);
        dense_.clear();
        sparse_.clear();
        liveCount_ = 0;
        break;
    }
}

void
FunctionExecutor::flipArenaBit()
{
    MementoSpace *space = machine_.mementoSpace();
    if (!space || space->arenas.empty())
        return;
    // Deterministic victim: the lowest-addressed live arena. Flipping
    // slot 0 desynchronises the bitmap from the allocated count either
    // way the bit goes, so the checker always sees it.
    space->arenas.at(space->arenas.sortedKeys().front()).bitmap.flip(0);
}

void
FunctionExecutor::run(const WorkloadSpec &spec, const Trace &trace,
                      RunOptions opts)
{
    const MachineConfig &cfg = machine_.config();
    const CheckConfig &check = cfg.check;
    const bool faulted = cfg.inject.appliesTo(spec.id);

    if (opts.coldStart) {
        CategoryScope scope(machine_.ledger(), CycleCategory::KernelOther);
        machine_.chargeInstructions(kContainerSetupInstructions);
    }
    chargeRpc(spec); // Fetch inputs.

    // A truncated trace stops before its FunctionEnd record.
    std::size_t limit = trace.size();
    bool truncated = false;
    if (faulted && cfg.inject.traceTruncateAt != 0 &&
        cfg.inject.traceTruncateAt < trace.size()) {
        limit = cfg.inject.traceTruncateAt;
        truncated = true;
    }

    // Hot path: no fault plan and no watchdog/invariant checks armed.
    // The per-op budget tests and the op-copy for corruption are all
    // invariant over the run, so hoist them out entirely and replay in
    // one tight loop. Error tagging is preserved by catching outside
    // the loop with the op index still in scope.
    if (!faulted && check.maxOps == 0 && check.maxCycles == 0 &&
        check.interval == 0) {
        std::size_t i = 0;
        try {
            for (; i < limit; ++i)
                execute(spec, trace[i]);
        } catch (SimError &e) {
            e.tagOpIndex(i);
            throw;
        }
    } else {
        for (std::size_t i = 0; i < limit; ++i) {
            // A corrupt record frees an object that never existed.
            const TraceOp op =
                faulted && cfg.inject.traceCorruptAt == i + 1 ? kCorruptOp
                                                              : trace[i];
            try {
                sim_error_if(check.maxOps != 0 && i >= check.maxOps,
                             ErrorCategory::Timeout,
                             "watchdog: op budget (", check.maxOps,
                             ") exceeded");
                sim_error_if(check.maxCycles != 0 &&
                                 machine_.now() > check.maxCycles,
                             ErrorCategory::Timeout,
                             "watchdog: cycle budget (", check.maxCycles,
                             ") exceeded at cycle ", machine_.now());
                execute(spec, op);
                if (faulted && cfg.inject.arenaBitFlipAt == i + 1)
                    flipArenaBit();
                if (check.interval != 0 && (i + 1) % check.interval == 0)
                    InvariantChecker::enforce(machine_,
                                              "op " + std::to_string(i));
            } catch (SimError &e) {
                e.tagOpIndex(i);
                throw;
            }
        }
    }
    sim_error_if(truncated, ErrorCategory::Trace, "trace truncated at op ",
                 limit, " (missing FunctionEnd)");
    if (check.interval != 0)
        InvariantChecker::enforce(machine_, "end of run");
    chargeRpc(spec); // Store results.
}

void
FunctionExecutor::runRange(const WorkloadSpec &spec, const Trace &trace,
                           std::size_t from, std::size_t to)
{
    panic_if(to > trace.size() || from > to, "runRange: bad range");
    for (std::size_t i = from; i < to; ++i)
        execute(spec, trace[i]);
}

} // namespace memento
