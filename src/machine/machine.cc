#include "machine/machine.h"

#include "hw/mallacc.h"
#include "os/kernel_cost.h"
#include "rt/gomalloc.h"
#include "rt/jemalloc.h"
#include "rt/pymalloc.h"
#include "sim/error.h"
#include "sim/logging.h"

namespace memento {

Machine::Machine(const MachineConfig &cfg)
    : cfg_(cfg),
      loadExposed_(1.0 - cfg_.core.memLatencyHiddenFraction),
      storeExposed_(1.0 - cfg_.core.storeLatencyHiddenFraction),
      instructions_(stats_.counter("machine.instructions")),
      appLoads_(stats_.counter("machine.app_loads")),
      appStores_(stats_.counter("machine.app_stores"))
{
    checkGeometry(cfg_);
    hier_ = std::make_unique<CacheHierarchy>(cfg_, stats_);
    l1Tlb_ = std::make_unique<Tlb>("l1tlb", cfg_.l1Tlb, stats_);
    l2Tlb_ = std::make_unique<Tlb>("l2tlb", cfg_.l2Tlb, stats_);
    // Physical memory starts above a reserved low region so that no
    // valid frame aliases kNullAddr.
    buddy_ = std::make_unique<BuddyAllocator>(1ull << 22,
                                              cfg_.dram.sizeBytes, stats_);

    if (cfg_.memento.enabled) {
        geometry_ =
            std::make_unique<ArenaGeometry>(cfg_.memento, cfg_.layout);
        hot_ = std::make_unique<Hot>(cfg_.memento, stats_);
        hwPage_ = std::make_unique<HwPageAllocator>(cfg_, *geometry_,
                                                    *buddy_, stats_);
        hwObj_ = std::make_unique<HwObjectAllocator>(
            cfg_, *geometry_, *hot_, *hwPage_, stats_);
        bypass_ = std::make_unique<BypassUnit>(cfg_.memento, *geometry_,
                                               stats_);
    }
}

Machine::~Machine() = default;

void
Machine::tlbInvalidate(Addr vaddr)
{
    l1Tlb_->invalidatePage(vaddr);
    l2Tlb_->invalidatePage(vaddr);
}

unsigned
Machine::createProcess(const WorkloadSpec &spec)
{
    ProcContext proc;
    proc.process = std::make_unique<Process>(
        nextPid_++, spec.id, cfg_, *buddy_, stats_);

    VirtualMemory &vm = proc.process->vm();
    if (cfg_.memento.enabled) {
        proc.space = std::make_unique<MementoSpace>(
            *geometry_, hwPage_->poolFrames());
        proc.process->mementoRegs().mptr = proc.space->mpt.rootPhys();
        if (cfg_.memento.mallaccMode) {
            // §6.7 comparison: idealized Mallacc instead of Memento.
            proc.allocator =
                std::make_unique<MallaccAllocator>(vm, stats_);
        } else {
            proc.allocator = std::make_unique<MementoAllocator>(
                *hwObj_, *proc.space, vm, stats_);
        }
    } else {
        switch (spec.lang) {
          case Language::Python: {
            PyMalloc::Params params;
            params.arenaBytes = cfg_.tuning.pymallocArenaBytes;
            proc.allocator =
                std::make_unique<PyMalloc>(vm, stats_, params);
            break;
          }
          case Language::Cpp: {
            JeMalloc::Params params;
            params.chunkBytes = cfg_.tuning.jemallocChunkBytes;
            // Long-running servers run jemalloc with decay purging,
            // which keeps page faults frequent on their heaps (§6.1).
            if (spec.domain == Domain::DataProc) {
                params.purgeIntervalOps = 1000;
                params.tcacheMax = 32;
            }
            proc.allocator =
                std::make_unique<JeMalloc>(vm, stats_, params);
            break;
          }
          case Language::Golang: {
            GoMalloc::Params params;
            // Long-running platform processes reach GC triggers;
            // short functions never do (§2.2).
            params.gcTriggerBytes = spec.domain == Domain::Platform
                                        ? cfg_.tuning.goGcTriggerBytes
                                        : 0;
            proc.allocator =
                std::make_unique<GoMalloc>(vm, stats_, params);
            break;
          }
        }
    }

    // Static working set (code + globals + inputs). A warm container
    // has this resident already, so it is populated at set-up.
    proc.staticBase = vm.mmap(spec.staticWsBytes, nullptr,
                              /*populate=*/true);

    procs_.push_back(std::move(proc));
    return static_cast<unsigned>(procs_.size() - 1);
}

void
Machine::switchTo(unsigned index)
{
    panic_if(index >= procs_.size(), "switchTo: bad process index");
    if (index == current_)
        return;
    unsigned flushed = 0;
    if (hot_)
        flushed = hot_->flush();
    ledger_.charge(contextSwitchCycles(cfg_, flushed),
                   CycleCategory::ContextSwitch);
    l1Tlb_->flushAll();
    l2Tlb_->flushAll();
    current_ = index;
}

MementoSpace *
Machine::mementoSpace()
{
    if (procs_.empty())
        return nullptr;
    return procs_[current_].space.get();
}

Process &
Machine::processAt(unsigned index)
{
    panic_if(index >= procs_.size(), "processAt: bad process index");
    return *procs_[index].process;
}

MementoSpace *
Machine::mementoSpaceAt(unsigned index)
{
    panic_if(index >= procs_.size(), "mementoSpaceAt: bad process index");
    return procs_[index].space.get();
}

} // namespace memento
