/**
 * @file
 * The simulated machine: one core (Table 3) with its TLBs, cache
 * hierarchy, DRAM, OS model, optional Memento hardware, and one or more
 * processes. Implements Env, the interface through which software
 * models and hardware units retire instructions and touch memory.
 */

#ifndef MEMENTO_MACHINE_MACHINE_H
#define MEMENTO_MACHINE_MACHINE_H

#include <memory>
#include <vector>

#include "hw/bypass.h"
#include "hw/hot.h"
#include "hw/hw_object_allocator.h"
#include "hw/hw_page_allocator.h"
#include "hw/memento_allocator.h"
#include "mem/cache_hierarchy.h"
#include "mem/env.h"
#include "mem/page_walker.h"
#include "mem/tlb.h"
#include "os/buddy_allocator.h"
#include "os/kernel_cost.h"
#include "os/process.h"
#include "rt/allocator.h"
#include "sim/config.h"
#include "sim/cycles.h"
#include "sim/error.h"
#include "sim/logging.h"
#include "sim/stats.h"
#include "wl/workloads.h"

namespace memento {

/**
 * The full-system model. `final` so that calls through a Machine
 * reference devirtualize — Env's charge/access methods run tens of
 * millions of times per workload replay.
 */
class Machine final : public Env
{
  public:
    explicit Machine(const MachineConfig &cfg);
    ~Machine() override;

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    // ---- Env ----
    void chargeInstructions(InstCount n) override
    {
        instructions_ += n;
        const double cycles = static_cast<double>(n) / cfg_.core.baseIpc;
        ledger_.charge(static_cast<Cycles>(cycles + 0.5));
    }
    void chargeCycles(Cycles n) override { ledger_.charge(n); }
    Cycles accessVirtual(Addr vaddr, AccessType type) override;
    Cycles accessPhysical(Addr paddr, AccessType type,
                          AccessAttrs attrs = {}) override;
    Cycles installPhysical(Addr paddr) override;
    Cycles now() const override { return ledger_.total(); }
    CycleLedger &ledger() override { return ledger_; }
    void tlbInvalidate(Addr vaddr) override;

    // ---- Process management ----

    /**
     * Create a process running the runtime that @p spec's language
     * uses (or the Memento allocator when the machine has Memento).
     * The first created process becomes current.
     *
     * @return process index for switchTo().
     */
    unsigned createProcess(const WorkloadSpec &spec);

    /** Context switch to process @p index (charges kernel costs). */
    void switchTo(unsigned index);

    /** The current process's allocator. */
    Allocator &allocator()
    {
        panic_if(procs_.empty(), "no process created");
        return *procs_[current_].allocator;
    }

    /** The current process. */
    Process &process()
    {
        panic_if(procs_.empty(), "no process created");
        return *procs_[current_].process;
    }

    /** Number of created processes. */
    unsigned processCount() const
    {
        return static_cast<unsigned>(procs_.size());
    }

    /** Process @p index (validation sweeps every address space). */
    Process &processAt(unsigned index);

    /** Memento state of process @p index (null without Memento). */
    MementoSpace *mementoSpaceAt(unsigned index);

    /** Base of the current process's static working-set region. */
    Addr staticBase() const { return procs_[current_].staticBase; }

    // ---- Application-issued operations ----

    /**
     * Retire @p n application instructions (AppCompute category).
     */
    void appCompute(InstCount n);

    /**
     * Application load/store to @p vaddr. Translation cost is fully
     * exposed; hierarchy latency is partially hidden by the OOO window
     * (core.memLatencyHiddenFraction). Classified for main-memory
     * bypass when it falls in the Memento region.
     */
    void appAccess(Addr vaddr, AccessType type);

    // ---- Introspection ----
    const MachineConfig &config() const { return cfg_; }
    StatRegistry &stats() { return stats_; }
    const CycleLedger &cycleLedger() const { return ledger_; }
    CacheHierarchy &hierarchy() { return *hier_; }
    BuddyAllocator &buddy() { return *buddy_; }
    Hot *hot() { return hot_.get(); }
    HwObjectAllocator *hwObjectAllocator() { return hwObj_.get(); }
    HwPageAllocator *hwPageAllocator() { return hwPage_.get(); }
    MementoSpace *mementoSpace();
    KernelCostModel &kernelCosts() { return kernelCosts_; }

    /** Total retired instructions (all categories). */
    std::uint64_t instructions() const { return instructions_.value(); }

  private:
    struct ProcContext
    {
        std::unique_ptr<Process> process;
        std::unique_ptr<MementoSpace> space; ///< Null without Memento.
        std::unique_ptr<Allocator> allocator;
        Addr staticBase = 0;
        std::uint64_t staticWsBytes = 0;
    };

    /** TLB fill + page walk + fault path; returns the physical addr. */
    Addr translate(Addr vaddr);
    /** Walk the Memento page table, populating on demand. */
    Addr mementoWalk(Addr vaddr);

    MachineConfig cfg_;
    /** 1 - core.memLatencyHiddenFraction: a load's exposed share. */
    double loadExposed_;
    /** 1 - core.storeLatencyHiddenFraction: a store's exposed share. */
    double storeExposed_;
    StatRegistry stats_;
    CycleLedger ledger_;

    std::unique_ptr<CacheHierarchy> hier_;
    std::unique_ptr<Tlb> l1Tlb_;
    std::unique_ptr<Tlb> l2Tlb_;
    std::unique_ptr<PageWalker> walker_;
    std::unique_ptr<BuddyAllocator> buddy_;
    KernelCostModel kernelCosts_;

    // Memento hardware (null when disabled).
    std::unique_ptr<ArenaGeometry> geometry_;
    std::unique_ptr<Hot> hot_;
    std::unique_ptr<HwPageAllocator> hwPage_;
    std::unique_ptr<HwObjectAllocator> hwObj_;
    std::unique_ptr<BypassUnit> bypass_;

    std::vector<ProcContext> procs_;
    unsigned current_ = 0;
    int nextPid_ = 1;

    Counter instructions_;
    Counter appLoads_;
    Counter appStores_;
};

// ---- Hot-path inline definitions ----
//
// Translation and the application access paths run once per simulated
// memory reference; defining them here lets the TLB probes and the
// hierarchy access inline into one chain.

inline Addr
Machine::translate(Addr vaddr)
{
    // L1 TLB (entries may be 4 KiB or 2 MiB).
    chargeCycles(kL1TlbLatency);
    if (auto paddr = l1Tlb_->translate(vaddr))
        return *paddr;

    // L2 TLB.
    chargeCycles(kL2TlbLatency);
    unsigned shift = kPageShift;
    if (auto paddr = l2Tlb_->translate(vaddr, &shift)) {
        // Refill the L1 at the granularity of the L2 entry that hit.
        l1Tlb_->insert(vaddr, *paddr, shift);
        return *paddr;
    }

    // Page walk. The MMU compares against MRS/MRE to pick the table.
    ProcContext &proc = procs_[current_];
    Addr ppage = kNullAddr;
    const MementoRegs &regs = proc.process->mementoRegs();
    const bool in_region = cfg_.memento.enabled && vaddr >= regs.mrs &&
                           vaddr < regs.mre;
    if (in_region) {
        ppage = mementoWalk(vaddr);
    } else {
        VirtualMemory &vm = proc.process->vm();
        // A huge (PMD-level) mapping terminates the walk a level early.
        if (auto huge = vm.lookupHuge(vaddr)) {
            chargeCycles(3 * cfg_.l2.latency / 2); // 3-level walk approx.
            const Addr base = *huge - (vaddr & ((1ull << kHugePageShift) - 1));
            l1Tlb_->insert(vaddr, base, kHugePageShift);
            l2Tlb_->insert(vaddr, base, kHugePageShift);
            return *huge;
        }
        Cycles walk_latency = 0;
        WalkResult res =
            walker_->walk(vm.pageTable(), vaddr, now(), walk_latency);
        ledger_.charge(walk_latency);
        if (!res.valid) {
            // Demand fault, then the access retries the walk.
            sim_error_if(!vm.handleFault(vaddr, *this),
                         ErrorCategory::Trace,
                         "segfault at 0x", std::hex, vaddr);
            if (auto huge = vm.lookupHuge(vaddr)) {
                // The fault was satisfied with a huge page (THP).
                const Addr base =
                    *huge - (vaddr & ((1ull << kHugePageShift) - 1));
                l1Tlb_->insert(vaddr, base, kHugePageShift);
                l2Tlb_->insert(vaddr, base, kHugePageShift);
                return *huge;
            }
            walk_latency = 0;
            res = walker_->walk(vm.pageTable(), vaddr, now(),
                                walk_latency);
            ledger_.charge(walk_latency);
            panic_if(!res.valid, "walk invalid after fault");
        }
        ppage = res.ppage;
    }

    l1Tlb_->insert(vaddr, ppage);
    l2Tlb_->insert(vaddr, ppage);
    return ppage + (vaddr & (kPageSize - 1));
}

inline Cycles
Machine::accessVirtual(Addr vaddr, AccessType type)
{
    const Cycles before = ledger_.total();
    const Addr paddr = translate(vaddr);
    AccessResult res = hier_->access(paddr, type, now());
    // Stores retire from the store buffer wherever they occur —
    // allocator metadata updates and object zeroing included — so the
    // bulk of a write's hierarchy latency is hidden. Loads on these
    // paths are dependent pointer chases and stay fully exposed.
    Cycles charge = res.latency;
    if (type == AccessType::Write) {
        const double exposed =
            static_cast<double>(res.latency) * storeExposed_;
        charge = static_cast<Cycles>(exposed < 1.0 ? 1.0 : exposed);
    }
    ledger_.charge(charge);
    return ledger_.total() - before;
}

inline Cycles
Machine::accessPhysical(Addr paddr, AccessType type, AccessAttrs attrs)
{
    AccessResult res = hier_->access(paddr, type, now(), attrs);
    ledger_.charge(res.latency);
    return res.latency;
}

inline Cycles
Machine::installPhysical(Addr paddr)
{
    Cycles latency = hier_->installLine(paddr, now());
    ledger_.charge(latency);
    return latency;
}

inline void
Machine::appCompute(InstCount n)
{
    CategoryScope scope(ledger_, CycleCategory::AppCompute);
    chargeInstructions(n);
}

inline void
Machine::appAccess(Addr vaddr, AccessType type)
{
    CategoryScope scope(ledger_, CycleCategory::AppMemory);
    if (type == AccessType::Write)
        ++appStores_;
    else
        ++appLoads_;

    const Addr paddr = translate(vaddr);

    AccessAttrs attrs;
    if (bypass_ && procs_[current_].space &&
        geometry_->inRegion(vaddr)) {
        attrs.bypassCandidate =
            bypass_->onAccess(*procs_[current_].space, vaddr);
    }

    AccessResult res = hier_->access(paddr, type, now(), attrs);
    // The OOO window overlaps part of the hierarchy latency with
    // useful work; stores retire from the store buffer and almost
    // never stall, loads stall on the unhidden remainder.
    const double exposed =
        static_cast<double>(res.latency) *
        (type == AccessType::Write ? storeExposed_ : loadExposed_);
    ledger_.charge(static_cast<Cycles>(exposed < 1.0 ? 1.0 : exposed));
}

} // namespace memento

#endif // MEMENTO_MACHINE_MACHINE_H
