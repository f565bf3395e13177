/**
 * @file
 * The three-level inclusive cache hierarchy (L1I/L1D + L2 + LLC).
 *
 * Inclusion is maintained by back-invalidating inner levels when the LLC
 * evicts; dirty inner evictions merge downward; LLC dirty evictions write
 * back to DRAM. The hierarchy also implements the Memento main-memory
 * bypass: a missing line flagged bypassCandidate is instantiated
 * zero-filled at the LLC (§3.3) instead of being fetched, which removes
 * the DRAM read from both the critical path and the traffic totals.
 */

#ifndef MEMENTO_MEM_CACHE_HIERARCHY_H
#define MEMENTO_MEM_CACHE_HIERARCHY_H

#include "mem/access.h"
#include "mem/cache.h"
#include "mem/dram.h"
#include "sim/config.h"
#include "sim/stats.h"

namespace memento {

/** L1I/L1D + unified L2 + LLC slice in front of DRAM. */
class CacheHierarchy
{
  public:
    CacheHierarchy(const MachineConfig &cfg, StatRegistry &stats);

    /**
     * Perform a line access on behalf of the core or a hardware unit.
     *
     * @param paddr Physical address (any byte within the line).
     * @param type Read, Write, or Fetch.
     * @param now Current core cycle.
     * @param attrs Bypass eligibility.
     */
    AccessResult access(Addr paddr, AccessType type, Cycles now,
                        AccessAttrs attrs = {});

    /**
     * Instantiate a line dirty at the L1D without fetching it from
     * anywhere (used for full-line stores to freshly allocated memory
     * and for hardware-initialized metadata).
     */
    Cycles installLine(Addr paddr, Cycles now);

    /** Lines instantiated at the LLC via the bypass mechanism. */
    std::uint64_t bypassedLines() const { return bypasses_.value(); }

    const Cache &l1d() const { return l1d_; }
    const Cache &l1i() const { return l1i_; }
    const Cache &l2() const { return l2_; }
    const Cache &llc() const { return llc_; }
    const Dram &dram() const { return dram_; }

  private:
    /** Handle an eviction out of the L1 (merge into L2). */
    void absorbL1Eviction(const Cache::Eviction &ev, Cycles now);
    /** Handle an eviction out of the L2 (merge into LLC). */
    void absorbL2Eviction(const Cache::Eviction &ev, Cycles now);
    /** Handle an eviction out of the LLC (writeback + back-invalidate). */
    void absorbLlcEviction(const Cache::Eviction &ev, Cycles now);
    /** Install into L1/L2/LLC with inclusion maintenance. */
    void installAllLevels(Cache &l1, Addr paddr, bool dirty, Cycles now);

    Cache l1d_;
    Cache l1i_;
    Cache l2_;
    Cache llc_;
    Dram dram_;

    Counter bypasses_;
    Counter demandFills_;
};

// ---- Hot-path inline definitions ----
//
// access() and its eviction helpers run once per simulated memory
// reference (tens of millions of times per workload); defining them
// here lets them inline into Machine's access paths together with the
// Cache probes they call.

inline void
CacheHierarchy::absorbL1Eviction(const Cache::Eviction &ev, Cycles now)
{
    if (!ev.valid || !ev.dirty)
        return;
    // Inclusive hierarchy: the line is resident in L2 unless a racing
    // back-invalidation removed it; merge the dirty data downward.
    if (l2_.tryMarkDirty(ev.lineAddr))
        return;
    if (!llc_.tryMarkDirty(ev.lineAddr))
        dram_.access(ev.lineAddr, /*is_write=*/true, now);
}

inline void
CacheHierarchy::absorbL2Eviction(const Cache::Eviction &ev, Cycles now)
{
    if (!ev.valid)
        return;
    if (ev.dirty && !llc_.tryMarkDirty(ev.lineAddr))
        dram_.access(ev.lineAddr, /*is_write=*/true, now);
}

inline void
CacheHierarchy::absorbLlcEviction(const Cache::Eviction &ev, Cycles now)
{
    if (!ev.valid)
        return;
    // Back-invalidate inner levels to preserve inclusion; fold their
    // dirtiness into the writeback decision.
    bool dirty = ev.dirty;
    dirty |= l1d_.invalidate(ev.lineAddr);
    dirty |= l1i_.invalidate(ev.lineAddr);
    dirty |= l2_.invalidate(ev.lineAddr);
    if (dirty)
        dram_.access(ev.lineAddr, /*is_write=*/true, now);
}

inline void
CacheHierarchy::installAllLevels(Cache &l1, Addr paddr, bool dirty,
                                 Cycles now)
{
    absorbLlcEviction(llc_.install(paddr, false), now);
    absorbL2Eviction(l2_.install(paddr, false), now);
    absorbL1Eviction(l1.install(paddr, dirty), now);
}

inline AccessResult
CacheHierarchy::access(Addr paddr, AccessType type, Cycles now,
                       AccessAttrs attrs)
{
    const Addr line = lineBase(paddr);
    const bool is_write = type == AccessType::Write;
    Cache &l1 = type == AccessType::Fetch ? l1i_ : l1d_;

    AccessResult res{l1.latency()};
    if (l1.access(line, is_write))
        return res;

    // Every level below a miss has just been probed, so the fills on
    // these paths use installAbsent() (identical semantics, one fewer
    // set scan; see cache.h).
    res.latency += l2_.latency();
    if (l2_.access(line, is_write)) {
        // Refill the L1 from the L2.
        absorbL1Eviction(l1.installAbsent(line, is_write), now);
        return res;
    }

    res.latency += llc_.latency();
    if (llc_.access(line, is_write)) {
        absorbL2Eviction(l2_.installAbsent(line, false), now);
        absorbL1Eviction(l1.installAbsent(line, is_write), now);
        return res;
    }

    if (attrs.bypassCandidate) {
        // §3.3: instantiate the never-written line zero-filled at the
        // LLC; the request propagates normally for coherence but no
        // DRAM fetch happens.
        ++bypasses_;
        absorbLlcEviction(llc_.installAbsent(line, true), now);
        absorbL2Eviction(l2_.installAbsent(line, false), now);
        absorbL1Eviction(l1.installAbsent(line, is_write), now);
        return res;
    }

    ++demandFills_;
    res.latency +=
        dram_.access(line, /*is_write=*/false, now + res.latency);
    absorbLlcEviction(llc_.installAbsent(line, false), now);
    absorbL2Eviction(l2_.installAbsent(line, false), now);
    absorbL1Eviction(l1.installAbsent(line, is_write), now);
    return res;
}

inline Cycles
CacheHierarchy::installLine(Addr paddr, Cycles now)
{
    const Addr line = lineBase(paddr);
    if (l1d_.access(line, /*is_write=*/true))
        return l1d_.latency();
    // L2/LLC residency is unknown here, so installAllLevels() keeps the
    // full install() probes for those levels.
    installAllLevels(l1d_, line, /*dirty=*/true, now);
    return l1d_.latency();
}

} // namespace memento

#endif // MEMENTO_MEM_CACHE_HIERARCHY_H
