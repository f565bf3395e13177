#include "hw/hw_page_allocator.h"

#include "sim/error.h"
#include "sim/logging.h"

namespace memento {

HwPageAllocator::Pool::Pool(const MementoConfig &cfg,
                            const FaultPlan &inject, BuddyAllocator &buddy,
                            StatRegistry &stats)
    : cfg_(cfg),
      inject_(inject),
      buddy_(buddy),
      refills_(stats.counter("hwpage.pool_refills")),
      framesHandedOut_(stats.counter("hwpage.pool_frames_out")),
      osPages_(stats.counter("hwpage.agg_os_pages"))
{
}

void
HwPageAllocator::Pool::refill()
{
    ++pendingRefills_;
    ++refills_;
    for (unsigned i = 0; i < cfg_.pagePoolRefill; ++i) {
        sim_error_if(inject_.poolExhaustAtPage != 0 &&
                         osPages_.value() >= inject_.poolExhaustAtPage,
                     ErrorCategory::OutOfMemory,
                     "hw page pool exhausted (injected at page ",
                     inject_.poolExhaustAtPage, ")");
        Addr frame = buddy_.allocatePage();
        sim_error_if(frame == kNullAddr, ErrorCategory::OutOfMemory,
                     "out of physical memory (hw page pool refill after ",
                     osPages_.value(), " pages)");
        frames_.push_back(frame);
        ++osPages_;
    }
}

Addr
HwPageAllocator::Pool::allocFrame()
{
    // Low-water mark: a quarter of a refill batch.
    if (frames_.size() <= cfg_.pagePoolRefill / 4)
        refill();
    Addr frame = frames_.back();
    frames_.pop_back();
    ++framesHandedOut_;
    return frame;
}

void
HwPageAllocator::Pool::releaseSurplus()
{
    // Keep at most a few refill batches of slack; the OS reclaims the
    // rest (the pool stays "small", as the paper requires).
    const std::size_t high_water =
        static_cast<std::size_t>(cfg_.pagePoolRefill) * 3;
    while (frames_.size() > high_water) {
        buddy_.freePage(frames_.back());
        frames_.pop_back();
    }
}

void
HwPageAllocator::Pool::freeFrame(Addr paddr)
{
    frames_.push_back(paddr);
    releaseSurplus();
}

unsigned
HwPageAllocator::Pool::drainPendingRefills()
{
    unsigned n = pendingRefills_;
    pendingRefills_ = 0;
    return n;
}

HwPageAllocator::HwPageAllocator(const MachineConfig &cfg,
                                 const ArenaGeometry &geometry,
                                 BuddyAllocator &buddy, StatRegistry &stats)
    : cfg_(cfg),
      geometry_(geometry),
      pool_(cfg.memento, cfg.inject, buddy, stats),
      aacValid_(kNumSmallClasses, false),
      arenaGrants_(stats.counter("hwpage.arena_grants")),
      walkPopulates_(stats.counter("hwpage.walk_populates")),
      arenaFrees_(stats.counter("hwpage.arena_frees")),
      shootdowns_(stats.counter("hwpage.shootdowns")),
      aggArena_(stats.counter("hwpage.agg_arena_pages")),
      aggTable_(stats.counter("hwpage.agg_table_pages")),
      aacHits_(stats.counter("aac.hits")),
      aacMisses_(stats.counter("aac.misses"))
{
}

void
HwPageAllocator::chargeRefills(Env &env)
{
    const unsigned refills = pool_.drainPendingRefills();
    if (refills == 0)
        return;
    // The OS grants the pool a batch of pages. The work is off the
    // hardware's critical path (the paper treats it as on-demand
    // background replenishment), so only a small syscall-like cost is
    // charged.
    CategoryScope scope(env.ledger(), CycleCategory::KernelOther);
    env.chargeCycles(cfg_.kernel.modeSwitchCycles);
    env.chargeInstructions(static_cast<InstCount>(refills) * 2000);
}

void
HwPageAllocator::chargeAacAccess(unsigned cls, Env &env)
{
    if (aacValid_[cls]) {
        ++aacHits_;
        env.chargeCycles(kAacLatency);
    } else {
        // Miss: the per-class pointer is loaded from the reserved
        // memory block next to the controller — roughly an LLC access.
        ++aacMisses_;
        env.chargeCycles(cfg_.llc.latency);
        aacValid_[cls] = true;
    }
}

HwPageAllocator::ArenaGrant
HwPageAllocator::requestArena(MementoSpace &space, unsigned cls, Env &env)
{
    CategoryScope scope(env.ledger(), CycleCategory::HwPage);
    ++arenaGrants_;
    chargeAacAccess(cls, env);

    ArenaGrant grant;
    grant.va = space.bump[cls];
    sim_error_if(grant.va + geometry_.arenaSpan(cls) >
                     geometry_.classBase(cls + 1),
                 ErrorCategory::OutOfMemory,
                 "memento: size-class ", cls, " region exhausted");
    space.bump[cls] += geometry_.arenaSpan(cls);

    // Eagerly back the first (header) page.
    const std::uint64_t nodes_before = space.mpt.nodePages();
    Addr frame = pool_.allocFrame();
    space.mpt.map(grant.va, frame);
    aggTable_ += space.mpt.nodePages() - nodes_before;
    ++aggArena_;
    ++residentArena_;
    grant.headerPa = frame;

    chargeRefills(env);
    return grant;
}

Addr
HwPageAllocator::populateOnWalk(MementoSpace &space, Addr vaddr, Env &env)
{
    CategoryScope scope(env.ledger(), CycleCategory::HwPage);
    ++walkPopulates_;

    const std::uint64_t nodes_before = space.mpt.nodePages();
    Addr frame = pool_.allocFrame();
    space.mpt.map(pageBase(vaddr), frame);
    aggTable_ += space.mpt.nodePages() - nodes_before;
    ++aggArena_;
    ++residentArena_;

    // Populating the entry is a short read-modify-write at the
    // controller; the PTE line accesses themselves are charged by the
    // page walker.
    env.chargeCycles(4);
    chargeRefills(env);
    return frame;
}

void
HwPageAllocator::freeArena(MementoSpace &space, Addr arena_base, Env &env)
{
    CategoryScope scope(env.ledger(), CycleCategory::HwPage);
    ++arenaFrees_;
    const unsigned cls = geometry_.classOf(arena_base);
    const std::uint64_t span = geometry_.arenaSpan(cls);

    for (Addr va = arena_base; va < arena_base + span; va += kPageSize) {
        unsigned freed_nodes = 0;
        Addr frame = space.mpt.unmap(va, freed_nodes);
        if (frame != kNullAddr) {
            pool_.freeFrame(frame);
            --residentArena_;
            // Invalidate the stale translation on every core that has
            // walked this address space (single core here).
            env.tlbInvalidate(va);
            ++shootdowns_;
            env.chargeCycles(2);
        }
    }
    chargeRefills(env);
}

} // namespace memento
