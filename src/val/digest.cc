#include "val/digest.h"

#include <iomanip>
#include <sstream>

#include "machine/machine.h"

namespace memento {

namespace {

void
addCache(DigestBuilder &d, const Cache &cache)
{
    d.add(cache.name());
    // forEachLine visits lines_ in index order: deterministic.
    cache.forEachLine([&](Addr line, bool dirty) {
        d.add(line);
        d.add(static_cast<std::uint64_t>(dirty));
    });
}

void
addPageTable(DigestBuilder &d, const PageTable &table)
{
    d.add(table.mappedPages());
    d.add(table.nodePages());
    table.forEachMapping([&](Addr vpage, Addr ppage) {
        d.add(vpage);
        d.add(ppage);
    });
}

void
addSpace(DigestBuilder &d, const MementoSpace &space)
{
    for (Addr bump : space.bump)
        d.add(bump);

    // Headers by ascending base VA, not the map's slot order.
    for (Addr va : space.arenas.sortedKeys()) {
        const ArenaState &state = *space.arenas.find(va);
        d.add(state.va);
        d.add(state.headerPa);
        d.add(state.szclass);
        d.add(state.ownerThread);
        d.add(state.allocated);
        d.add(state.bypassCounter);
        for (unsigned w = 0; w < SlotBitmap::kWords; ++w)
            d.add(state.bitmap.word(w));
    }

    for (const auto &list : space.availList) {
        d.add(static_cast<std::uint64_t>(list.size()));
        for (Addr va : list)
            d.add(va);
    }
    for (const auto &list : space.fullList) {
        d.add(static_cast<std::uint64_t>(list.size()));
        for (Addr va : list)
            d.add(va);
    }
    addPageTable(d, space.mpt);
}

} // namespace

std::uint64_t
digestMachine(Machine &machine)
{
    DigestBuilder d;

    // Statistics (std::map snapshot: sorted, deterministic).
    for (const auto &[name, value] : machine.stats().snapshot()) {
        d.add(name);
        d.add(value);
    }

    // Cycle ledger.
    const CycleLedger &ledger = machine.cycleLedger();
    d.add(ledger.total());
    for (std::size_t i = 0; i < kNumCycleCategories; ++i)
        d.add(ledger.category(static_cast<CycleCategory>(i)));
    d.add(machine.instructions());

    // Caches.
    addCache(d, machine.hierarchy().l1d());
    addCache(d, machine.hierarchy().l1i());
    addCache(d, machine.hierarchy().l2());
    addCache(d, machine.hierarchy().llc());

    // Per-process address spaces and Memento state.
    d.add(machine.processCount());
    for (unsigned p = 0; p < machine.processCount(); ++p) {
        Process &proc = machine.processAt(p);
        d.add(proc.name());
        d.add(static_cast<std::uint64_t>(proc.pid()));

        const VirtualMemory &vm = proc.vm();
        for (const auto &[base, end] : vm.vmaRanges()) {
            d.add(base);
            d.add(end);
        }
        d.add(vm.residentUserPages());
        d.add(vm.residentKernelPages());
        addPageTable(d, vm.pageTable());

        const MementoRegs &regs = proc.mementoRegs();
        d.add(regs.mrs);
        d.add(regs.mre);
        d.add(regs.mptr);

        if (const MementoSpace *space = machine.mementoSpaceAt(p))
            addSpace(d, *space);
    }

    return d.value();
}

std::string
digestToHex(std::uint64_t digest)
{
    std::ostringstream os;
    os << std::hex << std::setfill('0') << std::setw(16) << digest;
    return os.str();
}

} // namespace memento
