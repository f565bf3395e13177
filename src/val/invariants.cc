#include "val/invariants.h"

#include <algorithm>
#include <sstream>
#include <set>
#include <vector>

#include "machine/machine.h"
#include "sim/error.h"

namespace memento {

std::string
InvariantReport::summary(std::size_t max_items) const
{
    std::ostringstream os;
    const std::size_t shown = std::min(max_items, violations.size());
    for (std::size_t i = 0; i < shown; ++i) {
        if (i)
            os << "; ";
        os << violations[i];
    }
    if (violations.size() > shown)
        os << "; ... (" << violations.size() - shown << " more)";
    return os.str();
}

void
InvariantChecker::checkLedger(Machine &m, std::vector<std::string> &v)
{
    const CycleLedger &ledger = m.cycleLedger();
    Cycles by_category = 0;
    for (std::size_t i = 0; i < kNumCycleCategories; ++i)
        by_category += ledger.category(static_cast<CycleCategory>(i));
    if (by_category != ledger.total()) {
        std::ostringstream os;
        os << "ledger: category sum (" << by_category
           << ") != total cycles (" << ledger.total() << ")";
        v.push_back(os.str());
    }
}

void
InvariantChecker::checkBuddy(Machine &m, std::vector<std::string> &v)
{
    m.buddy().checkIntegrity(v);
}

void
InvariantChecker::checkCaches(Machine &m, std::vector<std::string> &v)
{
    CacheHierarchy &hier = m.hierarchy();
    hier.l1d().checkIntegrity(v);
    hier.l1i().checkIntegrity(v);
    hier.l2().checkIntegrity(v);
    hier.llc().checkIntegrity(v);

    // The LLC is inclusive of every inner level (back-invalidation on
    // LLC evictions); an inner-only line would lose coherence events.
    const Cache &llc = hier.llc();
    auto require_inclusion = [&](const Cache &inner) {
        inner.forEachLine([&](Addr line, bool dirty) {
            (void)dirty;
            if (!llc.contains(line)) {
                std::ostringstream os;
                os << inner.name() << ": line 0x" << std::hex << line
                   << " resident but absent from the inclusive LLC";
                v.push_back(os.str());
            }
        });
    };
    require_inclusion(hier.l1d());
    require_inclusion(hier.l1i());
    require_inclusion(hier.l2());
}

void
InvariantChecker::checkVirtualMemory(Machine &m, std::vector<std::string> &v)
{
    for (unsigned p = 0; p < m.processCount(); ++p) {
        Process &proc = m.processAt(p);
        const VirtualMemory &vm = proc.vm();
        const auto vmas = vm.vmaRanges();

        auto in_vma = [&](Addr va) {
            // vmas is sorted by base; find the last range starting <= va.
            auto it = std::upper_bound(
                vmas.begin(), vmas.end(), va,
                [](Addr a, const std::pair<Addr, Addr> &r) {
                    return a < r.first;
                });
            if (it == vmas.begin())
                return false;
            --it;
            return va >= it->first && va < it->second;
        };

        std::uint64_t mapped = 0;
        vm.pageTable().forEachMapping([&](Addr vpage, Addr ppage) {
            ++mapped;
            if (!in_vma(vpage)) {
                std::ostringstream os;
                os << proc.name() << ": page 0x" << std::hex << vpage
                   << " mapped outside every VMA";
                v.push_back(os.str());
            }
            if (!m.buddy().ownsLivePage(ppage)) {
                std::ostringstream os;
                os << proc.name() << ": page 0x" << std::hex << vpage
                   << " maps frame 0x" << ppage
                   << " the buddy allocator does not hold live";
                v.push_back(os.str());
            }
        });

        // Resident accounting: 4 KiB leaves plus huge-page mappings
        // must equal the user-resident count the pricing model uses.
        const std::uint64_t huge_pages =
            vm.hugeMappingCount() << (kHugePageShift - kPageShift);
        if (mapped + huge_pages != vm.residentUserPages()) {
            std::ostringstream os;
            os << proc.name() << ": mapped pages (" << mapped << " + "
               << huge_pages << " huge) != resident user pages ("
               << vm.residentUserPages() << ")";
            v.push_back(os.str());
        }
        if (vm.pageTable().nodePages() != vm.residentKernelPages()) {
            std::ostringstream os;
            os << proc.name() << ": page-table nodes ("
               << vm.pageTable().nodePages()
               << ") != resident kernel pages ("
               << vm.residentKernelPages() << ")";
            v.push_back(os.str());
        }
    }
}

void
InvariantChecker::checkMemento(Machine &m, std::vector<std::string> &v)
{
    HwObjectAllocator *hw_obj = m.hwObjectAllocator();
    if (!hw_obj)
        return;
    const ArenaGeometry &geo = hw_obj->geometry();
    const unsigned capacity = geo.objectsPerArena();
    std::uint64_t memento_pages = 0;

    for (unsigned p = 0; p < m.processCount(); ++p) {
        MementoSpace *space = m.mementoSpaceAt(p);
        if (!space)
            continue;
        const std::string &who = m.processAt(p).name();

        for (unsigned cls = 0; cls < kNumSmallClasses; ++cls) {
            const Addr base = geo.classBase(cls);
            const Addr limit = geo.classBase(cls + 1);
            const Addr bump = space->bump[cls];
            if (bump < base || bump > limit) {
                std::ostringstream os;
                os << who << ": class " << cls << " bump pointer 0x"
                   << std::hex << bump << " outside [0x" << base
                   << ", 0x" << limit << "]";
                v.push_back(os.str());
            } else if ((bump - base) % geo.arenaSpan(cls) != 0) {
                std::ostringstream os;
                os << who << ": class " << cls << " bump pointer 0x"
                   << std::hex << bump << " not arena-aligned";
                v.push_back(os.str());
            }
        }

        // Validate arenas in ascending VA order so a report with
        // several violations lists them deterministically.
        for (Addr va : space->arenas.sortedKeys()) {
            const ArenaState &state = space->arenas.at(va);
            std::ostringstream who_arena;
            who_arena << who << ": arena 0x" << std::hex << va;
            if (state.va != va)
                v.push_back(who_arena.str() + ": header VA field mismatch");
            if (!geo.inRegion(va) || geo.arenaBaseOf(va) != va ||
                geo.classOf(va) != state.szclass) {
                v.push_back(who_arena.str() +
                            ": base/class disagree with region geometry");
                continue;
            }
            if (state.allocated != state.bitmap.count()) {
                std::ostringstream os;
                os << who_arena.str() << ": allocated count ("
                   << std::dec << state.allocated
                   << ") != bitmap population (" << state.bitmap.count()
                   << ")";
                v.push_back(os.str());
            }
            if (state.allocated > capacity)
                v.push_back(who_arena.str() +
                            ": allocated exceeds arena capacity");
            if (state.bypassCounter > geo.arenaSpan(state.szclass) / 64)
                v.push_back(who_arena.str() +
                            ": bypass counter past the arena span");
        }

        // List discipline: avail holds non-full arenas, full holds full
        // ones, and no arena sits on two lists (HOT-resident arenas sit
        // on none). Each listed arena must exist in the header map.
        std::set<Addr> listed;
        auto check_list = [&](unsigned cls, const std::deque<Addr> &list,
                              bool want_full, const char *list_name) {
            for (Addr va : list) {
                std::ostringstream os;
                os << who << ": " << list_name << "[" << cls
                   << "] arena 0x" << std::hex << va;
                if (!listed.insert(va).second) {
                    v.push_back(os.str() + " linked on two lists");
                    continue;
                }
                const ArenaState *state = space->arenas.find(va);
                if (!state) {
                    v.push_back(os.str() + " has no header");
                    continue;
                }
                if (state->szclass != cls)
                    v.push_back(os.str() + " linked under the wrong class");
                if (state->full(capacity) != want_full)
                    v.push_back(os.str() + (want_full
                                    ? " on the full list but not full"
                                    : " on the avail list but full"));
            }
        };
        for (unsigned cls = 0; cls < kNumSmallClasses; ++cls) {
            check_list(cls, space->availList[cls], false, "avail");
            check_list(cls, space->fullList[cls], true, "full");
        }

        // Memento page table: arena pages must be in-region and backed
        // by frames the buddy allocator granted the pool.
        space->mpt.forEachMapping([&](Addr vpage, Addr ppage) {
            if (!geo.inRegion(vpage)) {
                std::ostringstream os;
                os << who << ": MPT maps 0x" << std::hex << vpage
                   << " outside the Memento region";
                v.push_back(os.str());
            }
            if (!m.buddy().ownsLivePage(ppage)) {
                std::ostringstream os;
                os << who << ": MPT frame 0x" << std::hex << ppage
                   << " not live in the buddy allocator";
                v.push_back(os.str());
            }
        });
        memento_pages += space->mpt.mappedPages();
    }

    // The HOT caches the current process's arenas only (flushed on
    // context switch): every valid entry must name a live arena of its
    // class, and a HOT-resident arena sits on neither list.
    Hot *hot = m.hot();
    MementoSpace *current = m.mementoSpace();
    if (hot && current) {
        for (unsigned cls = 0; cls < kNumSmallClasses; ++cls) {
            const HotEntry &e = hot->entry(cls);
            if (!e.valid)
                continue;
            const ArenaState *state = current->arenas.find(e.arenaVa);
            std::ostringstream os;
            os << "hot[" << cls << "]: arena 0x" << std::hex << e.arenaVa;
            if (!state) {
                v.push_back(os.str() + " not present in the header map");
                continue;
            }
            if (state->szclass != cls)
                v.push_back(os.str() + " cached under the wrong class");
            if (state->headerPa != e.arenaPa)
                v.push_back(os.str() + " cached with a stale header PA");
            auto on = [&](const std::deque<Addr> &list) {
                return std::find(list.begin(), list.end(), e.arenaVa) !=
                       list.end();
            };
            if (on(current->availList[cls]) || on(current->fullList[cls]))
                v.push_back(os.str() + " HOT-resident yet linked on a list");
        }
    }

    // Resident-arena accounting at the page allocator.
    if (HwPageAllocator *hw_page = m.hwPageAllocator()) {
        if (memento_pages != hw_page->residentArenaPages()) {
            std::ostringstream os;
            os << "hwpage: MPT-mapped pages (" << memento_pages
               << ") != resident arena pages ("
               << hw_page->residentArenaPages() << ")";
            v.push_back(os.str());
        }
    }
}

InvariantReport
InvariantChecker::check(Machine &machine)
{
    InvariantReport report;
    checkLedger(machine, report.violations);
    checkBuddy(machine, report.violations);
    checkCaches(machine, report.violations);
    checkVirtualMemory(machine, report.violations);
    checkMemento(machine, report.violations);
    return report;
}

void
InvariantChecker::enforce(Machine &machine, const std::string &when)
{
    InvariantReport report = check(machine);
    sim_error_if(!report.clean(), ErrorCategory::Corruption,
                 "invariant check failed (", when, "): ",
                 report.summary());
}

} // namespace memento
