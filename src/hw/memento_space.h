/**
 * @file
 * Per-process Memento state: everything the hardware allocators operate
 * on that belongs to one address space.
 *
 * The HOT and AAC are per-core hardware and get flushed on context
 * switches; this state is the memory-resident truth they cache — arena
 * headers, the per-class available/full arena lists, the per-class
 * arena bump pointers, and the hardware-built Memento page table.
 */

#ifndef MEMENTO_HW_MEMENTO_SPACE_H
#define MEMENTO_HW_MEMENTO_SPACE_H

#include <deque>
#include <vector>

#include "hw/arena.h"
#include "os/page_table.h"
#include "sim/addr_map.h"

namespace memento {

/** Per-process Memento allocator state. */
struct MementoSpace
{
    MementoSpace(const ArenaGeometry &geometry, FrameSource &pool_frames)
        : bump(kNumSmallClasses),
          availList(kNumSmallClasses),
          fullList(kNumSmallClasses),
          mpt(pool_frames)
    {
        for (unsigned cls = 0; cls < kNumSmallClasses; ++cls)
            bump[cls] = geometry.classBase(cls);
    }

    /** Next un-handed-out arena VA per size class (§3.2 pointers). */
    std::vector<Addr> bump;

    /** Memory-resident arena headers, keyed by arena base VA. */
    AddrMap<ArenaState> arenas;

    /** Per-class list of arenas with at least one free object. */
    std::vector<std::deque<Addr>> availList;
    /** Per-class list of completely full arenas. */
    std::vector<std::deque<Addr>> fullList;

    /** The hardware-managed Memento page table (MPTR root). */
    PageTable mpt;
};

} // namespace memento

#endif // MEMENTO_HW_MEMENTO_SPACE_H
