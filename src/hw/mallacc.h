/**
 * @file
 * Idealized Mallacc comparator (§6.7).
 *
 * Mallacc (Kanev et al., ASPLOS'17) accelerates TCMalloc's userspace
 * fast paths with a small malloc cache. Following the paper's own
 * idealization, this model gives the malloc cache zero latency and a
 * 100% hit rate: the software allocator's fast-path instruction and
 * metadata costs vanish, while slow paths (central-list transfers, span
 * carving, page-heap growth) and *all kernel memory management* remain —
 * which is precisely the gap Memento closes.
 */

#ifndef MEMENTO_HW_MALLACC_H
#define MEMENTO_HW_MALLACC_H

#include "rt/tcmalloc.h"

namespace memento {

/** TCMalloc with a perfect malloc cache = the idealized Mallacc. */
class MallaccAllocator : public TcMalloc
{
  public:
    MallaccAllocator(VirtualMemory &vm, StatRegistry &stats)
        : TcMalloc(vm, stats, idealParams())
    {
    }

    std::string name() const override { return "mallacc-ideal"; }

    /**
     * The idealization: Mallacc's malloc cache (size-class lookup,
     * free-list head caching, sampling) always hits at zero latency,
     * which zeroes the cached-path instructions and short-circuits the
     * dependent free-list load inside the object. The rest of the fast
     * path — metadata updates, list maintenance — and all slow paths
     * (central transfers, span carving, page-heap growth, every kernel
     * operation) stay in software, which is why the paper's idealized
     * Mallacc reaches only about half of Memento's gains on
     * DeathStarBench.
     */
    static Params
    idealParams()
    {
        Params params;
        params.cachedPathInstructions = 0;
        params.popTouchesObject = false;
        return params;
    }
};

} // namespace memento

#endif // MEMENTO_HW_MALLACC_H
