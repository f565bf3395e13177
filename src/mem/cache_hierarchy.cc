#include "mem/cache_hierarchy.h"

namespace memento {

CacheHierarchy::CacheHierarchy(const MachineConfig &cfg, StatRegistry &stats)
    : l1d_("l1d", cfg.l1d, stats),
      l1i_("l1i", cfg.l1i, stats),
      l2_("l2", cfg.l2, stats),
      llc_("llc", cfg.llc, stats),
      dram_(cfg.dram, stats),
      bypasses_(stats.counter("hier.bypassed_lines")),
      demandFills_(stats.counter("hier.demand_fills"))
{
}

} // namespace memento
