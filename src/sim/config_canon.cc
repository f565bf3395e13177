#include "sim/config_canon.h"

#include <cstdio>
#include <sstream>

namespace memento {
namespace {

/** Append one `name=value` line. */
class CanonWriter
{
  public:
    void
    field(const char *name, std::uint64_t v)
    {
        os_ << name << '=' << v << '\n';
    }

    void
    field(const char *name, unsigned v)
    {
        os_ << name << '=' << v << '\n';
    }

    void
    field(const char *name, bool v)
    {
        os_ << name << '=' << (v ? 1 : 0) << '\n';
    }

    void
    field(const char *name, double v)
    {
        // %.17g renders any double exactly (binary round-trip).
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        os_ << name << '=' << buf << '\n';
    }

    void
    field(const char *name, const std::string &v)
    {
        os_ << name << '=' << v << '\n';
    }

    void
    hexField(const char *name, std::uint64_t v)
    {
        os_ << name << "=0x" << std::hex << v << std::dec << '\n';
    }

    std::string str() const { return os_.str(); }

  private:
    std::ostringstream os_;
};

void
cacheFields(CanonWriter &w, const char *prefix, const CacheConfig &c)
{
    const std::string p(prefix);
    w.field((p + ".size").c_str(), c.sizeBytes);
    w.field((p + ".ways").c_str(), c.ways);
    w.field((p + ".latency").c_str(), c.latency);
}

void
tlbFields(CanonWriter &w, const char *prefix, const TlbConfig &t)
{
    const std::string p(prefix);
    w.field((p + ".entries").c_str(), t.entries);
    w.field((p + ".ways").c_str(), t.ways);
    w.field((p + ".latency").c_str(), t.latency);
}

} // namespace

std::string
canonicalConfigText(const MachineConfig &cfg)
{
    CanonWriter w;

    w.field("core.freq_ghz", cfg.core.freqGhz);
    w.field("core.issue_width", cfg.core.issueWidth);
    w.field("core.rob_entries", cfg.core.robEntries);
    w.field("core.lsq_entries", cfg.core.lsqEntries);
    w.field("core.base_ipc", cfg.core.baseIpc);
    w.field("core.load_hidden", cfg.core.memLatencyHiddenFraction);
    w.field("core.store_hidden", cfg.core.storeLatencyHiddenFraction);

    cacheFields(w, "l1d", cfg.l1d);
    cacheFields(w, "l1i", cfg.l1i);
    cacheFields(w, "l2", cfg.l2);
    cacheFields(w, "llc", cfg.llc);
    tlbFields(w, "tlb.l1", cfg.l1Tlb);
    tlbFields(w, "tlb.l2", cfg.l2Tlb);

    w.field("dram.size", cfg.dram.sizeBytes);
    w.field("dram.banks", cfg.dram.banks);
    w.field("dram.hit_latency", cfg.dram.hitLatency);
    w.field("dram.miss_latency", cfg.dram.missLatency);
    w.field("dram.bank_busy_penalty", cfg.dram.bankBusyPenalty);
    w.field("dram.row_bytes", cfg.dram.rowBytes);

    w.field("kernel.mode_switch_cycles", cfg.kernel.modeSwitchCycles);
    w.field("kernel.mmap_instructions", cfg.kernel.mmapInstructions);
    w.field("kernel.munmap_base_instructions",
            cfg.kernel.munmapBaseInstructions);
    w.field("kernel.munmap_per_page_instructions",
            cfg.kernel.munmapPerPageInstructions);
    w.field("kernel.fault_instructions", cfg.kernel.faultInstructions);
    w.field("kernel.buddy_alloc_instructions",
            cfg.kernel.buddyAllocInstructions);
    w.field("kernel.buddy_free_instructions",
            cfg.kernel.buddyFreeInstructions);
    w.field("kernel.context_switch_cycles",
            cfg.kernel.contextSwitchCycles);
    w.field("kernel.map_populate", cfg.kernel.mapPopulate);
    w.field("kernel.thp", cfg.kernel.transparentHugePages);
    w.field("kernel.thp_zero_cycles_per_page",
            cfg.kernel.thpZeroCyclesPerPage);

    w.field("memento.enabled", cfg.memento.enabled);
    w.field("memento.num_size_classes", cfg.memento.numSizeClasses);
    w.field("memento.max_small_size", cfg.memento.maxSmallSize);
    w.field("memento.objects_per_arena", cfg.memento.objectsPerArena);
    w.field("memento.hot_latency", cfg.memento.hotLatency);
    w.field("memento.aac_latency", cfg.memento.aacLatency);
    w.field("memento.aac_entries", cfg.memento.aacEntries);
    w.field("memento.pool_refill", cfg.memento.pagePoolRefill);
    w.field("memento.pool_low_water", cfg.memento.pagePoolLowWater);
    w.field("memento.bypass", cfg.memento.bypassEnabled);
    w.field("memento.eager_prefetch", cfg.memento.eagerArenaPrefetch);
    w.field("memento.mallacc", cfg.memento.mallaccMode);

    w.field("tuning.pymalloc_arena", cfg.tuning.pymallocArenaBytes);
    w.field("tuning.jemalloc_chunk", cfg.tuning.jemallocChunkBytes);
    w.field("tuning.go_gc_trigger", cfg.tuning.goGcTriggerBytes);

    w.hexField("layout.heap_base", cfg.layout.heapBase);
    w.hexField("layout.image_base", cfg.layout.imageBase);
    w.hexField("layout.memento_region_start",
               cfg.layout.mementoRegionStart);
    w.field("layout.per_class_region_bytes",
            cfg.layout.perClassRegionBytes);

    w.field("check.interval", cfg.check.interval);
    w.field("check.max_ops", cfg.check.maxOps);
    w.field("check.max_cycles", cfg.check.maxCycles);

    // Per-run fault plan: deterministically changes results, so it is
    // part of the cell identity. The store-level crash faults
    // (inject.store_*) and the sweep.* execution policy are NOT
    // serialized: they perturb how the sweep executes, never what any
    // cell computes, and including them would make a resumed sweep
    // miss every cell its predecessor cached. The fleet.* keys are
    // excluded for the same reason: a workload's per-invocation
    // profile cell is independent of the fleet built on top of it.
    w.field("inject.pool_exhaust_at", cfg.inject.poolExhaustAtPage);
    w.field("inject.mmap_fail_at", cfg.inject.mmapFailAt);
    w.field("inject.trace_truncate_at", cfg.inject.traceTruncateAt);
    w.field("inject.trace_corrupt_at", cfg.inject.traceCorruptAt);
    w.field("inject.arena_bit_flip_at", cfg.inject.arenaBitFlipAt);
    w.field("inject.workload", cfg.inject.workload);

    return w.str();
}

} // namespace memento
