/**
 * @file
 * Machine configuration: Table 3 of the paper plus Memento parameters,
 * OS cost-model knobs, and the simulated address-space layout.
 *
 * Every field here is set by exactly one key of the schema
 * (sim/config_schema.cc), and that same entry renders it into the
 * canonical texts (sim/config_canon.h). A model parameter that no key
 * sets is not a field: it is a named constant next to the code that
 * reads it (the TLB latencies in mem/tlb.h, the DRAM row size, the
 * kernel's munmap and buddy costs), and the size classes come from
 * sim/size_class.h.
 *
 * All latencies are in core clock cycles at core.freqGhz. Defaults mirror
 * the paper's simulated system (4-issue OOO @ 3 GHz, 32 KB L1s, 256 KB L2,
 * 2 MB LLC slice, 64-/2048-entry TLBs, DDR4-3200, 64-entry HOT, 32-entry
 * AAC).
 */

#ifndef MEMENTO_SIM_CONFIG_H
#define MEMENTO_SIM_CONFIG_H

#include <cstdint>
#include <string>
#include <vector>

#include "sim/size_class.h"
#include "sim/types.h"

namespace memento {

/** Geometry and latency of one cache level. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 0;
    unsigned ways = 1;
    Cycles latency = 1;

    std::uint64_t numSets() const { return sizeBytes / (ways * kLineSize); }
};

/** Geometry of one TLB level (its latency is a constant in mem/tlb.h). */
struct TlbConfig
{
    unsigned entries = 0;
    unsigned ways = 1;
};

/** DRAM timing and geometry (DDR4-3200-like, expressed in core cycles). */
struct DramConfig
{
    std::uint64_t sizeBytes = 64ull << 30;
    unsigned banks = 16;
    /** Row-hit access latency (CL + transfer). */
    Cycles hitLatency = 75;
    /** Row-miss access latency (tRP + tRCD + CL + transfer). */
    Cycles missLatency = 135;
};

/** Core front/back-end approximation of the 4-issue OOO core. */
struct CoreConfig
{
    double freqGhz = 3.0;
    /**
     * Average non-memory retirement IPC used to convert instruction
     * counts into cycles. Memory stalls are charged separately by the
     * hierarchy, so this models compute-bound issue behaviour only.
     */
    double baseIpc = 2.0;
    /**
     * Fraction of a load's hierarchy latency that the OOO window
     * hides on average (MLP/overlap factor). 0 = fully exposed.
     */
    double memLatencyHiddenFraction = 0.55;
    /**
     * Fraction of a store's latency hidden by the store buffer /
     * write-combining; stores rarely stall retirement.
     */
    double storeLatencyHiddenFraction = 0.92;

    /** Cycles to retire @p n instructions at baseIpc, rounded. */
    Cycles
    instructionCycles(InstCount n) const
    {
        return static_cast<Cycles>(static_cast<double>(n) / baseIpc + 0.5);
    }
};

/** Kernel cost model (instruction budgets, calibrated in DESIGN.md). */
struct KernelConfig
{
    /** User->kernel->user mode switch cost, charged per syscall/fault. */
    Cycles modeSwitchCycles = 300;
    /** Instructions executed by mmap (VMA setup, bookkeeping). */
    InstCount mmapInstructions = 1800;
    /**
     * Instructions for a minor (anonymous) page fault. Functions run
     * inside containers, where the fault path includes memcg charging
     * and cgroup accounting on top of the bare handler.
     */
    InstCount faultInstructions = 5000;
    /** Whether mmap eagerly populates pages (MAP_POPULATE study). */
    bool mapPopulate = false;
    /**
     * Transparent huge pages: anonymous faults try to back a whole
     * 2 MiB block with one huge page (shorter walks, bigger TLB reach,
     * fewer faults — at an internal-fragmentation cost). The software
     * counter-proposal to Memento's hardware page management.
     */
    bool transparentHugePages = false;
};

/** Memento hardware parameters. */
struct MementoConfig
{
    bool enabled = false;

    /** Objects per arena. */
    unsigned objectsPerArena = 256;
    /** HOT access latency for hits. */
    Cycles hotLatency = 2;
    /** Physical pages the OS grants the page allocator per refill. */
    unsigned pagePoolRefill = 64;
    /** Enable the main-memory bypass mechanism. */
    bool bypassEnabled = true;
    /** Eagerly prefetch the next available arena on last-object alloc. */
    bool eagerArenaPrefetch = true;
    /** Enable the idealized Mallacc comparator instead of Memento. */
    bool mallaccMode = false;
};

/** Software-runtime tuning knobs (the §6.6 allocator-tuning study). */
struct RuntimeTuning
{
    /** pymalloc arena size (default 256 KB as in CPython). */
    std::uint64_t pymallocArenaBytes = 256 << 10;
    /** jemalloc chunk size. */
    std::uint64_t jemallocChunkBytes = 4 << 20;
    /** Go GC trigger for long-running (Platform) processes. */
    std::uint64_t goGcTriggerBytes = 1 << 20;
};

/** Runtime validation knobs (invariant checker + progress watchdog). */
struct CheckConfig
{
    /**
     * Run the cross-module invariant checker every this many trace ops
     * (and once at the end of each run). 0 disables periodic checks.
     */
    std::uint64_t interval = 0;
    /** Watchdog: abort a run after this many trace ops (0 = off). */
    std::uint64_t maxOps = 0;
    /** Watchdog: abort a run after this many cycles (0 = off). */
    Cycles maxCycles = 0;
};

/**
 * Deterministic fault-injection plan. All trigger points are keyed on
 * monotonically increasing per-run counters (op index, mmap call count,
 * pages granted), so a plan reproduces exactly across runs. A value of
 * 0 disables the corresponding fault; `workload` (when non-empty)
 * restricts the whole plan to the matching workload id.
 */
struct FaultPlan
{
    /** Fail the hardware page pool once it has been granted N pages. */
    std::uint64_t poolExhaustAtPage = 0;
    /** Fail the Nth mmap call of each process (1-based). */
    std::uint64_t mmapFailAt = 0;
    /** Truncate the replayed trace to its first N ops. */
    std::uint64_t traceTruncateAt = 0;
    /** Corrupt the trace record at op index N (1-based, bogus free). */
    std::uint64_t traceCorruptAt = 0;
    /** Flip one arena-header bitmap bit after op index N (1-based). */
    std::uint64_t arenaBitFlipAt = 0;
    /**
     * Result-store crash injection (1-based, counted per process):
     * tear the Nth cell write in half, or kill the process right after
     * the Nth completed cell store. These exercise the store's
     * torn-write quarantine and kill-resume paths; they are *not* part
     * of any() — they never change a cell's simulated result and are
     * excluded from canonical cache keys (see sim/config_canon.h).
     */
    std::uint64_t storeTornWriteAt = 0;
    std::uint64_t storeKillAt = 0;
    /** Apply the plan only to this workload id ("" = every workload). */
    std::string workload;

    /** True when any simulation fault is armed (store faults excluded). */
    bool
    any() const
    {
        return poolExhaustAtPage || mmapFailAt || traceTruncateAt ||
               traceCorruptAt || arenaBitFlipAt;
    }

    /** True when the plan applies to the workload @p id. */
    bool
    appliesTo(const std::string &id) const
    {
        return any() && (workload.empty() || workload == id);
    }
};

/**
 * Sweep execution policy: how a sweep runs, never what any cell
 * computes. These keys are deliberately excluded from canonical cache
 * keys (sim/config_canon.h) so that a resumed sweep hits the cells an
 * earlier invocation cached. Settable both via config keys (sweep.*)
 * and the corresponding CLI flags (--cache, --keep-going).
 */
struct SweepPolicyConfig
{
    /** Result-store directory ("" = caching disabled). */
    std::string cacheDir;
    /** Record per-cell failures and keep sweeping (same as --keep-going). */
    bool keepGoing = false;
};

/**
 * Fleet-scenario configuration (src/fleet): the arrival process, node
 * geometry, keep-alive window, and memory-pressure policy of the
 * fleet-scale serverless node simulation. Like sweep.*, fleet.* keys
 * shape a layer built *on top of* per-invocation runs: they are
 * excluded from canonical run-cell keys (a workload's invocation
 * profile does not depend on the fleet around it) and folded into the
 * fleet digest instead (fleetCanonicalText in src/fleet/fleet.h).
 */
struct FleetConfig
{
    /** Arrival process: "poisson", "bursty", or "diurnal". */
    std::string arrival = "poisson";
    /** Mean arrival rate (invocations per second). */
    double ratePerSec = 2000.0;
    /** Total invocations to generate. */
    std::uint64_t invocations = 2000;
    /** Simulated cores on the node. */
    unsigned cores = 8;
    /** Seed of the arrival process RNG. */
    std::uint64_t seed = 1;
    /** Keep-alive window for idle instances (ms; 0 = none). */
    double keepAliveMs = 50.0;
    /** Node RSS budget in pages (0 = unlimited). */
    std::uint64_t memoryBudgetPages = 0;
    /** bursty: rate multiplier inside a burst. */
    double burstFactor = 8.0;
    /** bursty: burst length and burst period (ms). */
    double burstMs = 5.0;
    double periodMs = 50.0;
    /** Workload mix: "function", "all", or one workload id. */
    std::string mix = "function";
};

/** Simulated virtual address-space layout (single process). */
struct AddressLayout
{
    /** Base of the conventional mmap heap region. */
    Addr heapBase = 0x0000'7000'0000ull;
    /** Memento Region Start register value. */
    Addr mementoRegionStart = 0x4000'0000'0000ull;
    /** Bytes of Memento region per size class (region = 64x this). */
    std::uint64_t perClassRegionBytes = 1ull << 30;

    /** Memento Region End: one per-class span for each size class. */
    Addr
    mementoRegionEnd() const
    {
        return mementoRegionStart + perClassRegionBytes * kNumSmallClasses;
    }
};

/** Top-level machine configuration. */
struct MachineConfig
{
    CoreConfig core;
    CacheConfig l1d{32 << 10, 8, 2};
    CacheConfig l1i{32 << 10, 8, 2};
    CacheConfig l2{256 << 10, 8, 14};
    CacheConfig llc{2 << 20, 16, 40};
    TlbConfig l1Tlb{64, 4};
    TlbConfig l2Tlb{2048, 12};
    DramConfig dram;
    KernelConfig kernel;
    MementoConfig memento;
    RuntimeTuning tuning;
    AddressLayout layout;
    CheckConfig check;
    FaultPlan inject;
    SweepPolicyConfig sweep;
    FleetConfig fleet;

    /** Convert a millisecond value to cycles at the core frequency. */
    Cycles
    msToCycles(double ms) const
    {
        return static_cast<Cycles>(ms * core.freqGhz * 1.0e6);
    }

    /** Convert cycles to milliseconds at the core frequency. */
    double
    cyclesToMs(Cycles cycles) const
    {
        return static_cast<double>(cycles) / (core.freqGhz * 1.0e6);
    }
};

/** The paper's Table 3 baseline configuration (Memento disabled). */
MachineConfig defaultConfig();

/** A cache or TLB geometry the models cannot build. */
struct GeometryProblem
{
    /** The two schema keys that set the level: size (or entries), ways. */
    std::string sizeKey;
    std::string waysKey;
    std::string message;
};

/**
 * The geometry rules of the cache and TLB models: every cache needs at
 * least one set and a power-of-two set count (its set index is a
 * mask), and every TLB at least one set (entries >= ways). Returns one
 * problem per level that breaks them, in schema order. The config
 * linter reports each at its keys' line as config-bad-value.
 */
std::vector<GeometryProblem> geometryProblems(const MachineConfig &cfg);

/** Throw SimError(Config) for the first of geometryProblems(@p cfg). */
void checkGeometry(const MachineConfig &cfg);

/** Table 3 configuration with Memento enabled. */
MachineConfig mementoConfig();

} // namespace memento

#endif // MEMENTO_SIM_CONFIG_H
