#include "sim/config_schema.h"

#include <algorithm>
#include <cctype>
#include <limits>

#include "sim/error.h"

namespace memento {
namespace {

constexpr double kNoMin = 0.0;
constexpr double kNoMax = 1e30; // Effectively unbounded.

/** Setter shorthand: the lambda body stores `v` into the config `c`. */
#define MEMENTO_SET(expr)                                                   \
    +[](MachineConfig &c, const ConfigValue &v) {                           \
        (void)v;                                                            \
        expr;                                                               \
    }

const std::vector<ConfigKeyInfo> &
schemaTable()
{
    // Sorted by name; checked by the SchemaSorted test.
    static const std::vector<ConfigKeyInfo> table = {
        {"check.interval", ConfigType::U64, kNoMin, kNoMax,
         "invariant-checker period in trace ops (0 = off)",
         MEMENTO_SET(c.check.interval = v.u64)},
        {"check.max_cycles", ConfigType::U64, kNoMin, kNoMax,
         "watchdog cycle budget per run (0 = off)",
         MEMENTO_SET(c.check.maxCycles = v.u64)},
        {"check.max_ops", ConfigType::U64, kNoMin, kNoMax,
         "watchdog trace-op budget per run (0 = off)",
         MEMENTO_SET(c.check.maxOps = v.u64)},
        {"core.base_ipc", ConfigType::F64, 0.01, 64,
         "non-memory retirement IPC",
         MEMENTO_SET(c.core.baseIpc = v.f64)},
        {"core.freq_ghz", ConfigType::F64, 0.01, 100, "core clock (GHz)",
         MEMENTO_SET(c.core.freqGhz = v.f64)},
        {"core.load_hidden", ConfigType::F64, 0, 1,
         "fraction of load latency hidden by the OOO window",
         MEMENTO_SET(c.core.memLatencyHiddenFraction = v.f64)},
        {"core.store_hidden", ConfigType::F64, 0, 1,
         "fraction of store latency hidden by the store buffer",
         MEMENTO_SET(c.core.storeLatencyHiddenFraction = v.f64)},
        {"dram.banks", ConfigType::U32, 1, 65536, "DRAM bank count",
         MEMENTO_SET(c.dram.banks = static_cast<unsigned>(v.u64))},
        {"dram.hit_latency", ConfigType::U64, kNoMin, 1e9,
         "row-hit latency (cycles)",
         MEMENTO_SET(c.dram.hitLatency = v.u64)},
        {"dram.miss_latency", ConfigType::U64, kNoMin, 1e9,
         "row-miss latency (cycles)",
         MEMENTO_SET(c.dram.missLatency = v.u64)},
        {"dram.size", ConfigType::U64, 1 << 20, 1ull << 48,
         "DRAM capacity (bytes)", MEMENTO_SET(c.dram.sizeBytes = v.u64)},
        {"fleet.arrival", ConfigType::String, kNoMin, kNoMax,
         "fleet arrival process: poisson, bursty, or diurnal",
         MEMENTO_SET(c.fleet.arrival = v.str)},
        {"fleet.burst_factor", ConfigType::F64, 1, 1000,
         "bursty arrivals: rate multiplier inside a burst",
         MEMENTO_SET(c.fleet.burstFactor = v.f64)},
        {"fleet.burst_ms", ConfigType::F64, 0.01, 1e6,
         "bursty arrivals: burst length (ms)",
         MEMENTO_SET(c.fleet.burstMs = v.f64)},
        {"fleet.cores", ConfigType::U32, 1, 4096,
         "simulated cores on the fleet node",
         MEMENTO_SET(c.fleet.cores = static_cast<unsigned>(v.u64))},
        {"fleet.invocations", ConfigType::U64, 1, 100'000'000,
         "total invocations the arrival process generates",
         MEMENTO_SET(c.fleet.invocations = v.u64)},
        {"fleet.keep_alive_ms", ConfigType::F64, kNoMin, 1e9,
         "keep-alive window for idle instances (ms; 0 = none)",
         MEMENTO_SET(c.fleet.keepAliveMs = v.f64)},
        {"fleet.memory_budget_pages", ConfigType::U64, kNoMin, kNoMax,
         "node RSS budget in pages (0 = unlimited)",
         MEMENTO_SET(c.fleet.memoryBudgetPages = v.u64)},
        {"fleet.mix", ConfigType::String, kNoMin, kNoMax,
         "workload mix: 'function', 'all', or one workload id",
         MEMENTO_SET(c.fleet.mix = v.str)},
        {"fleet.period_ms", ConfigType::F64, 0.01, 1e6,
         "bursty arrivals: burst period (ms)",
         MEMENTO_SET(c.fleet.periodMs = v.f64)},
        {"fleet.rate_rps", ConfigType::F64, 0.01, 1e9,
         "mean arrival rate (invocations per second)",
         MEMENTO_SET(c.fleet.ratePerSec = v.f64)},
        {"fleet.seed", ConfigType::U64, kNoMin, kNoMax,
         "seed of the arrival-process RNG",
         MEMENTO_SET(c.fleet.seed = v.u64)},
        {"inject.arena_bit_flip_at", ConfigType::U64, kNoMin, kNoMax,
         "flip an arena bitmap bit after op N (0 = off)",
         MEMENTO_SET(c.inject.arenaBitFlipAt = v.u64)},
        {"inject.mmap_fail_at", ConfigType::U64, kNoMin, kNoMax,
         "fail the Nth mmap call (0 = off)",
         MEMENTO_SET(c.inject.mmapFailAt = v.u64)},
        {"inject.pool_exhaust_at", ConfigType::U64, kNoMin, kNoMax,
         "fail the page pool after N granted pages (0 = off)",
         MEMENTO_SET(c.inject.poolExhaustAtPage = v.u64)},
        {"inject.store_kill_at", ConfigType::U64, kNoMin, kNoMax,
         "kill the process after the Nth completed cell store (0 = off)",
         MEMENTO_SET(c.inject.storeKillAt = v.u64)},
        {"inject.store_torn_write", ConfigType::U64, kNoMin, kNoMax,
         "tear the Nth result-store cell write in half (0 = off)",
         MEMENTO_SET(c.inject.storeTornWriteAt = v.u64)},
        {"inject.trace_corrupt_at", ConfigType::U64, kNoMin, kNoMax,
         "corrupt the trace record at op N (0 = off)",
         MEMENTO_SET(c.inject.traceCorruptAt = v.u64)},
        {"inject.trace_truncate_at", ConfigType::U64, kNoMin, kNoMax,
         "truncate the replayed trace to N ops (0 = off)",
         MEMENTO_SET(c.inject.traceTruncateAt = v.u64)},
        {"inject.workload", ConfigType::String, kNoMin, kNoMax,
         "restrict the fault plan to this workload id",
         MEMENTO_SET(c.inject.workload = v.str)},
        {"kernel.fault_instructions", ConfigType::U64, kNoMin, 1e12,
         "instructions per minor page fault",
         MEMENTO_SET(c.kernel.faultInstructions = v.u64)},
        {"kernel.map_populate", ConfigType::Bool, kNoMin, kNoMax,
         "mmap eagerly populates pages",
         MEMENTO_SET(c.kernel.mapPopulate = v.boolean)},
        {"kernel.mmap_instructions", ConfigType::U64, kNoMin, 1e12,
         "instructions per mmap call",
         MEMENTO_SET(c.kernel.mmapInstructions = v.u64)},
        {"kernel.mode_switch_cycles", ConfigType::U64, kNoMin, 1e9,
         "user/kernel mode-switch cost (cycles)",
         MEMENTO_SET(c.kernel.modeSwitchCycles = v.u64)},
        {"kernel.thp", ConfigType::Bool, kNoMin, kNoMax,
         "transparent huge pages for anonymous faults",
         MEMENTO_SET(c.kernel.transparentHugePages = v.boolean)},
        {"l1d.latency", ConfigType::U64, kNoMin, 1e6,
         "L1D hit latency (cycles)", MEMENTO_SET(c.l1d.latency = v.u64)},
        {"l1d.size", ConfigType::U64, kLineSize, 1ull << 40,
         "L1D capacity (bytes)", MEMENTO_SET(c.l1d.sizeBytes = v.u64)},
        {"l1d.ways", ConfigType::U32, 1, 1024, "L1D associativity",
         MEMENTO_SET(c.l1d.ways = static_cast<unsigned>(v.u64))},
        {"l1i.latency", ConfigType::U64, kNoMin, 1e6,
         "L1I hit latency (cycles)", MEMENTO_SET(c.l1i.latency = v.u64)},
        {"l1i.size", ConfigType::U64, kLineSize, 1ull << 40,
         "L1I capacity (bytes)", MEMENTO_SET(c.l1i.sizeBytes = v.u64)},
        {"l1i.ways", ConfigType::U32, 1, 1024, "L1I associativity",
         MEMENTO_SET(c.l1i.ways = static_cast<unsigned>(v.u64))},
        {"l2.latency", ConfigType::U64, kNoMin, 1e6,
         "L2 hit latency (cycles)", MEMENTO_SET(c.l2.latency = v.u64)},
        {"l2.size", ConfigType::U64, kLineSize, 1ull << 40,
         "L2 capacity (bytes)", MEMENTO_SET(c.l2.sizeBytes = v.u64)},
        {"l2.ways", ConfigType::U32, 1, 1024, "L2 associativity",
         MEMENTO_SET(c.l2.ways = static_cast<unsigned>(v.u64))},
        {"layout.heap_base", ConfigType::U64, 4096, 1ull << 47,
         "base address of the conventional mmap heap",
         MEMENTO_SET(c.layout.heapBase = v.u64)},
        {"layout.memento_region_start", ConfigType::U64, 4096,
         1ull << 47, "Memento Region Start (MRS) register value",
         MEMENTO_SET(c.layout.mementoRegionStart = v.u64)},
        {"layout.per_class_region_bytes", ConfigType::U64, 4096,
         1ull << 40, "Memento region bytes reserved per size class",
         MEMENTO_SET(c.layout.perClassRegionBytes = v.u64)},
        {"llc.latency", ConfigType::U64, kNoMin, 1e6,
         "LLC hit latency (cycles)", MEMENTO_SET(c.llc.latency = v.u64)},
        {"llc.size", ConfigType::U64, kLineSize, 1ull << 40,
         "LLC capacity (bytes)", MEMENTO_SET(c.llc.sizeBytes = v.u64)},
        {"llc.ways", ConfigType::U32, 1, 1024, "LLC associativity",
         MEMENTO_SET(c.llc.ways = static_cast<unsigned>(v.u64))},
        {"memento.bypass", ConfigType::Bool, kNoMin, kNoMax,
         "enable the main-memory bypass mechanism",
         MEMENTO_SET(c.memento.bypassEnabled = v.boolean)},
        {"memento.eager_prefetch", ConfigType::Bool, kNoMin, kNoMax,
         "prefetch the next arena on last-object alloc",
         MEMENTO_SET(c.memento.eagerArenaPrefetch = v.boolean)},
        {"memento.enabled", ConfigType::Bool, kNoMin, kNoMax,
         "enable the Memento hardware",
         MEMENTO_SET(c.memento.enabled = v.boolean)},
        {"memento.hot_latency", ConfigType::U64, kNoMin, 1e6,
         "HOT hit latency (cycles)",
         MEMENTO_SET(c.memento.hotLatency = v.u64)},
        {"memento.mallacc", ConfigType::Bool, kNoMin, kNoMax,
         "idealized Mallacc comparator instead of Memento",
         MEMENTO_SET(c.memento.mallaccMode = v.boolean)},
        {"memento.objects_per_arena", ConfigType::U32, 1, 1 << 20,
         "objects per arena",
         MEMENTO_SET(c.memento.objectsPerArena =
                         static_cast<unsigned>(v.u64))},
        {"memento.pool_refill", ConfigType::U32, 1, 1 << 20,
         "pages granted per page-pool refill",
         MEMENTO_SET(c.memento.pagePoolRefill =
                         static_cast<unsigned>(v.u64))},
        {"sweep.cache_dir", ConfigType::String, kNoMin, kNoMax,
         "result-store directory for crash-safe resumable sweeps",
         MEMENTO_SET(c.sweep.cacheDir = v.str)},
        {"sweep.keep_going", ConfigType::Bool, kNoMin, kNoMax,
         "record per-cell failures and keep sweeping",
         MEMENTO_SET(c.sweep.keepGoing = v.boolean)},
        {"tlb.l1_entries", ConfigType::U32, 1, 1 << 24,
         "L1 TLB entry count",
         MEMENTO_SET(c.l1Tlb.entries = static_cast<unsigned>(v.u64))},
        {"tlb.l1_ways", ConfigType::U32, 1, 1024, "L1 TLB associativity",
         MEMENTO_SET(c.l1Tlb.ways = static_cast<unsigned>(v.u64))},
        {"tlb.l2_entries", ConfigType::U32, 1, 1 << 24,
         "L2 TLB entry count",
         MEMENTO_SET(c.l2Tlb.entries = static_cast<unsigned>(v.u64))},
        {"tlb.l2_ways", ConfigType::U32, 1, 1024, "L2 TLB associativity",
         MEMENTO_SET(c.l2Tlb.ways = static_cast<unsigned>(v.u64))},
        {"tuning.go_gc_trigger", ConfigType::U64, 1024, 1ull << 40,
         "Go GC trigger heap size (bytes)",
         MEMENTO_SET(c.tuning.goGcTriggerBytes = v.u64)},
        {"tuning.jemalloc_chunk", ConfigType::U64, 4096, 1ull << 40,
         "jemalloc chunk size (bytes)",
         MEMENTO_SET(c.tuning.jemallocChunkBytes = v.u64)},
        {"tuning.pymalloc_arena", ConfigType::U64, 4096, 1ull << 40,
         "pymalloc arena size (bytes)",
         MEMENTO_SET(c.tuning.pymallocArenaBytes = v.u64)},
    };
    return table;
}

#undef MEMENTO_SET

/** Integer grammar: decimal with k/m/g suffix, or 0x hexadecimal. */
bool
parseU64(const std::string &raw, std::uint64_t &out)
{
    std::string v = raw;
    std::uint64_t scale = 1;
    int base = 10;
    if (v.size() > 2 && v[0] == '0' &&
        (v[1] == 'x' || v[1] == 'X')) {
        base = 16;
    } else if (!v.empty()) {
        switch (std::tolower(static_cast<unsigned char>(v.back()))) {
          case 'k': scale = 1ull << 10; v.pop_back(); break;
          case 'm': scale = 1ull << 20; v.pop_back(); break;
          case 'g': scale = 1ull << 30; v.pop_back(); break;
          default: break;
        }
    }
    if (v.empty() || v[0] == '-')
        return false;
    std::size_t pos = 0;
    std::uint64_t parsed = 0;
    try {
        parsed = std::stoull(v, &pos, base);
    } catch (...) {
        return false;
    }
    if (pos != v.size())
        return false;
    if (scale != 1 && parsed > std::numeric_limits<std::uint64_t>::max() / scale)
        return false;
    out = parsed * scale;
    return true;
}

bool
parseF64(const std::string &raw, double &out)
{
    std::size_t pos = 0;
    try {
        out = std::stod(raw, &pos);
    } catch (...) {
        return false;
    }
    return pos == raw.size();
}

bool
parseBool(const std::string &raw, bool &out)
{
    std::string v = raw;
    std::transform(v.begin(), v.end(), v.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    if (v == "true" || v == "on" || v == "1" || v == "yes") {
        out = true;
        return true;
    }
    if (v == "false" || v == "off" || v == "0" || v == "no") {
        out = false;
        return true;
    }
    return false;
}

const char *
typeName(ConfigType type)
{
    switch (type) {
      case ConfigType::U64:
      case ConfigType::U32: return "integer";
      case ConfigType::F64: return "number";
      case ConfigType::Bool: return "boolean";
      case ConfigType::String: return "string";
    }
    return "value";
}

/**
 * Damerau-Levenshtein distance (optimal string alignment), the
 * standard "did you mean" metric: one edit covers an insertion, a
 * deletion, a substitution, or an adjacent transposition.
 */
std::size_t
editDistance(std::string_view a, std::string_view b)
{
    const std::size_t n = a.size(), m = b.size();
    std::vector<std::vector<std::size_t>> d(n + 1,
                                            std::vector<std::size_t>(m + 1));
    for (std::size_t i = 0; i <= n; ++i)
        d[i][0] = i;
    for (std::size_t j = 0; j <= m; ++j)
        d[0][j] = j;
    for (std::size_t i = 1; i <= n; ++i) {
        for (std::size_t j = 1; j <= m; ++j) {
            const std::size_t sub = a[i - 1] == b[j - 1] ? 0 : 1;
            d[i][j] = std::min({d[i - 1][j] + 1, d[i][j - 1] + 1,
                                d[i - 1][j - 1] + sub});
            if (i > 1 && j > 1 && a[i - 1] == b[j - 2] &&
                a[i - 2] == b[j - 1]) {
                d[i][j] = std::min(d[i][j], d[i - 2][j - 2] + 1);
            }
        }
    }
    return d[n][m];
}

} // namespace

const std::vector<ConfigKeyInfo> &
configSchema()
{
    return schemaTable();
}

const ConfigKeyInfo *
findConfigKey(std::string_view key)
{
    const std::vector<ConfigKeyInfo> &schema = schemaTable();
    const auto it = std::lower_bound(
        schema.begin(), schema.end(), key,
        [](const ConfigKeyInfo &info, std::string_view k) {
            return std::string_view(info.name) < k;
        });
    if (it == schema.end() || std::string_view(it->name) != key)
        return nullptr;
    return &*it;
}

ConfigParseStatus
tryParseConfigValue(const ConfigKeyInfo &info, const std::string &raw,
                    ConfigValue &out, std::string &why)
{
    double numeric = 0.0;
    switch (info.type) {
      case ConfigType::U64:
      case ConfigType::U32:
        if (!parseU64(raw, out.u64)) {
            why = "bad integer '" + raw + "'";
            return ConfigParseStatus::BadValue;
        }
        numeric = static_cast<double>(out.u64);
        break;
      case ConfigType::F64:
        if (!parseF64(raw, out.f64)) {
            why = "bad number '" + raw + "'";
            return ConfigParseStatus::BadValue;
        }
        numeric = out.f64;
        break;
      case ConfigType::Bool:
        if (!parseBool(raw, out.boolean)) {
            why = "bad boolean '" + raw + "'";
            return ConfigParseStatus::BadValue;
        }
        return ConfigParseStatus::Ok;
      case ConfigType::String:
        out.str = raw;
        return ConfigParseStatus::Ok;
    }
    const double u32_cap =
        static_cast<double>(std::numeric_limits<std::uint32_t>::max());
    const double max =
        info.type == ConfigType::U32 ? std::min(info.maxValue, u32_cap)
                                     : info.maxValue;
    if (numeric < info.minValue || numeric > max) {
        why = detail::formatMsg("value ", raw, " out of range [",
                                info.minValue, ", ", max, "]");
        return ConfigParseStatus::OutOfRange;
    }
    return ConfigParseStatus::Ok;
}

ConfigValue
parseConfigValue(const ConfigKeyInfo &info, const std::string &key,
                 const std::string &raw)
{
    ConfigValue value;
    std::string why;
    switch (tryParseConfigValue(info, raw, value, why)) {
      case ConfigParseStatus::Ok:
        return value;
      case ConfigParseStatus::BadValue:
        sim_error(ErrorCategory::Config, "config: bad ",
                  typeName(info.type), " for ", key, ": '", raw, "'");
      case ConfigParseStatus::OutOfRange:
        sim_error(ErrorCategory::Config, "config: ", why, " for ", key);
    }
    sim_error(ErrorCategory::Config, "config: bad value for ", key);
}

std::string
suggestConfigKey(std::string_view key)
{
    const ConfigKeyInfo *best = nullptr;
    std::size_t best_dist = ~std::size_t{0};
    for (const ConfigKeyInfo &info : schemaTable()) {
        const std::size_t dist = editDistance(key, info.name);
        if (dist < best_dist) {
            best_dist = dist;
            best = &info;
        }
    }
    // A plausible typo is a short edit relative to the key length;
    // beyond that a suggestion is noise, not help.
    if (best == nullptr || best_dist > std::max<std::size_t>(2, key.size() / 4))
        return "";
    return best->name;
}

} // namespace memento
