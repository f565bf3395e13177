#include "sim/config_schema.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <limits>
#include <type_traits>
#include <utility>

#include "sim/error.h"

namespace memento {
namespace {

constexpr double kNoMin = 0.0;
constexpr double kNoMax = 1e30; // Effectively unbounded.

/** The canonical text a key feeds: the one place that rule is decided. */
ConfigScope
scopeOf(std::string_view name)
{
    if (name.starts_with("fleet."))
        return ConfigScope::Fleet;
    if (name.starts_with("sweep.") || name.starts_with("inject.store_"))
        return ConfigScope::Policy;
    return ConfigScope::Cell;
}

/**
 * The entry for key @p name over the field that @p Field (a captureless
 * generic lambda) returns a reference to. The value type, the setter and
 * the renderer all follow from the field's C++ type.
 */
template <typename Field>
ConfigKeyInfo
makeKey(const char *name, double min_value, double max_value,
        const char *doc, Field)
{
    using T = std::remove_reference_t<decltype(Field{}(
        std::declval<MachineConfig &>()))>;
    constexpr bool is_bool = std::is_same_v<T, bool>;
    constexpr bool is_f64 = std::is_same_v<T, double>;
    constexpr bool is_str = std::is_same_v<T, std::string>;
    constexpr bool is_u32 = std::is_same_v<T, unsigned>;
    static_assert(is_bool || is_f64 || is_str || is_u32 ||
                      std::is_same_v<T, std::uint64_t>,
                  "config field of an unsupported type");
    constexpr ConfigType type = is_bool  ? ConfigType::Bool
                                : is_f64 ? ConfigType::F64
                                : is_str ? ConfigType::String
                                : is_u32 ? ConfigType::U32
                                         : ConfigType::U64;
    return {
        name, type, min_value, max_value, doc, scopeOf(name),
        +[](MachineConfig &c, const ConfigValue &v) {
            T &field = Field{}(c);
            if constexpr (is_bool)
                field = v.boolean;
            else if constexpr (is_f64)
                field = v.f64;
            else if constexpr (is_str)
                field = v.str;
            else
                field = static_cast<T>(v.u64);
        },
        +[](const MachineConfig &c, std::string &out) {
            const T &field = Field{}(c);
            if constexpr (is_bool) {
                out += field ? '1' : '0';
            } else if constexpr (is_f64) {
                char buf[32];
                std::snprintf(buf, sizeof buf, "%.17g", field);
                out += buf;
            } else if constexpr (is_str) {
                out += field;
            } else {
                out += std::to_string(field);
            }
        }};
}

/** Entry for @p name over the MachineConfig member @p field. */
#define MEMENTO_KEY(name, field, min_value, max_value, doc)                 \
    makeKey(name, min_value, max_value, doc,                                \
            [](auto &c) -> auto & { return c.field; })

const std::vector<ConfigKeyInfo> &
schemaTable()
{
    // Sorted by name; checked by the SchemaSorted test.
    static const std::vector<ConfigKeyInfo> table = {
        MEMENTO_KEY("check.interval", check.interval, kNoMin, kNoMax,
                    "invariant-checker period in trace ops (0 = off)"),
        MEMENTO_KEY("check.max_cycles", check.maxCycles, kNoMin, kNoMax,
                    "watchdog cycle budget per run (0 = off)"),
        MEMENTO_KEY("check.max_ops", check.maxOps, kNoMin, kNoMax,
                    "watchdog trace-op budget per run (0 = off)"),
        MEMENTO_KEY("core.base_ipc", core.baseIpc, 0.01, 64,
                    "non-memory retirement IPC"),
        MEMENTO_KEY("core.freq_ghz", core.freqGhz, 0.01, 100,
                    "core clock (GHz)"),
        MEMENTO_KEY("core.load_hidden", core.memLatencyHiddenFraction, 0, 1,
                    "fraction of load latency hidden by the OOO window"),
        MEMENTO_KEY("core.store_hidden", core.storeLatencyHiddenFraction, 0, 1,
                    "fraction of store latency hidden by the store buffer"),
        MEMENTO_KEY("dram.banks", dram.banks, 1, 65536, "DRAM bank count"),
        MEMENTO_KEY("dram.hit_latency", dram.hitLatency, kNoMin, 1e9,
                    "row-hit latency (cycles)"),
        MEMENTO_KEY("dram.miss_latency", dram.missLatency, kNoMin, 1e9,
                    "row-miss latency (cycles)"),
        MEMENTO_KEY("dram.size", dram.sizeBytes, 1 << 20, 1ull << 48,
                    "DRAM capacity (bytes)"),
        MEMENTO_KEY("fleet.arrival", fleet.arrival, kNoMin, kNoMax,
                    "fleet arrival process: poisson, bursty, or diurnal"),
        MEMENTO_KEY("fleet.burst_factor", fleet.burstFactor, 1, 1000,
                    "bursty arrivals: rate multiplier inside a burst"),
        MEMENTO_KEY("fleet.burst_ms", fleet.burstMs, 0.01, 1e6,
                    "bursty arrivals: burst length (ms)"),
        MEMENTO_KEY("fleet.cores", fleet.cores, 1, 4096,
                    "simulated cores on the fleet node"),
        MEMENTO_KEY("fleet.invocations", fleet.invocations, 1, 100'000'000,
                    "total invocations the arrival process generates"),
        MEMENTO_KEY("fleet.keep_alive_ms", fleet.keepAliveMs, kNoMin, 1e9,
                    "keep-alive window for idle instances (ms; 0 = none)"),
        MEMENTO_KEY("fleet.memory_budget_pages", fleet.memoryBudgetPages,
                    kNoMin, kNoMax,
                    "node RSS budget in pages (0 = unlimited)"),
        MEMENTO_KEY("fleet.mix", fleet.mix, kNoMin, kNoMax,
                    "workload mix: 'function', 'all', or one workload id"),
        MEMENTO_KEY("fleet.period_ms", fleet.periodMs, 0.01, 1e6,
                    "bursty arrivals: burst period (ms)"),
        MEMENTO_KEY("fleet.rate_rps", fleet.ratePerSec, 0.01, 1e9,
                    "mean arrival rate (invocations per second)"),
        MEMENTO_KEY("fleet.seed", fleet.seed, kNoMin, kNoMax,
                    "seed of the arrival-process RNG"),
        MEMENTO_KEY("inject.arena_bit_flip_at", inject.arenaBitFlipAt, kNoMin,
                    kNoMax, "flip an arena bitmap bit after op N (0 = off)"),
        MEMENTO_KEY("inject.mmap_fail_at", inject.mmapFailAt, kNoMin, kNoMax,
                    "fail the Nth mmap call (0 = off)"),
        MEMENTO_KEY("inject.pool_exhaust_at", inject.poolExhaustAtPage, kNoMin,
                    kNoMax,
                    "fail the page pool after N granted pages (0 = off)"),
        MEMENTO_KEY("inject.store_kill_at", inject.storeKillAt, kNoMin, kNoMax,
                    "kill the process after the Nth completed cell store "
                    "(0 = off)"),
        MEMENTO_KEY("inject.store_torn_write", inject.storeTornWriteAt, kNoMin,
                    kNoMax,
                    "tear the Nth result-store cell write in half (0 = off)"),
        MEMENTO_KEY("inject.trace_corrupt_at", inject.traceCorruptAt, kNoMin,
                    kNoMax, "corrupt the trace record at op N (0 = off)"),
        MEMENTO_KEY("inject.trace_truncate_at", inject.traceTruncateAt, kNoMin,
                    kNoMax, "truncate the replayed trace to N ops (0 = off)"),
        MEMENTO_KEY("inject.workload", inject.workload, kNoMin, kNoMax,
                    "restrict the fault plan to this workload id"),
        MEMENTO_KEY("kernel.fault_instructions", kernel.faultInstructions,
                    kNoMin, 1e12, "instructions per minor page fault"),
        MEMENTO_KEY("kernel.map_populate", kernel.mapPopulate, kNoMin, kNoMax,
                    "mmap eagerly populates pages"),
        MEMENTO_KEY("kernel.mmap_instructions", kernel.mmapInstructions,
                    kNoMin, 1e12, "instructions per mmap call"),
        MEMENTO_KEY("kernel.mode_switch_cycles", kernel.modeSwitchCycles,
                    kNoMin, 1e9, "user/kernel mode-switch cost (cycles)"),
        MEMENTO_KEY("kernel.thp", kernel.transparentHugePages, kNoMin, kNoMax,
                    "transparent huge pages for anonymous faults"),
        MEMENTO_KEY("l1d.latency", l1d.latency, kNoMin, 1e6,
                    "L1D hit latency (cycles)"),
        MEMENTO_KEY("l1d.size", l1d.sizeBytes, kLineSize, 1ull << 40,
                    "L1D capacity (bytes)"),
        MEMENTO_KEY("l1d.ways", l1d.ways, 1, 1024, "L1D associativity"),
        MEMENTO_KEY("l1i.latency", l1i.latency, kNoMin, 1e6,
                    "L1I hit latency (cycles)"),
        MEMENTO_KEY("l1i.size", l1i.sizeBytes, kLineSize, 1ull << 40,
                    "L1I capacity (bytes)"),
        MEMENTO_KEY("l1i.ways", l1i.ways, 1, 1024, "L1I associativity"),
        MEMENTO_KEY("l2.latency", l2.latency, kNoMin, 1e6,
                    "L2 hit latency (cycles)"),
        MEMENTO_KEY("l2.size", l2.sizeBytes, kLineSize, 1ull << 40,
                    "L2 capacity (bytes)"),
        MEMENTO_KEY("l2.ways", l2.ways, 1, 1024, "L2 associativity"),
        MEMENTO_KEY("layout.heap_base", layout.heapBase, 4096, 1ull << 47,
                    "base address of the conventional mmap heap"),
        MEMENTO_KEY("layout.memento_region_start", layout.mementoRegionStart,
                    4096, 1ull << 47,
                    "Memento Region Start (MRS) register value"),
        MEMENTO_KEY("layout.per_class_region_bytes", layout.perClassRegionBytes,
                    4096, 1ull << 40,
                    "Memento region bytes reserved per size class"),
        MEMENTO_KEY("llc.latency", llc.latency, kNoMin, 1e6,
                    "LLC hit latency (cycles)"),
        MEMENTO_KEY("llc.size", llc.sizeBytes, kLineSize, 1ull << 40,
                    "LLC capacity (bytes)"),
        MEMENTO_KEY("llc.ways", llc.ways, 1, 1024, "LLC associativity"),
        MEMENTO_KEY("memento.bypass", memento.bypassEnabled, kNoMin, kNoMax,
                    "enable the main-memory bypass mechanism"),
        MEMENTO_KEY("memento.eager_prefetch", memento.eagerArenaPrefetch,
                    kNoMin, kNoMax,
                    "prefetch the next arena on last-object alloc"),
        MEMENTO_KEY("memento.enabled", memento.enabled, kNoMin, kNoMax,
                    "enable the Memento hardware"),
        MEMENTO_KEY("memento.hot_latency", memento.hotLatency, kNoMin, 1e6,
                    "HOT hit latency (cycles)"),
        MEMENTO_KEY("memento.mallacc", memento.mallaccMode, kNoMin, kNoMax,
                    "idealized Mallacc comparator instead of Memento"),
        MEMENTO_KEY("memento.objects_per_arena", memento.objectsPerArena, 1,
                    256, "objects per arena (one header bitmap bit each)"),
        MEMENTO_KEY("memento.pool_refill", memento.pagePoolRefill, 1, 1 << 20,
                    "pages granted per page-pool refill"),
        MEMENTO_KEY("sweep.cache_dir", sweep.cacheDir, kNoMin, kNoMax,
                    "result-store directory for crash-safe resumable sweeps"),
        MEMENTO_KEY("sweep.keep_going", sweep.keepGoing, kNoMin, kNoMax,
                    "record per-cell failures and keep sweeping"),
        MEMENTO_KEY("tlb.l1_entries", l1Tlb.entries, 1, 1 << 24,
                    "L1 TLB entry count"),
        MEMENTO_KEY("tlb.l1_ways", l1Tlb.ways, 1, 1024,
                    "L1 TLB associativity"),
        MEMENTO_KEY("tlb.l2_entries", l2Tlb.entries, 1, 1 << 24,
                    "L2 TLB entry count"),
        MEMENTO_KEY("tlb.l2_ways", l2Tlb.ways, 1, 1024,
                    "L2 TLB associativity"),
        MEMENTO_KEY("tuning.go_gc_trigger", tuning.goGcTriggerBytes, 1024,
                    1ull << 40, "Go GC trigger heap size (bytes)"),
        MEMENTO_KEY("tuning.jemalloc_chunk", tuning.jemallocChunkBytes, 4096,
                    1ull << 40, "jemalloc chunk size (bytes)"),
        MEMENTO_KEY("tuning.pymalloc_arena", tuning.pymallocArenaBytes, 4096,
                    1ull << 40, "pymalloc arena size (bytes)"),
    };
    return table;
}

#undef MEMENTO_KEY

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
