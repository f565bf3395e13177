#include "sa/config_lint.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <string_view>
#include <vector>

#include "fleet/arrivals.h"
#include "rt/jemalloc.h"
#include "rt/pymalloc.h"
#include "sim/config_file.h"
#include "sim/config_schema.h"
#include "sim/error.h"
#include "sim/logging.h"
#include "wl/workloads.h"

namespace memento {
namespace {

/**
 * True for a schema key that configures hardware the enable bit gates:
 * every memento.* key except memento.enabled itself.
 */
bool
isMementoHardwareKey(std::string_view key)
{
    return key.starts_with("memento.") && key != "memento.enabled";
}

} // namespace

std::vector<ConfigProblem>
configProblems(const MachineConfig &cfg)
{
    std::vector<ConfigProblem> problems;

    // The hardware owns [MRS, MRE) (§3.2): a heap inside it would route
    // software frees to the Memento allocator. The schema caps MRS at
    // 2^47 and the region at 64 x 2^40 bytes, so MRE cannot wrap.
    const Addr mrs = cfg.layout.mementoRegionStart;
    const Addr mre = cfg.layout.mementoRegionEnd();
    if (cfg.layout.heapBase >= mrs && cfg.layout.heapBase < mre) {
        problems.push_back(
            {"config-region-overlap",
             {"layout.heap_base", "layout.memento_region_start",
              "layout.per_class_region_bytes"},
             detail::formatMsg("heap base 0x", std::hex,
                               cfg.layout.heapBase,
                               " falls inside the Memento region [0x", mrs,
                               ", 0x", mre, ")")});
    }

    // pymalloc carves an arena into pools, jemalloc a chunk into slabs.
    const struct
    {
        const char *key;
        std::uint64_t value;
        std::uint64_t unit;
        const char *what;
    } multiples[] = {
        {"tuning.pymalloc_arena", cfg.tuning.pymallocArenaBytes,
         PyMalloc::kPoolBytes, "pool size"},
        {"tuning.jemalloc_chunk", cfg.tuning.jemallocChunkBytes,
         JeMalloc::kSlabBytes, "slab size"}};
    for (const auto &m : multiples) {
        if (m.value % m.unit != 0) {
            problems.push_back(
                {"config-bad-value",
                 {m.key},
                 detail::formatMsg(m.key, " (", m.value,
                                   ") must be a multiple of the ", m.unit,
                                   " B ", m.what)});
        }
    }

    // Every cache needs a power-of-two set count (its set index is a
    // mask), and every TLB at least one set.
    const std::pair<const char *, const CacheConfig *> caches[] = {
        {"l1d", &cfg.l1d}, {"l1i", &cfg.l1i}, {"l2", &cfg.l2},
        {"llc", &cfg.llc}};
    for (const auto &[name, c] : caches) {
        const std::string size_key = std::string(name) + ".size";
        const std::string ways_key = std::string(name) + ".ways";
        const std::uint64_t sets = c->numSets();
        if (sets == 0 || !isPowerOfTwo(sets)) {
            problems.push_back(
                {"config-bad-value",
                 {size_key, ways_key},
                 detail::formatMsg(
                     size_key, " (", c->sizeBytes, ") / (", ways_key,
                     " (", c->ways, ") x ", kLineSize, " B lines) gives ",
                     sets, " set(s); a cache needs a power of two")});
        }
    }
    const std::pair<const char *, const TlbConfig *> tlbs[] = {
        {"tlb.l1", &cfg.l1Tlb}, {"tlb.l2", &cfg.l2Tlb}};
    for (const auto &[name, t] : tlbs) {
        if (t->entries < t->ways) {
            const std::string entries_key = std::string(name) + "_entries";
            const std::string ways_key = std::string(name) + "_ways";
            problems.push_back(
                {"config-bad-value",
                 {entries_key, ways_key},
                 detail::formatMsg(entries_key, " (", t->entries,
                                   ") is below ", ways_key, " (", t->ways,
                                   "): the TLB has no set")});
        }
    }

    // An arrival is stored in 56 bits of cycles; the expected window is
    // invocations / rate at the core clock.
    const double window_cycles =
        static_cast<double>(cfg.fleet.invocations) / cfg.fleet.ratePerSec *
        cfg.core.freqGhz * 1.0e9;
    if (window_cycles >= static_cast<double>(kMaxArrivalCycles)) {
        problems.push_back(
            {"config-bad-value",
             {"fleet.invocations", "fleet.rate_rps"},
             detail::formatMsg(
                 "fleet.invocations / fleet.rate_rps spans ",
                 window_cycles, " cycles at ", cfg.core.freqGhz,
                 " GHz, past the arrival window limit of 2^56 "
                 "cycles; lower fleet.invocations or raise "
                 "fleet.rate_rps")});
    }

    if (!validArrivalKind(cfg.fleet.arrival)) {
        problems.push_back(
            {"config-fleet-bad-arrival",
             {"fleet.arrival"},
             detail::formatMsg("fleet.arrival '", cfg.fleet.arrival,
                               "' is not one of poisson, bursty, diurnal")});
    }

    const std::string &mix = cfg.fleet.mix;
    if (mix != "function" && mix != "all" &&
        std::ranges::none_of(allWorkloads(), [&](const WorkloadSpec &w) {
            return w.id == mix;
        })) {
        problems.push_back(
            {"config-fleet-bad-mix",
             {"fleet.mix"},
             detail::formatMsg("fleet.mix '", mix,
                               "' is neither 'function', 'all', nor a "
                               "workload id")});
    }
    return problems;
}

void
checkConfig(const MachineConfig &cfg, ConfigRules rules)
{
    for (const ConfigProblem &p : configProblems(cfg)) {
        const bool fleet = p.keys.front().starts_with("fleet.");
        if (rules == ConfigRules::All ||
            fleet == (rules == ConfigRules::Fleet))
            sim_error(ErrorCategory::Config, p.message);
    }
}

void
lintConfigStream(std::istream &is, const std::string &subject,
                 DiagReport &report)
{
    MachineConfig cfg = defaultConfig();
    std::string line, key, value;
    unsigned line_no = 0;
    // key -> line of its latest valid assignment, in line order for the
    // cross-key pass.
    std::map<std::string, unsigned> last_set;
    std::vector<std::pair<std::string, unsigned>> assignments;

    while (std::getline(is, line)) {
        ++line_no;
        switch (splitConfigLine(line, key, value)) {
          case ConfigLineKind::Blank:
            continue;
          case ConfigLineKind::MissingEquals:
            report.add("config-parse", subject, line_no,
                       "missing '=' (expected 'key = value')");
            continue;
          case ConfigLineKind::EmptyPart:
            report.add("config-parse", subject, line_no,
                       "empty key or value");
            continue;
          case ConfigLineKind::Assignment:
            break;
        }

        const ConfigKeyInfo *info = findConfigKey(key);
        if (info == nullptr) {
            const std::string suggestion = suggestConfigKey(key);
            report.add("config-unknown-key", subject, line_no,
                       detail::formatMsg(
                           "unknown key '", key, "'",
                           suggestion.empty()
                               ? std::string()
                               : "; did you mean '" + suggestion +
                                     "'?"));
            continue;
        }

        const auto [it, inserted] = last_set.emplace(key, line_no);
        if (!inserted) {
            report.add("config-duplicate-key", subject, line_no,
                       detail::formatMsg("duplicate key '", key,
                                         "' overrides line ", it->second,
                                         " (last value wins)"));
            it->second = line_no;
        }

        ConfigValue parsed;
        std::string why;
        switch (tryParseConfigValue(*info, value, parsed, why)) {
          case ConfigParseStatus::BadValue:
            report.add("config-bad-value", subject, line_no,
                       detail::formatMsg(why, " for key '", key, "'"));
            continue;
          case ConfigParseStatus::OutOfRange:
            report.add("config-out-of-range", subject, line_no,
                       detail::formatMsg(why, " for key '", key, "'"));
            continue;
          case ConfigParseStatus::Ok:
            break;
        }
        info->apply(cfg, parsed);
        assignments.emplace_back(key, line_no);
    }

    // Cross-key rules on the effective configuration: first every
    // error a run raises, then the warnings no run enforces.
    const auto line_of = [&](std::string_view key) -> unsigned {
        const auto it = last_set.find(std::string(key));
        return it == last_set.end() ? 0 : it->second;
    };
    for (const ConfigProblem &p : configProblems(cfg)) {
        unsigned at = 0;
        for (const std::string &k : p.keys)
            at = std::max(at, line_of(k));
        report.add(p.ruleId, subject, at, p.message);
    }

    if (!cfg.memento.enabled) {
        for (const auto &[key, at] : assignments) {
            if (isMementoHardwareKey(key)) {
                report.add("config-bypass-no-memento", subject, at,
                           detail::formatMsg(
                               "'", key, "' is set but memento.enabled "
                               "is off; the key has no effect"));
            }
        }
    }

    if (cfg.check.interval != 0 && cfg.check.maxOps != 0 &&
        cfg.check.interval > cfg.check.maxOps) {
        report.add("config-check-conflict", subject,
                   line_of("check.interval"),
                   detail::formatMsg(
                       "check.interval (", cfg.check.interval,
                       ") exceeds the check.max_ops watchdog budget (",
                       cfg.check.maxOps,
                       "); the invariant checker can never fire"));
    }

    if (line_of("fleet.keep_alive_ms") && cfg.fleet.keepAliveMs > 0 &&
        cfg.fleet.memoryBudgetPages == 0) {
        report.add("config-fleet-keepalive-no-budget", subject,
                   line_of("fleet.keep_alive_ms"),
                   detail::formatMsg(
                       "fleet.keep_alive_ms (", cfg.fleet.keepAliveMs,
                       ") keeps instances warm but "
                       "fleet.memory_budget_pages is 0 (unbounded); "
                       "node RSS can grow without limit"));
    }
}

void
lintConfigFile(const std::string &path, DiagReport &report)
{
    std::ifstream in(path);
    if (!in) {
        report.add("config-parse", path, Diag::kNoLocation,
                   "cannot open file");
        return;
    }
    lintConfigStream(in, path, report);
}

} // namespace memento
