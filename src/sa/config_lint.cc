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

    // ------------------------------------------------------------------
    // Cross-key contradictions on the effective configuration.
    // ------------------------------------------------------------------
    const auto line_of = [&](std::string_view key) -> unsigned {
        const auto it = last_set.find(std::string(key));
        return it == last_set.end() ? 0 : it->second;
    };
    const bool touches_layout = line_of("layout.heap_base") ||
                                line_of("layout.memento_region_start") ||
                                line_of("layout.per_class_region_bytes");

    if (touches_layout) {
        const Addr mrs = cfg.layout.mementoRegionStart;
        const std::uint64_t span =
            cfg.layout.perClassRegionBytes * kNumSmallClasses;
        const Addr mre = mrs + span;
        const unsigned at =
            std::max({line_of("layout.heap_base"),
                      line_of("layout.memento_region_start"),
                      line_of("layout.per_class_region_bytes")});
        if (mre <= mrs ||
            span / kNumSmallClasses !=
                cfg.layout.perClassRegionBytes) {
            report.add("config-region-overlap", subject, at,
                       detail::formatMsg(
                           "Memento region is inverted: MRE (MRS + ",
                           kNumSmallClasses, " x ",
                           cfg.layout.perClassRegionBytes,
                           " bytes) wraps below MRS 0x", std::hex, mrs));
        } else if (cfg.layout.heapBase >= mrs &&
                   cfg.layout.heapBase < mre) {
            report.add("config-region-overlap", subject, at,
                       detail::formatMsg(
                           "heap base 0x", std::hex, cfg.layout.heapBase,
                           " falls inside the Memento region [0x", mrs,
                           ", 0x", mre, ")"));
        }
    }

    // The allocator models reject these at construction; report them
    // here, at the key's line, with the same multiples.
    const auto multiple_of = [&](std::string_view key, std::uint64_t value,
                                 std::uint64_t unit, const char *what) {
        if (value % unit != 0) {
            report.add("config-bad-value", subject, line_of(key),
                       detail::formatMsg(key, " (", value,
                                         ") must be a multiple of the ",
                                         unit, " B ", what));
        }
    };
    multiple_of("tuning.pymalloc_arena", cfg.tuning.pymallocArenaBytes,
                PyMalloc::kPoolBytes, "pool size");
    multiple_of("tuning.jemalloc_chunk", cfg.tuning.jemallocChunkBytes,
                JeMalloc::kSlabBytes, "slab size");
    // Machine construction rejects these the same way (checkGeometry).
    for (const GeometryProblem &p : geometryProblems(cfg)) {
        report.add("config-bad-value", subject,
                   std::max(line_of(p.sizeKey), line_of(p.waysKey)),
                   p.message);
    }
    // Arrival generation rejects a time past 2^56 cycles; the expected
    // window is invocations / rate at the core clock.
    const double window_cycles =
        static_cast<double>(cfg.fleet.invocations) / cfg.fleet.ratePerSec *
        cfg.core.freqGhz * 1.0e9;
    if (window_cycles >= static_cast<double>(kMaxArrivalCycles)) {
        report.add("config-bad-value", subject,
                   std::max(line_of("fleet.invocations"),
                            line_of("fleet.rate_rps")),
                   detail::formatMsg(
                       "fleet.invocations / fleet.rate_rps spans ",
                       window_cycles, " cycles at ", cfg.core.freqGhz,
                       " GHz, past the arrival window limit of 2^56 "
                       "cycles; lower fleet.invocations or raise "
                       "fleet.rate_rps"));
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

    if (line_of("fleet.arrival") && !validArrivalKind(cfg.fleet.arrival)) {
        report.add("config-fleet-bad-arrival", subject,
                   line_of("fleet.arrival"),
                   detail::formatMsg(
                       "fleet.arrival '", cfg.fleet.arrival,
                       "' is not one of poisson, bursty, diurnal"));
    }

    if (line_of("fleet.mix") && cfg.fleet.mix != "function" &&
        cfg.fleet.mix != "all") {
        bool known = false;
        for (const WorkloadSpec &spec : allWorkloads()) {
            if (spec.id == cfg.fleet.mix) {
                known = true;
                break;
            }
        }
        if (!known) {
            report.add("config-fleet-bad-mix", subject,
                       line_of("fleet.mix"),
                       detail::formatMsg(
                           "fleet.mix '", cfg.fleet.mix,
                           "' is neither 'function', 'all', nor a "
                           "workload id"));
        }
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
