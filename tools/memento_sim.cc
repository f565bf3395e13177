/**
 * @file
 * memento_sim — the command-line front end of the simulator.
 *
 * `memento_sim help` lists the commands and `memento_sim help <command>`
 * one command's flags; both render the command table at the bottom of
 * this file. Three contracts hold across every command:
 *
 *  - stdout carries only simulated results, and everything else —
 *    progress, cache statistics, interruption notes — goes to stderr;
 *  - `run`, `compare` and `fleet` accept --cache DIR, which persists
 *    every completed cell to a content-addressed result store
 *    (machine/result_store.h). SIGINT or SIGTERM then stops the sweep
 *    between cells with exit 130, and a re-run on the same store
 *    resumes it;
 *  - stdout is byte-identical at any --jobs level, and across cache
 *    resumes.
 *
 * A failing run raises SimError, reported as `memento_sim: error
 * (<category>): ...` with exit 1; user errors on the command line are
 * fatal (exit 1) and simulator bugs panic.
 */

#include <algorithm>
#include <atomic>
#include <csignal>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "an/figures.h"
#include "an/lifetime.h"
#include "an/report.h"
#include "cli/options.h"
#include "fleet/fleet.h"
#include "machine/breakdown.h"
#include "machine/experiment.h"
#include "machine/result_store.h"
#include "machine/sweep.h"
#include "sa/config_lint.h"
#include "sa/diag.h"
#include "sa/source_lint.h"
#include "sa/trace_check.h"
#include "sim/json.h"
#include "sim/error.h"
#include "sim/logging.h"
#include "val/digest.h"
#include "wl/trace_generator.h"

using namespace memento;

namespace {

/** One failed run, kept for the end-of-sweep report. */
struct FailureRecord
{
    std::string workload;
    RunError error;
};

/** Print the failed runs of a sweep, if any; returns the exit status. */
int
reportFailures(const std::vector<FailureRecord> &failures)
{
    if (failures.empty())
        return 0;
    std::cout << "\n" << failures.size() << " run(s) failed:\n";
    TextTable t({"workload", "category", "op", "error"});
    for (const FailureRecord &f : failures) {
        t.newRow();
        t.cell(f.workload);
        t.cell(std::string(errorCategoryName(f.error.category)));
        t.cell(f.error.hasOpIndex() ? std::to_string(f.error.opIndex)
                                    : std::string("-"));
        t.cell(f.error.message);
    }
    t.print(std::cout);
    return 1;
}

// ---- Store-backed sweeps ----------------------------------------------

/** SIGINT/SIGTERM latch; the sweep engine polls it between cells. */
std::atomic<bool> g_stop{false};

extern "C" void
onStopSignal(int)
{
    g_stop.store(true, std::memory_order_relaxed);
}

/**
 * Run one sweep command: @p sweep runs the cells on an engine built
 * from @p opts (jobs, keep-going, @p on_start), and @p report prints
 * stdout and returns the exit status. With a result store
 * (--cache / sweep.cache_dir) every cell goes through it, and
 * SIGINT/SIGTERM raise a latch the engine polls between cells: the
 * completed cells are durable, so the command skips @p report, says
 * how to resume and exits 130. Store chatter goes to stderr only, so
 * stdout stays byte-identical to an uncached, uninterrupted sweep.
 */
int
runSweep(const CliOptions &opts,
         std::function<void(const SweepTask &, std::size_t)> on_start,
         const std::function<void(SweepEngine &)> &sweep,
         const std::function<int()> &report)
{
    SweepOptions so;
    so.jobs = opts.jobs;
    so.keepGoing = opts.cfg.sweep.keepGoing;
    so.onTaskStart = std::move(on_start);
    const std::string &dir = opts.cfg.sweep.cacheDir;
    std::optional<ResultStore> store;
    if (!dir.empty()) {
        ResultStoreOptions store_opts;
        store_opts.dir = dir;
        store_opts.tornWriteAt = opts.cfg.inject.storeTornWriteAt;
        store_opts.killAt = opts.cfg.inject.storeKillAt;
        store.emplace(std::move(store_opts));
        std::signal(SIGINT, onStopSignal);
        std::signal(SIGTERM, onStopSignal);
        so.store = &*store;
        so.stopFlag = &g_stop;
        // --revalidate recomputes a deterministic 1-in-4 sample of
        // cache hits; plenty to catch a lying cache without paying for
        // a full recompute.
        so.revalidateEvery = opts.revalidate ? 4 : 0;
    }
    SweepEngine engine(std::move(so));
    sweep(engine);

    if (store) {
        const StoreStats s = store->stats();
        std::cerr << "cache " << dir << ": " << s.hits << " hit(s), "
                  << s.misses << " miss(es), " << s.stores << " store(s)";
        if (s.quarantined != 0)
            std::cerr << ", " << s.quarantined << " quarantined";
        if (s.revalidated != 0)
            std::cerr << ", " << s.revalidated << " revalidated";
        std::cerr << "\n";
    }
    if (g_stop.load(std::memory_order_relaxed)) {
        std::cerr << "interrupted: completed cells are durable in " << dir
                  << "; re-run with --cache " << dir << " to resume\n";
        return 130;
    }
    return report();
}

int
cmdList(const CliOptions &)
{
    TextTable t({"id", "group", "lang", "allocs", "MallocPKI",
                 "<=512B", "short-lived", "description"});
    for (const WorkloadSpec &spec : allWorkloads()) {
        const Trace trace = TraceGenerator(spec).generate();
        const TraceProfile profile = profileTrace(trace);
        t.newRow();
        t.cell(spec.id);
        t.cell(domainName(spec.domain));
        t.cell(languageName(spec.lang));
        t.cell(profile.allocations);
        t.cell(profile.mallocPki, 2);
        t.cell(percentStr(profile.sizeHist.percent(0) / 100.0));
        t.cell(percentStr(profile.lifetimeHist.percent(0) / 100.0));
        t.cell(spec.description);
    }
    t.print(std::cout);
    return 0;
}

void
printRun(const MachineConfig &cfg, const RunResult &res)
{
    TextTable t({"Metric", "Value"});
    t.newRow(); t.cell("cycles"); t.cell(res.cycles);
    t.newRow(); t.cell("execution ms"); t.cell(res.executionMs(cfg), 3);
    t.newRow(); t.cell("instructions"); t.cell(res.instructions);
    t.newRow(); t.cell("DRAM bytes"); t.cell(res.dramBytes());
    t.newRow(); t.cell("page faults"); t.cell(res.pageFaults());
    t.newRow(); t.cell("mmap calls"); t.cell(res.mmapCalls());
    t.newRow(); t.cell("peak pages"); t.cell(res.peakResidentPages);
    t.newRow(); t.cell("user MM cycles"); t.cell(res.userMmCycles());
    t.newRow(); t.cell("kernel MM cycles"); t.cell(res.kernelMmCycles());
    t.newRow(); t.cell("hw MM cycles"); t.cell(res.hwMmCycles());
    if (res.objAllocs() > 0) {
        t.newRow(); t.cell("small allocs"); t.cell(res.objAllocs());
        t.newRow(); t.cell("small frees"); t.cell(res.objFrees());
    }
    if (res.hotAllocHits() + res.hotAllocMisses() > 0) {
        t.newRow();
        t.cell("HOT alloc hit rate");
        t.cell(percentStr(static_cast<double>(res.hotAllocHits()) /
                          (res.hotAllocHits() + res.hotAllocMisses())));
        t.newRow();
        t.cell("bypassed lines");
        t.cell(res.bypassedLines());
    }
    t.print(std::cout);
}

/**
 * The workloads a `<workload>|all` argument names. A --trace file
 * belongs to one workload, so it cannot go with `all`.
 */
std::vector<WorkloadSpec>
selectWorkloads(const CliOptions &opts)
{
    const std::string &id = opts.args.front();
    if (id != "all")
        return {workloadById(id)};
    fatal_if(!opts.traceFile.empty(),
             "--trace names one workload's trace, not 'all'");
    return allWorkloads();
}

/** `run`'s stdout: each run's metrics in workload order. */
int
printRuns(const std::vector<WorkloadSpec> &specs,
          const std::vector<SweepOutcome> &outcomes, const CliOptions &opts)
{
    const std::size_t runs_per = opts.digest ? 2 : 1;
    const bool keep_going = opts.cfg.sweep.keepGoing;
    std::vector<FailureRecord> failures;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const WorkloadSpec &spec = specs[i];
        const RunResult &res = outcomes[i * runs_per].result;
        std::cout << "workload " << spec.id << " ("
                  << (opts.cfg.memento.enabled ? "memento" : "baseline")
                  << ")";
        if (res.failed()) {
            std::cout << ": FAILED ("
                      << errorCategoryName(res.error->category) << ")\n";
            failures.push_back({spec.id, *res.error});
            if (!keep_going)
                break;
            continue;
        }
        std::cout << "\n";
        printRun(opts.cfg, res);
        if (opts.dumpStats) {
            // The registry's own "name value" dump, as of window close.
            for (const CounterReading &c : res.counters)
                std::cout << c.name << ' ' << c.end << '\n';
        }

        if (opts.digest) {
            // Paired run: an identical workload under an identical
            // configuration must reproduce the machine state exactly.
            const RunResult &again = outcomes[i * runs_per + 1].result;
            if (again.failed() || again.digest != res.digest) {
                RunError err;
                err.category = ErrorCategory::Internal;
                err.message =
                    again.failed()
                        ? "paired digest run failed: " +
                              again.error->message
                        : "state digest mismatch: " +
                              digestToHex(res.digest) + " vs " +
                              digestToHex(again.digest) +
                              " (nondeterministic state)";
                failures.push_back({spec.id, err});
                if (!keep_going)
                    break;
            } else {
                std::cout << "state digest " << digestToHex(res.digest)
                          << " (reproduced across paired runs)\n";
            }
        }
    }
    return reportFailures(failures);
}

int
cmdRun(const CliOptions &opts)
{
    const std::vector<WorkloadSpec> specs = selectWorkloads(opts);

    RunOptions run_opts;
    run_opts.coldStart = opts.cold;
    run_opts.computeDigest = opts.digest;

    // Fan the sweep out over the pool: one task per run
    // (a digest check is two runs, dispatched as sibling tasks).
    // printRuns reports strictly in workload order, so the output is
    // byte-identical at any --jobs level.
    const std::size_t runs_per = opts.digest ? 2 : 1;
    std::shared_ptr<const Trace> replay;
    if (!opts.traceFile.empty()) {
        fatal_if(!opts.cfg.sweep.cacheDir.empty(),
                 "--cache keys cells by workload identity and cannot "
                 "cache --trace replays; drop one of the two");
        std::ifstream in(opts.traceFile);
        fatal_if(!in, "cannot open trace file ", opts.traceFile);
        replay = std::make_shared<const Trace>(readTrace(in));
    }

    std::vector<SweepTask> tasks;
    tasks.reserve(specs.size() * runs_per);
    for (const WorkloadSpec &spec : specs) {
        for (std::size_t r = 0; r < runs_per; ++r) {
            // The paired digest run is a *deliberate* duplicate of the
            // first cell; salt its cache key so both runs stay cached
            // and the determinism check never degenerates into
            // comparing one cached cell with itself.
            tasks.push_back({spec, opts.cfg, run_opts, replay,
                             r == 0 ? std::string() : "digest-rerun"});
        }
    }

    std::vector<SweepOutcome> outcomes;
    return runSweep(
        opts, {}, [&](SweepEngine &engine) { outcomes = engine.run(tasks); },
        [&] { return printRuns(specs, outcomes, opts); });
}

/** `compare`'s stdout: one table row per workload, in order. */
int
printComparisons(const std::vector<WorkloadSpec> &specs,
                 const std::vector<ComparisonOutcome> &outcomes,
                 const CliOptions &opts)
{
    TextTable t({"workload", "speedup", "traffic", "faults base->mem",
                 "alloc/free/page/bypass"});
    std::vector<FailureRecord> failures;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const ComparisonOutcome &out = outcomes[i];
        if (out.error) {
            failures.push_back({specs[i].id, *out.error});
            if (!opts.cfg.sweep.keepGoing)
                break;
            continue;
        }
        const Comparison &cmp = out.cmp;
        Breakdown bd = computeBreakdown(cmp);
        t.newRow();
        t.cell(cmp.spec.id);
        t.cell(cmp.speedup(), 3);
        t.cell(percentStr(cmp.bandwidthReduction()));
        t.cell(std::to_string(cmp.base.pageFaults()) + "->" +
               std::to_string(cmp.memento.pageFaults()));
        t.cell(percentStr(bd.objAlloc, 0) + "/" +
               percentStr(bd.objFree, 0) + "/" +
               percentStr(bd.pageMgmt, 0) + "/" +
               percentStr(bd.bypass, 0));
    }
    t.print(std::cout);
    return reportFailures(failures);
}

int
cmdCompare(const CliOptions &opts)
{
    const std::vector<WorkloadSpec> specs = selectWorkloads(opts);

    MachineConfig base_cfg = opts.cfg;
    base_cfg.memento.enabled = false;
    MachineConfig memento_cfg = opts.cfg;
    memento_cfg.memento.enabled = true;

    RunOptions run_opts;
    run_opts.coldStart = opts.cold;

    // Each workload's (baseline, memento, no-bypass) triple fans out
    // as three tasks sharing one cached trace; the progress line fires
    // as a workload's first task starts (serialized by the engine).
    const auto progress = [](const SweepTask &task, std::size_t idx) {
        if (idx % 3 == 0)
            std::cerr << "  running " << task.spec.id << "...\n";
    };
    std::vector<ComparisonOutcome> outcomes;
    return runSweep(
        opts, progress,
        [&](SweepEngine &engine) {
            outcomes = compareSweep(specs, base_cfg, memento_cfg, run_opts,
                                    engine);
        },
        [&] { return printComparisons(specs, outcomes, opts); });
}

/** Render a finished report and map it to an exit status. */
int
finishAnalysis(const DiagReport &report, const CliOptions &opts,
               const std::string &what)
{
    if (opts.json) {
        report.printJson(std::cout, opts.diagPolicy);
        std::cout << "\n";
    } else {
        report.printText(std::cout, opts.diagPolicy);
        std::cout << what << ": " << report.errors(opts.diagPolicy)
                  << " error(s), " << report.warnings(opts.diagPolicy)
                  << " warning(s)\n";
    }
    return report.clean(opts.diagPolicy) ? 0 : 1;
}

int
cmdCheck(const CliOptions &opts)
{
    const std::vector<WorkloadSpec> specs = selectWorkloads(opts);

    const TraceCheckPolicy policy = TraceCheckPolicy::fromConfig(opts.cfg);

    // One slot per workload, filled by the sweep pool and
    // merged in workload order — the same determinism recipe as the
    // sweep engine, so output is byte-identical at any --jobs level.
    std::vector<DiagReport> slots(specs.size());
    parallelFor(specs.size(), opts.jobs, [&](std::size_t i) {
        const WorkloadSpec &spec = specs[i];
        DiagReport &rep = slots[i];
        if (!opts.traceFile.empty()) {
            std::ifstream in(opts.traceFile);
            if (!in) {
                rep.add("trace-parse", opts.traceFile,
                        Diag::kNoLocation, "cannot open trace file");
                return;
            }
            checkTraceStream(in, policy, opts.traceFile, rep);
            return;
        }
        Trace trace = TraceGenerator(spec).generate();
        trace = applyTraceFaultPlan(trace, opts.cfg.inject, spec.id);
        checkTrace(trace, policy, spec.id, rep);
    });

    DiagReport report;
    for (const DiagReport &slot : slots)
        report.append(slot);
    return finishAnalysis(report, opts,
                          "checked " + std::to_string(specs.size()) +
                              " trace(s)");
}

int
cmdLintConfig(const CliOptions &opts)
{
    const std::string &path = opts.args.front();
    DiagReport report;
    lintConfigFile(path, report);
    return finishAnalysis(report, opts, "linted " + path);
}

int
cmdLintSrc(const CliOptions &opts)
{
    const std::vector<std::string> paths =
        opts.args.empty() ? std::vector<std::string>{"src", "tools"}
                          : opts.args;
    DiagReport report;
    const std::size_t files = lintSourcePaths(paths, report);
    return finishAnalysis(report, opts,
                          "linted " + std::to_string(files) + " file(s)");
}

int
cmdRules(const CliOptions &opts)
{
    if (opts.json) {
        JsonWriter w(std::cout);
        w.beginObject();
        writeSchemaHeader(w, "rules");
        w.key("rules").beginArray();
        for (const DiagRule &r : allDiagRules()) {
            w.beginObject();
            w.member("id", r.id);
            w.member("severity", severityName(r.severity));
            w.member("summary", r.summary);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        std::cout << "\n";
        return 0;
    }
    // The text rendering *is* the markdown table embedded in README.md
    // (between the rules:begin/rules:end markers); CI diffs the two.
    std::cout << "| Rule | Severity | Summary |\n"
              << "|------|----------|---------|\n";
    for (const DiagRule &r : allDiagRules())
        std::cout << "| `" << r.id << "` | " << severityName(r.severity)
                  << " | " << r.summary << " |\n";
    return 0;
}

int
cmdTrace(const CliOptions &opts)
{
    const WorkloadSpec &spec = workloadById(opts.args.front());
    const std::string &path = opts.args.back();
    const Trace trace = TraceGenerator(spec).generate();
    std::ofstream out(path);
    fatal_if(!out, "cannot open ", path, " for writing");
    writeTrace(trace, out);
    std::cout << "wrote " << trace.size() << " ops to " << path << "\n";
    return 0;
}

int
cmdFleet(const CliOptions &opts)
{
    std::optional<FleetReport> report;
    return runSweep(
        opts, {},
        [&](SweepEngine &engine) { report = runFleet(opts.cfg, engine); },
        [&] {
            // stdout carries only simulated (integer-derived) values:
            // the text and JSON renderings are byte-identical across
            // --jobs levels and across cache resumes.
            if (opts.json)
                writeFleetJson(std::cout, report.value(), opts.cfg);
            else
                printFleetText(std::cout, report.value(), opts.cfg);
            return 0;
        });
}

int
cmdFigures(const CliOptions &opts)
{
    const std::vector<Figure> &registry = allFigures();
    std::vector<bool> selected(registry.size(), false);
    for (const std::string &id : opts.args) {
        if (id == "all") {
            selected.assign(registry.size(), true);
            continue;
        }
        const Figure *fig = findFigure(id);
        if (fig == nullptr) {
            std::string valid = "all";
            for (const Figure &f : registry) {
                valid += ", ";
                valid += f.id;
            }
            fatal("unknown figure '", id, "'; valid ids: ", valid);
        }
        selected[static_cast<std::size_t>(fig - registry.data())] = true;
    }
    std::vector<const Figure *> figs;
    for (std::size_t i = 0; i < registry.size(); ++i) {
        if (selected[i])
            figs.push_back(&registry[i]);
    }

    const auto progress = [](const SweepTask &task, std::size_t idx) {
        std::cerr << "  cell " << idx << ": " << task.spec.id << "\n";
    };
    return runSweep(
        opts, progress,
        [&](SweepEngine &engine) { runFigures(figs, engine, std::cout); },
        [] { return 0; });
}

const std::vector<CommandSpec> &commands();

const CommandSpec *
findCommand(std::string_view name)
{
    const auto it = std::ranges::find(commands(), name, &CommandSpec::name);
    return it == commands().end() ? nullptr : &*it;
}

int
cmdHelp(const CliOptions &opts)
{
    if (opts.args.empty()) {
        printUsage(std::cout, commands());
        return 0;
    }
    const CommandSpec *spec = findCommand(opts.args.front());
    if (spec == nullptr) {
        std::cerr << "memento_sim: unknown command '" << opts.args.front()
                  << "'\n";
        printUsage(std::cerr, commands());
        return 1;
    }
    printCommandHelp(std::cout, *spec);
    return 0;
}

/** Every command, in help order. */
const std::vector<CommandSpec> &
commands()
{
    static const std::vector<CommandSpec> table = {
        {"list", "", "list built-in workloads", cmdList, {}},
        {"run", "<workload>|all", "run one configuration", cmdRun,
         {"--config", "--set", "--memento", "--cold", "--trace",
          "--stats", "--keep-going", "--digest", "--jobs", "--cache",
          "--no-cache", "--revalidate"},
         1, 1},
        {"compare", "<workload>|all",
         "paired baseline vs Memento (and bypass-off) runs", cmdCompare,
         {"--config", "--set", "--cold", "--keep-going", "--jobs",
          "--cache", "--no-cache", "--revalidate"},
         1, 1},
        {"trace", "<workload> <file>", "write the workload's trace",
         cmdTrace, {}, 2, 2},
        {"check", "<workload>|all",
         "static trace analysis (no simulation)", cmdCheck,
         {"--config", "--set", "--trace", "--jobs", "--json", "--allow",
          "--werror"},
         1, 1},
        {"lint-config", "<file>", "validate a config file", cmdLintConfig,
         {"--json", "--allow", "--werror"}, 1, 1},
        {"lint-src", "[paths...]", "determinism lint over C++ sources",
         cmdLintSrc, {"--json", "--allow", "--werror"}, 0, kAnyArgs},
        {"rules", "", "dump the registered diagnostic rule table",
         cmdRules, {"--json"}},
        {"fleet", "",
         "simulate a serverless node: arrivals, keep-alive, percentiles",
         cmdFleet,
         {"--config", "--set", "--memento", "--jobs", "--json", "--cores",
          "--invocations", "--arrival", "--rate", "--cache", "--no-cache"}},
        {"figures", "<id>...|all",
         "regenerate the paper's figures and tables in one sweep",
         cmdFigures, {"--jobs"}, 1, kAnyArgs},
        {"help", "[command]", "show help for a command", cmdHelp, {}, 0, 1},
    };
    return table;
}

bool
isHelpFlag(std::string_view arg)
{
    return arg == "--help" || arg == "-h";
}

} // namespace

int
main(int argc, char **argv)
{
    const CommandSpec *spec = argc < 2 ? nullptr : findCommand(argv[1]);
    if (spec == nullptr) {
        // A bare --help asks for the usage page; anything else misuses.
        const bool asked = argc >= 2 && isHelpFlag(argv[1]);
        printUsage(asked ? std::cout : std::cerr, commands());
        return asked ? 0 : 1;
    }
    const std::vector<std::string> args(argv + 2, argv + argc);
    if (std::ranges::any_of(args, isHelpFlag)) {
        printCommandHelp(std::cout, *spec);
        return 0;
    }
    try {
        return spec->run(parseCommandOptions(*spec, args));
    } catch (const SimError &e) {
        std::cerr << "memento_sim: error ("
                  << errorCategoryName(e.category()) << "): " << e.what()
                  << "\n";
        return 1;
    }
}
