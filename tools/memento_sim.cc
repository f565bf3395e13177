/**
 * @file
 * memento_sim — the command-line front end of the simulator.
 *
 *   memento_sim list
 *       List the built-in workloads with their key statistics.
 *
 *   memento_sim run <workload>|all [options]
 *       Run one workload (or every workload) and dump the results.
 *
 *   memento_sim compare <workload>|all [options]
 *       Paired baseline vs Memento (and bypass-off) runs.
 *
 *   memento_sim trace <workload> <file>
 *       Synthesize the workload's operation trace into <file>
 *       (replayable with run --trace).
 *
 *   memento_sim check <workload>|all [--trace FILE] [options]
 *       Static pre-flight analysis: abstract-interpret the workload's
 *       trace (or a recorded trace file) over shadow allocation state
 *       only — no caches, no DRAM, no cycle ledger — and report every
 *       memory-discipline violation with a rule id, severity, and the
 *       exact op index. ~100x cheaper than run; `check all` fans out
 *       over the sweep pool with byte-identical output at any --jobs
 *       level. Exits non-zero when any error remains.
 *
 *   memento_sim lint-config <file> [options]
 *       Validate a `key = value` config file against the declared
 *       schema. Exits non-zero when any error remains.
 *
 *   memento_sim lint-src [paths...] [options]
 *       Determinism lint over the repo's own C++ sources (default
 *       paths: src tools). A comment/string-aware tokenizer drives
 *       repo-specific rules — std::unordered_* containers, unseeded
 *       randomness, wall-clock reads in simulation code, fatal() in
 *       model code — reported through the same diagnostic engine as
 *       check and lint-config, so --allow/--werror/--json work
 *       unchanged. Files lint serially in sorted path order.
 *
 *   memento_sim rules [--json]
 *       Dump the registered diagnostic rule table (id, severity,
 *       summary). Text output is the markdown table embedded in
 *       README.md; CI regenerates the README section from it so the
 *       docs cannot drift from the registry.
 *
 *   memento_sim fleet [options]
 *       Fleet-scale serverless node simulation (src/fleet): an
 *       open-loop arrival process (--arrival poisson|bursty|diurnal,
 *       --rate RPS, --invocations N) dispatched across --cores
 *       simulated cores under keep-alive and memory-budget policies.
 *       Reports the offered load rho = lambda * E[S] / cores,
 *       p50/p99/p99.9 invocation latency, throughput, cold-start
 *       rate, and packing density, plus an FNV-1a digest of
 *       the complete fleet outcome; every number is derived from
 *       integer cycle counts, so output is byte-identical at any
 *       --jobs level and across --cache resumes.
 *
 *   memento_sim figures <id>...|all [--jobs N]
 *       Regenerate the paper's evidence (Figs. 2-3 and 8-14, Tables
 *       1-3, the §6.1/§6.6/§6.7 studies, the design ablations) from
 *       the an/figures.h registry. The union of the selected entries'
 *       cells runs once, deduplicated, through one sweep engine; the
 *       entries print in registry order, byte-identically at any
 *       --jobs level (tests/golden/figures.txt holds `figures all`).
 *
 *   memento_sim help [command]
 *       Render the global usage page or one command's options.
 *
 * Crash-safe sweeps: `run all` and `compare all` accept --cache DIR,
 * which persists every completed cell to a content-addressed result
 * store (machine/result_store.h); `fleet` caches its profiles there
 * too. A killed or interrupted sweep resumes from the cache with
 * byte-identical stdout; --revalidate audits cached results by
 * recomputing a sample. All cache chatter goes to stderr.
 *
 * Every command parses through the shared declarative flag table in
 * src/cli/options.h: one parser, one --help renderer, one error style.
 * `memento_sim help <command>` (or `<command> --help`) lists exactly
 * the flags that command accepts; passing any other flag is an error.
 *
 * The check, lint-config, lint-src, rules and fleet --json documents all
 * share the versioned JSON envelope of sim/json.h
 * (`"schema_version"`, `"kind"`).
 *
 * A failing run (out of memory, bad trace, corruption detected by the
 * invariant checker, watchdog timeout) raises SimError; without
 * --keep-going the first failure stops the sweep. Simulator bugs still
 * panic and user errors on the command line are still fatal.
 *
 * Sweeps (run all / compare all) fan individual runs out over
 * the machine/sweep.h thread pool and merge results back in
 * workload order, so parallelism never changes what gets printed.
 */

#include <atomic>
#include <csignal>
#include <fstream>
#include <memory>
#include <iostream>
#include <string>
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

void
printFailureReport(const std::vector<FailureRecord> &failures)
{
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
}

// ---- Crash-safe sweep plumbing ---------------------------------------

/** SIGINT/SIGTERM latch; the sweep engine polls it between cells. */
std::atomic<bool> g_stop{false};

extern "C" void
onStopSignal(int)
{
    g_stop.store(true, std::memory_order_relaxed);
}

/**
 * Open the result store named by --cache / sweep.cache_dir (null when
 * caching is off) and arm the stop-signal latch: with a store, an
 * interrupted sweep's completed cells are durable, so Ctrl-C becomes
 * "flush and resume later" instead of "lose everything".
 */
std::unique_ptr<ResultStore>
makeStore(const CliOptions &opts)
{
    if (opts.cfg.sweep.cacheDir.empty())
        return nullptr;
    ResultStoreOptions so;
    so.dir = opts.cfg.sweep.cacheDir;
    so.tornWriteAt = opts.cfg.inject.storeTornWriteAt;
    so.killAt = opts.cfg.inject.storeKillAt;
    auto store = std::make_unique<ResultStore>(std::move(so));
    std::signal(SIGINT, onStopSignal);
    std::signal(SIGTERM, onStopSignal);
    return store;
}

/** Cache/interruption chatter goes to stderr only: stdout must stay
 * byte-identical to an uncached, uninterrupted serial sweep. */
void
reportStoreStats(const ResultStore &store)
{
    const StoreStats s = store.stats();
    std::cerr << "cache " << store.dir() << ": " << s.hits << " hit(s), "
              << s.misses << " miss(es), " << s.stores << " store(s)";
    if (s.quarantined != 0)
        std::cerr << ", " << s.quarantined << " quarantined";
    if (s.revalidated != 0)
        std::cerr << ", " << s.revalidated << " revalidated";
    std::cerr << "\n";
}

/** Interrupted sweep: say how to resume, exit 130, print no report. */
int
reportInterrupted(const ResultStore *store)
{
    std::cerr << "interrupted: completed cells are durable";
    if (store != nullptr)
        std::cerr << " in " << store->dir()
                  << "; re-run with --cache " << store->dir()
                  << " to resume";
    std::cerr << "\n";
    return 130;
}

/** Shared SweepOptions wiring for the cache/revalidate layer. */
void
applySweepPolicy(SweepOptions &sweep_opts, const CliOptions &opts,
                 ResultStore *store)
{
    sweep_opts.keepGoing = opts.keepGoing || opts.cfg.sweep.keepGoing;
    sweep_opts.store = store;
    if (store != nullptr) {
        sweep_opts.stopFlag = &g_stop;
        // --revalidate recomputes a deterministic 1-in-4 sample of
        // cache hits; plenty to catch a lying cache without paying for
        // a full recompute.
        sweep_opts.revalidateEvery = opts.revalidate ? 4 : 0;
    }
}

int
cmdList()
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
selectWorkloads(const std::string &id, const CliOptions &opts)
{
    if (id != "all")
        return {workloadById(id)};
    fatal_if(!opts.traceFile.empty(),
             "--trace names one workload's trace, not 'all'");
    return allWorkloads();
}

int
cmdRun(const std::string &id, const CliOptions &opts)
{
    const std::vector<WorkloadSpec> specs = selectWorkloads(id, opts);

    RunOptions run_opts;
    run_opts.coldStart = opts.cold;
    run_opts.computeDigest = opts.digest;

    // Fan the sweep out over the pool: one task per run
    // (a digest check is two runs, dispatched as sibling tasks). The
    // merge below reports strictly in workload order, so the output is
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
    const std::unique_ptr<ResultStore> store = makeStore(opts);

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

    SweepOptions sweep_opts;
    sweep_opts.jobs = opts.jobs;
    applySweepPolicy(sweep_opts, opts, store.get());
    const bool keep_going = sweep_opts.keepGoing;
    SweepEngine engine(sweep_opts);
    const std::vector<SweepOutcome> outcomes = engine.run(tasks);

    if (store != nullptr)
        reportStoreStats(*store);
    if (g_stop.load(std::memory_order_relaxed))
        return reportInterrupted(store.get());

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

    if (!failures.empty()) {
        printFailureReport(failures);
        return 1;
    }
    return 0;
}

int
cmdCompare(const std::string &id, const CliOptions &opts)
{
    const std::vector<WorkloadSpec> specs = selectWorkloads(id, opts);

    MachineConfig base_cfg = opts.cfg;
    base_cfg.memento.enabled = false;
    MachineConfig memento_cfg = opts.cfg;
    memento_cfg.memento.enabled = true;

    RunOptions run_opts;
    run_opts.coldStart = opts.cold;

    const std::unique_ptr<ResultStore> store = makeStore(opts);

    // Each workload's (baseline, memento, no-bypass) triple fans out
    // as three tasks sharing one cached trace; the progress line fires
    // as a workload's first task starts (serialized by the engine).
    SweepOptions sweep_opts;
    sweep_opts.jobs = opts.jobs;
    applySweepPolicy(sweep_opts, opts, store.get());
    const bool keep_going = sweep_opts.keepGoing;
    sweep_opts.onTaskStart = [](const SweepTask &task, std::size_t idx) {
        if (idx % 3 == 0)
            std::cerr << "  running " << task.spec.id << "...\n";
    };
    SweepEngine engine(sweep_opts);
    const std::vector<ComparisonOutcome> outcomes =
        compareSweep(specs, base_cfg, memento_cfg, run_opts, engine);

    if (store != nullptr)
        reportStoreStats(*store);
    if (g_stop.load(std::memory_order_relaxed))
        return reportInterrupted(store.get());

    TextTable t({"workload", "speedup", "traffic", "faults base->mem",
                 "alloc/free/page/bypass"});
    std::vector<FailureRecord> failures;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const ComparisonOutcome &out = outcomes[i];
        if (out.error) {
            failures.push_back({specs[i].id, *out.error});
            if (!keep_going)
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
    if (!failures.empty()) {
        printFailureReport(failures);
        return 1;
    }
    return 0;
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
cmdCheck(const std::string &id, const CliOptions &opts)
{
    const std::vector<WorkloadSpec> specs = selectWorkloads(id, opts);

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
cmdLintConfig(const std::string &path, const CliOptions &opts)
{
    DiagReport report;
    lintConfigFile(path, report);
    return finishAnalysis(report, opts, "linted " + path);
}

int
cmdLintSrc(const CliOptions &opts)
{
    const std::vector<std::string> paths =
        opts.paths.empty() ? std::vector<std::string>{"src", "tools"}
                           : opts.paths;
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
cmdTrace(const std::string &id, const std::string &path)
{
    const WorkloadSpec &spec = workloadById(id);
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
    const std::unique_ptr<ResultStore> store = makeStore(opts);

    FleetOptions fopts;
    fopts.cfg = opts.cfg;
    fopts.jobs = opts.jobs;
    fopts.store = store.get();
    const FleetReport report = runFleet(fopts);

    if (store != nullptr)
        reportStoreStats(*store);

    // stdout carries only simulated (integer-derived) values: the text
    // and JSON renderings are byte-identical across --jobs levels and
    // across cache resumes.
    if (opts.json)
        writeFleetJson(std::cout, report, opts.cfg);
    else
        printFleetText(std::cout, report, opts.cfg);
    return 0;
}

int
cmdFigures(const CliOptions &opts)
{
    fatal_if(opts.paths.empty(), "figures: name one or more ids, or all");
    const std::vector<Figure> &registry = allFigures();
    std::vector<bool> selected(registry.size(), false);
    for (const std::string &id : opts.paths) {
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

    SweepOptions sweep_opts;
    sweep_opts.jobs = opts.jobs;
    sweep_opts.onTaskStart = [](const SweepTask &task, std::size_t idx) {
        std::cerr << "  cell " << idx << ": " << task.spec.id << "\n";
    };
    SweepEngine engine(sweep_opts);
    runFigures(figs, engine, std::cout);
    return 0;
}

int
cmdHelp(const std::vector<std::string> &args)
{
    if (args.size() >= 2) {
        const CommandSpec *spec = findCommand(args[1]);
        if (!spec) {
            std::cerr << "memento_sim: unknown command '" << args[1]
                      << "'\n";
            printUsage(std::cerr);
            return 1;
        }
        printCommandHelp(std::cout, *spec);
        return 0;
    }
    printUsage(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty()) {
        printUsage(std::cerr);
        return 1;
    }
    const std::string &cmd = args[0];
    if (cmd == "--help" || cmd == "-h")
        return cmdHelp({"help"});
    if (cmd == "help")
        return cmdHelp(args);

    const CommandSpec *spec = findCommand(cmd);
    if (!spec) {
        printUsage(std::cerr);
        return 1;
    }
    for (const std::string &arg : args) {
        if (arg == "--help" || arg == "-h") {
            printCommandHelp(std::cout, *spec);
            return 0;
        }
    }
    if (args.size() < 1 + spec->positionals) {
        printCommandHelp(std::cerr, *spec);
        return 1;
    }
    try {
        const CliOptions opts =
            parseCommandOptions(*spec, args, 1 + spec->positionals);
        if (cmd == "list")
            return cmdList();
        if (cmd == "run")
            return cmdRun(args[1], opts);
        if (cmd == "compare")
            return cmdCompare(args[1], opts);
        if (cmd == "trace")
            return cmdTrace(args[1], args[2]);
        if (cmd == "check")
            return cmdCheck(args[1], opts);
        if (cmd == "lint-config")
            return cmdLintConfig(args[1], opts);
        if (cmd == "lint-src")
            return cmdLintSrc(opts);
        if (cmd == "rules")
            return cmdRules(opts);
        if (cmd == "fleet")
            return cmdFleet(opts);
        if (cmd == "figures")
            return cmdFigures(opts);
    } catch (const SimError &e) {
        std::cerr << "memento_sim: error ("
                  << errorCategoryName(e.category()) << "): " << e.what()
                  << "\n";
        return 1;
    }
    printUsage(std::cerr);
    return 1;
}
