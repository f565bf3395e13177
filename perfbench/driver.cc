/**
 * @file
 * Benchmark driver: runs one benchmark workload through the memento
 * library's public functions and writes the raw measurements (wall
 * times, per-run outcomes, spans, counters, probe timings) as one JSON
 * document. run.py builds this program, runs it, checks the outputs
 * and derives the reported metrics from the document.
 *
 * Modes:
 *  - setup:  build everything the workload needs and stop right before
 *            the first timed call (set-up time alone);
 *  - timed:  repeat the workload's timed call with tracing off;
 *  - traced: one call with tracing off (the overhead baseline), then
 *            the same runs split into the public calls they consist of,
 *            with a span around each, then the layer probes.
 *
 * Usage:
 *   perfbench_driver --mode timed|traced|setup --workload W --seed N
 *                    --seconds S --work-dir DIR --out FILE --t0-ns T
 * where T is CLOCK_MONOTONIC at process launch; set-up time is measured
 * from it.
 */

#include <sys/resource.h>
#include <time.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "fleet/arrivals.h"
#include "fleet/fleet.h"
#include "machine/experiment.h"
#include "machine/function_executor.h"
#include "machine/machine.h"
#include "machine/result_store.h"
#include "machine/sweep.h"
#include "mem/cache_hierarchy.h"
#include "mem/tlb.h"
#include "sim/config.h"
#include "sim/error.h"
#include "sim/json.h"
#include "sim/stats.h"
#include "val/digest.h"
#include "wl/trace_generator.h"
#include "wl/workloads.h"

namespace {

using namespace memento;
namespace fs = std::filesystem;

/** fleet-node's target offered load, rho = lambda * E[S] / cores. */
constexpr double kFleetTargetLoad = 0.7;
/** Enough arrivals that the fleet stage is about half of the call. */
constexpr std::uint64_t kFleetInvocations = 5'000'000;
constexpr unsigned kFleetCores = 8;
/**
 * Sweep workers of every workload. On a few cores of a shared host, two
 * workers measured the scheduler and the neighbours more than the
 * program.
 */
constexpr unsigned kWorkers = 1;

/** CLOCK_MONOTONIC in ns, the clock run.py stamps --t0-ns with. */
std::int64_t
monoNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 +
           ts.tv_nsec;
}

// ---------------------------------------------------------------------
// Spans, held in memory and written out with the rest of the document.

struct Span
{
    std::string name;
    std::int64_t start = 0;
    std::int64_t end = 0;
    int parent = -1; ///< Index of the enclosing span; -1 for the root.
    int run = -1;    ///< Run id (task index); -1 outside a single run.
};

class Tracer
{
  public:
    int
    open(std::string name, int parent, int run)
    {
        const std::int64_t t = monoNs();
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(Span{std::move(name), t, 0, parent, run});
        return static_cast<int>(spans_.size() - 1);
    }

    void
    close(int id)
    {
        const std::int64_t t = monoNs();
        std::lock_guard<std::mutex> lock(mu_);
        spans_[static_cast<std::size_t>(id)].end = t;
    }

    std::vector<Span>
    spans() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return spans_;
    }

  private:
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** One span, closed when the scope ends. */
class Scope
{
  public:
    Scope(Tracer &tracer, std::string name, int parent, int run = -1)
        : tracer_(tracer), id_(tracer.open(std::move(name), parent, run))
    {
    }
    ~Scope() { tracer_.close(id_); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int id() const { return id_; }

  private:
    Tracer &tracer_;
    int id_;
};

// ---------------------------------------------------------------------
// Set-up.

struct Args
{
    std::string mode;
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    std::string workDir;
    std::string out;
    std::int64_t t0 = 0;
};

/** One simulated run: a workload under one configuration. */
struct RunRecord
{
    std::string workload;
    std::string config;
    Cycles cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t ops = 0;
    std::string error;
    /** Replay-window counter deltas (traced runs only). */
    std::map<std::string, std::uint64_t> counters;

    bool
    sameOutcome(const RunRecord &o) const
    {
        return workload == o.workload && config == o.config &&
               cycles == o.cycles && instructions == o.instructions &&
               error == o.error;
    }
};

struct TaskSpec
{
    const WorkloadSpec *spec;
    const MachineConfig *cfg;
    const char *config;
};

/** Everything a workload needs before its first timed call. */
struct Setup
{
    bool fleet = false;
    bool useStore = false;
    std::vector<WorkloadSpec> specs;
    MachineConfig base = defaultConfig();
    MachineConfig memento = mementoConfig();
    MachineConfig noBypass = mementoConfig();
    /** fleet-node: everything but the rate, which the profiles set. */
    MachineConfig fleetCfg = defaultConfig();
    /** (workload, config) of every run, in task order. */
    std::vector<TaskSpec> tasks;
    fs::path storeRoot;
};

/**
 * The seed sets every workload's trace seed and the arrival seed. Seed
 * 1 keeps the registry's own seeds, whose outputs reference.json pins.
 */
std::uint64_t
seededSpecSeed(std::uint64_t registry_seed, std::uint64_t seed)
{
    return registry_seed + (seed - 1) * 100'000;
}

/** Filled in place: the tasks point into specs and the configs. */
void
makeSetup(const Args &args, Setup &s)
{
    if (args.workload == "paper-sweep") {
        s.specs = allWorkloads();
    } else if (args.workload == "fleet-node") {
        // Profiles go through a fresh result store, as `fleet --cache`
        // does on a cold store: every cell is written with fsync.
        s.fleet = true;
        s.useStore = true;
        FleetConfig &f = s.fleetCfg.fleet;
        f.arrival = "poisson";
        f.mix = "function";
        f.cores = kFleetCores;
        f.invocations = kFleetInvocations;
        f.seed = args.seed;
        s.specs = fleetMix(f);
    } else {
        std::cerr << "perfbench_driver: unknown workload '" << args.workload
                  << "'\n";
        std::exit(2);
    }
    for (WorkloadSpec &spec : s.specs)
        spec.seed = seededSpecSeed(spec.seed, args.seed);
    s.noBypass.memento.bypassEnabled = false;
    for (const WorkloadSpec &spec : s.specs) {
        if (s.fleet) {
            s.tasks.push_back({&spec, &s.fleetCfg, "base"});
        } else {
            // compareSweep's task order.
            s.tasks.push_back({&spec, &s.base, "base"});
            s.tasks.push_back({&spec, &s.memento, "memento"});
            s.tasks.push_back({&spec, &s.noBypass, "nobypass"});
        }
    }
    s.storeRoot = fs::path(args.workDir) / ("store-" + args.workload);
}

/** A fresh, empty result store in @p dir. */
std::unique_ptr<ResultStore>
freshStore(const fs::path &dir)
{
    std::error_code ec;
    fs::remove_all(dir, ec);
    ResultStoreOptions opts;
    opts.dir = dir.string();
    return std::make_unique<ResultStore>(opts);
}

// ---------------------------------------------------------------------
// The call with tracing off.

/** What one call of a workload produced. */
struct Outcome
{
    std::vector<RunRecord> runs;
    /** RunResults in task order (what the traced sweep stores). */
    std::vector<RunResult> results;
    /** Total ops of the distinct traces synthesized. */
    std::uint64_t traceOps = 0;
    // fleet-node only.
    std::vector<FleetProfile> profiles;
    double rateRps = 0.0;
    std::optional<FleetMetrics> fleet;
    std::string fleetError;
};

/** lambda for the target load, from the profiles' mean service time. */
double
fleetRate(const std::vector<FleetProfile> &profiles,
          const MachineConfig &cfg)
{
    double sum = 0.0;
    for (const FleetProfile &p : profiles)
        sum += static_cast<double>(p.serviceCycles);
    const double mean_s = sum / static_cast<double>(profiles.size()) /
                          (cfg.core.freqGhz * 1.0e9);
    return kFleetTargetLoad * static_cast<double>(cfg.fleet.cores) / mean_s;
}

/**
 * The fleet stage once the profiles exist: rate, arrivals, event loop.
 * With a tracer, each of the two calls gets a span under @p parent.
 */
void
runFleetStage(const Setup &s, Outcome &out, bool profiled, Tracer *tracer,
              int parent)
{
    if (!profiled) {
        out.fleetError = "a profile run failed";
        return;
    }
    MachineConfig cfg = s.fleetCfg;
    out.rateRps = fleetRate(out.profiles, cfg);
    cfg.fleet.ratePerSec = out.rateRps;
    std::optional<Scope> span;
    try {
        if (tracer != nullptr)
            span.emplace(*tracer, "fleet.arrivals", parent);
        const std::vector<Arrival> arrivals =
            generateArrivals(cfg, out.profiles.size());
        if (tracer != nullptr) {
            span.reset();
            span.emplace(*tracer, "fleet.loop", parent);
        }
        out.fleet = simulateFleet(arrivals, out.profiles, cfg);
    } catch (const SimError &e) {
        out.fleetError = e.what();
    }
}

RunRecord
recordOf(const RunResult &r, const TaskSpec &task, std::uint64_t ops)
{
    RunRecord rec;
    rec.workload = task.spec->id;
    rec.config = task.config;
    rec.cycles = r.cycles;
    rec.instructions = r.instructions;
    rec.ops = ops;
    if (r.error)
        rec.error = "failed: " + r.error->message;
    return rec;
}

/**
 * The timed call with tracing off. paper-sweep: compareSweep, which is
 * what `compare all --jobs 1` runs. fleet-node: runFleet's two stages
 * through their public functions (the profile sweep, then arrivals and
 * the event loop), split so that the rate can be set from the profiles.
 */
Outcome
untracedCall(const Setup &s, ResultStore *store)
{
    Outcome out;
    SweepOptions opts;
    opts.jobs = kWorkers;
    opts.store = store;
    SweepEngine engine(opts);
    if (!s.fleet) {
        for (const ComparisonOutcome &c : compareSweep(
                 s.specs, s.base, s.memento, RunOptions{}, engine)) {
            out.results.push_back(c.cmp.base);
            out.results.push_back(c.cmp.memento);
            out.results.push_back(c.cmp.mementoNoBypass);
        }
    } else {
        std::vector<SweepTask> tasks;
        for (const TaskSpec &t : s.tasks)
            tasks.push_back(SweepTask{*t.spec, *t.cfg, RunOptions{}, nullptr, {}});
        bool profiled = true;
        for (const SweepOutcome &o : engine.run(tasks)) {
            profiled = profiled && !o.result.failed();
            out.results.push_back(o.result);
            FleetProfile p;
            p.id = o.result.workload;
            p.serviceCycles = o.result.cycles;
            p.pages = o.result.peakResidentPages;
            p.hotValidEntries = o.result.hotValidEntries;
            out.profiles.push_back(p);
        }
        runFleetStage(s, out, profiled, nullptr, -1);
    }
    // Bookkeeping after the call's own work, while the engine's trace
    // cache still holds every trace.
    for (std::size_t i = 0; i < out.results.size(); ++i) {
        const std::uint64_t ops =
            engine.traceCache().get(*s.tasks[i].spec)->size();
        if (i == 0 || s.tasks[i].spec != s.tasks[i - 1].spec)
            out.traceOps += ops;
        out.runs.push_back(recordOf(out.results[i], s.tasks[i], ops));
    }
    return out;
}

// ---------------------------------------------------------------------
// The traced call: the same runs, one span per public call.

/**
 * Growth of every counter; per-process counters ("vm<pid>.x") sum as
 * "vm.x". Gauges that fell are left out.
 */
std::map<std::string, std::uint64_t>
counterDelta(const std::map<std::string, std::uint64_t> &before,
             const std::map<std::string, std::uint64_t> &after)
{
    std::map<std::string, std::uint64_t> out;
    for (const auto &[name, value] : after) {
        const auto it = before.find(name);
        const std::uint64_t prev = it == before.end() ? 0 : it->second;
        if (value <= prev)
            continue;
        std::string key = name;
        if (key.rfind("vm", 0) == 0 && key.find('.') != std::string::npos)
            key = "vm" + key.substr(key.find('.'));
        out[key] += value - prev;
    }
    return out;
}

/**
 * One run the way Experiment::tryRunOne performs it, a span around each
 * public call: trace lookup, machine set-up, replay, teardown and (with
 * a store) the cell write. Fills @p profile with the fleet fields.
 */
RunRecord
tracedRun(Tracer &tr, int parent, int run, TraceCache &cache,
          const TaskSpec &task, ResultStore *store, const RunResult &to_store,
          FleetProfile &profile)
{
    RunRecord rec;
    rec.workload = task.spec->id;
    rec.config = task.config;
    const Scope task_span(tr, "sweep.task", parent, run);
    std::shared_ptr<const Trace> trace;
    {
        const Scope s(tr, "wl.generate", task_span.id(), run);
        trace = cache.get(*task.spec);
    }
    rec.ops = trace->size();
    {
        const Scope run_span(tr, "machine.run", task_span.id(), run);
        std::unique_ptr<Machine> machine;
        try {
            const Scope s(tr, "machine.setup", run_span.id(), run);
            machine = std::make_unique<Machine>(*task.cfg);
            machine->createProcess(*task.spec);
        } catch (const SimError &e) {
            rec.error = std::string("failed: ") + e.what();
            return rec;
        }
        const auto before = machine->stats().snapshot();
        const Cycles cycles0 = machine->cycleLedger().total();
        const std::uint64_t instr0 = machine->instructions();
        {
            const Scope s(tr, "machine.replay", run_span.id(), run);
            try {
                FunctionExecutor(*machine).run(*task.spec, *trace,
                                               RunOptions{});
            } catch (const SimError &e) {
                rec.error = std::string("failed: ") + e.what();
            }
        }
        rec.cycles = machine->cycleLedger().total() - cycles0;
        rec.instructions = machine->instructions() - instr0;
        rec.counters = counterDelta(before, machine->stats().snapshot());
        // Experiment::tryRunOne's peak-resident and HOT-residue fields.
        std::uint64_t peak = machine->stats().value("buddy.peak_pages");
        if (machine->hwPageAllocator() != nullptr) {
            const std::uint64_t slack =
                machine->hwPageAllocator()->poolFreePages();
            peak = peak > slack ? peak - slack : 0;
        }
        profile.id = task.spec->id;
        profile.serviceCycles = rec.cycles;
        profile.pages = peak;
        profile.hotValidEntries =
            machine->hot() != nullptr ? machine->hot()->validEntries() : 0;
        const Scope s(tr, "machine.teardown", run_span.id(), run);
        machine.reset();
    }
    if (store != nullptr) {
        const Scope s(tr, "store.write", task_span.id(), run);
        store->storeRun(
            store->runCellKey(task.spec->id, *task.cfg, RunOptions{}),
            to_store, 1);
    }
    return rec;
}

Outcome
tracedCall(const Setup &s, Tracer &tr, ResultStore *store,
           const Outcome &untraced)
{
    Outcome out;
    out.runs.resize(s.tasks.size());
    out.profiles.resize(s.tasks.size());
    TraceCache cache;
    const Scope root(tr, "bench.call", -1);
    {
        // fleet-node's runs are its profile stage.
        std::optional<Scope> stage;
        if (s.fleet)
            stage.emplace(tr, "fleet.profile", root.id());
        const int parent = stage ? stage->id() : root.id();
        parallelFor(s.tasks.size(), kWorkers, [&](std::size_t i) {
            out.runs[i] = tracedRun(tr, parent, static_cast<int>(i), cache,
                                    s.tasks[i], store, untraced.results[i],
                                    out.profiles[i]);
        });
    }
    if (s.fleet) {
        bool profiled = true;
        for (const RunRecord &r : out.runs)
            profiled = profiled && r.error.empty();
        runFleetStage(s, out, profiled, &tr, root.id());
    }
    return out;
}

// ---------------------------------------------------------------------
// Layer probes: standalone instances timed through public calls.

template <typename F>
double
nsPerCall(std::uint64_t n, F &&f)
{
    const std::int64_t t0 = monoNs();
    for (std::uint64_t i = 0; i < n; ++i)
        f(i);
    return static_cast<double>(monoNs() - t0) / static_cast<double>(n);
}

/** Keeps probe results observable so no call is optimized away. */
volatile std::uint64_t g_sink = 0;

/** CacheHierarchy::access over a footprint of @p lines (a power of 2). */
double
probeHierarchy(std::uint64_t lines, std::uint64_t n)
{
    const MachineConfig cfg = defaultConfig();
    StatRegistry stats;
    CacheHierarchy hier(cfg, stats);
    const Addr base = 1ull << 32;
    Cycles now = 0;
    // An odd multiplier permutes the lines, so a footprint far beyond
    // the LLC misses everywhere without a linear stride.
    auto touch = [&](std::uint64_t i) {
        const std::uint64_t line = (i * 0x9E3779B1ull) & (lines - 1);
        now += hier.access(base + line * kLineSize, AccessType::Read, now)
                   .latency;
    };
    for (std::uint64_t i = 0; i < lines; ++i)
        touch(i);
    const double ns = nsPerCall(n, touch);
    g_sink = g_sink + now;
    return ns;
}

double
probeTlb(std::uint64_t n)
{
    const MachineConfig cfg = defaultConfig();
    StatRegistry stats;
    Tlb tlb("probe_tlb", cfg.l1Tlb, stats);
    constexpr std::uint64_t kPages = 32;
    for (std::uint64_t p = 0; p < kPages; ++p)
        tlb.insert(p << kPageShift, (p + 7) << kPageShift);
    std::uint64_t acc = 0;
    const double ns = nsPerCall(n, [&](std::uint64_t i) {
        acc += tlb.translate(((i % kPages) << kPageShift) + (i & 63))
                   .value_or(1);
    });
    g_sink = g_sink + acc;
    return ns;
}

/** One malloc+free pair through Machine::allocator(); names the allocator. */
double
probeAllocator(const MachineConfig &cfg, const WorkloadSpec &spec,
               std::uint64_t n, std::string &name)
{
    Machine machine(cfg);
    machine.createProcess(spec);
    Allocator &alloc = machine.allocator();
    name = alloc.name();
    constexpr std::uint64_t kSizes[] = {24, 64, 160, 400};
    auto pair = [&](std::uint64_t i) {
        const Addr p = alloc.malloc(kSizes[i & 3], machine);
        alloc.free(p, machine);
    };
    for (std::uint64_t i = 0; i < 1024; ++i)
        pair(i);
    return nsPerCall(n, pair);
}

std::map<std::string, double>
runProbes()
{
    std::map<std::string, double> probes;
    probes["mem.hier_access_ns.l1"] = probeHierarchy(256, 4'000'000);
    probes["mem.hier_access_ns.dram"] = probeHierarchy(1u << 20, 400'000);
    probes["mem.tlb_translate_ns"] = probeTlb(4'000'000);
    std::string name;
    // The first function workload of each runtime selects its allocator.
    for (const Language lang :
         {Language::Python, Language::Cpp, Language::Golang}) {
        for (const WorkloadSpec &spec : allWorkloads()) {
            if (spec.lang == lang && spec.domain == Domain::Function) {
                const double ns =
                    probeAllocator(defaultConfig(), spec, 200'000, name);
                probes["rt." + name + ".malloc_free_ns"] = ns;
                break;
            }
        }
    }
    const double ns = probeAllocator(mementoConfig(), allWorkloads().front(),
                                     200'000, name);
    probes["hw." + name + ".malloc_free_ns"] = ns;
    return probes;
}

// ---------------------------------------------------------------------
// Output.

void
writeRuns(JsonWriter &w, const std::vector<RunRecord> &runs)
{
    w.beginArray();
    for (const RunRecord &r : runs) {
        w.beginObject();
        w.member("workload", r.workload);
        w.member("config", r.config);
        w.member("cycles", static_cast<std::uint64_t>(r.cycles));
        w.member("instructions", r.instructions);
        w.member("ops", r.ops);
        w.member("error", r.error);
        if (!r.counters.empty()) {
            w.key("counters").beginObject();
            for (const auto &[k, v] : r.counters)
                w.member(k, v);
            w.endObject();
        }
        w.endObject();
    }
    w.endArray();
}

void
writeFleet(JsonWriter &w, const Setup &s, const Outcome &o)
{
    w.beginObject();
    w.member("rate_rps", o.rateRps);
    w.member("cores", s.fleetCfg.fleet.cores);
    w.member("invocations", s.fleetCfg.fleet.invocations);
    w.member("freq_ghz", s.fleetCfg.core.freqGhz);
    w.member("error", o.fleetError);
    w.key("service_cycles").beginArray();
    for (const FleetProfile &p : o.profiles)
        w.value(static_cast<std::uint64_t>(p.serviceCycles));
    w.endArray();
    if (o.fleet) {
        const FleetMetrics &m = *o.fleet;
        w.member("arrivals", m.arrivals);
        w.member("completed", m.completed);
        w.member("rejected", m.rejected);
        w.member("cold_start_rate", m.coldStartRate());
        w.member("mean_resident_instances", m.packingDensity());
        w.member("p50_ms", m.latencyMs(s.fleetCfg, m.p50Cycles));
        w.member("p99_ms", m.latencyMs(s.fleetCfg, m.p99Cycles));
        w.member("digest", digestToHex(m.digest));
    }
    w.endObject();
}

struct StoreCheck
{
    std::uint64_t cells = 0;
    std::uint64_t bytes = 0;
    bool reloadOk = true;
};

/** Counts the store's cells; each run must reload equal to its result. */
StoreCheck
checkStore(ResultStore &store, const Setup &s, const Outcome &o)
{
    StoreCheck c;
    for (const std::string &file : store.listCellFiles()) {
        ++c.cells;
        c.bytes += fs::file_size(fs::path(store.dir()) / file);
    }
    for (std::size_t i = 0; i < s.tasks.size(); ++i) {
        RunResult loaded;
        unsigned attempts = 0;
        const CellKey key = store.runCellKey(s.tasks[i].spec->id,
                                             *s.tasks[i].cfg, RunOptions{});
        c.reloadOk = c.reloadOk && store.loadRun(key, loaded, attempts) &&
                     loaded == o.results[i];
    }
    return c;
}

void
writeStore(JsonWriter &w, const StoreCheck &c)
{
    w.beginObject();
    w.member("cells", c.cells);
    w.member("bytes", c.bytes);
    w.member("reload_ok", c.reloadOk);
    w.endObject();
}

void
writeHeader(JsonWriter &w, const Args &args, std::int64_t setup_ns)
{
    w.member("mode", args.mode);
    w.member("workload", args.workload);
    w.member("seed", args.seed);
    w.key("build").beginObject();
    w.member("compiler", __VERSION__);
    w.member("build_type", PERFBENCH_BUILD_TYPE);
    w.member("flags", PERFBENCH_BUILD_FLAGS);
    w.endObject();
    w.member("trace_op_bytes", static_cast<std::uint64_t>(sizeof(TraceOp)));
    w.member("setup_ns", static_cast<std::int64_t>(setup_ns));
}

void
runTimed(JsonWriter &w, const Args &args, const Setup &s,
         std::unique_ptr<ResultStore> store)
{
    // Repeat while another call is expected to fit the budget (always at
    // least one); every repeat must reproduce the first exactly.
    std::vector<std::int64_t> walls;
    Outcome first;
    bool repeats_agree = true;
    StoreCheck store_check;
    const auto budget_ns = static_cast<std::int64_t>(args.seconds * 1e9);
    const std::int64_t begin = monoNs();
    for (;;) {
        if (!walls.empty() && s.useStore)
            store = freshStore(s.storeRoot / "timed");
        const std::int64_t t = monoNs();
        Outcome o = untracedCall(s, store.get());
        walls.push_back(monoNs() - t);
        if (walls.size() == 1) {
            first = std::move(o);
            if (store)
                store_check = checkStore(*store, s, first);
        } else {
            bool same = o.runs.size() == first.runs.size() &&
                        o.fleetError == first.fleetError &&
                        o.fleet == first.fleet;
            for (std::size_t i = 0; same && i < o.runs.size(); ++i)
                same = o.runs[i].sameOutcome(first.runs[i]);
            repeats_agree = repeats_agree && same;
        }
        if ((monoNs() - begin) + walls.back() > budget_ns)
            break;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    w.key("wall_ns").beginArray();
    for (const std::int64_t v : walls)
        w.value(static_cast<std::int64_t>(v));
    w.endArray();
    w.member("repeats_agree", repeats_agree);
    w.member("peak_rss_kb", static_cast<std::int64_t>(ru.ru_maxrss));
    w.member("trace_ops", first.traceOps);
    w.key("runs");
    writeRuns(w, first.runs);
    if (s.fleet) {
        w.key("fleet");
        writeFleet(w, s, first);
    }
    if (s.useStore) {
        w.key("store");
        writeStore(w, store_check);
    }
}

void
runTraced(JsonWriter &w, const Setup &s, std::unique_ptr<ResultStore> store)
{
    const std::int64_t t = monoNs();
    const Outcome untraced = untracedCall(s, store.get());
    const std::int64_t untraced_ns = monoNs() - t;

    std::unique_ptr<ResultStore> traced_store;
    if (s.useStore)
        traced_store = freshStore(s.storeRoot / "traced");
    Tracer tracer;
    const Outcome traced =
        tracedCall(s, tracer, traced_store.get(), untraced);
    StoreCheck store_check;
    if (traced_store)
        store_check = checkStore(*traced_store, s, untraced);
    const std::map<std::string, double> probes = runProbes();

    w.member("untraced_wall_ns", static_cast<std::int64_t>(untraced_ns));
    w.member("workers", kWorkers);
    w.member("trace_ops", untraced.traceOps);
    w.key("runs");
    writeRuns(w, untraced.runs);
    w.key("traced_runs");
    writeRuns(w, traced.runs);
    if (s.fleet) {
        w.key("fleet");
        writeFleet(w, s, untraced);
        w.key("traced_fleet");
        writeFleet(w, s, traced);
    }
    if (s.useStore) {
        w.key("store");
        writeStore(w, store_check);
    }
    const std::vector<Span> spans = tracer.spans();
    const std::int64_t origin = spans.empty() ? 0 : spans.front().start;
    w.key("spans").beginArray();
    for (const Span &sp : spans) {
        w.beginObject();
        w.member("name", sp.name);
        w.member("start_ns", static_cast<std::int64_t>(sp.start - origin));
        w.member("end_ns", static_cast<std::int64_t>(sp.end - origin));
        w.member("parent", sp.parent);
        w.member("run", sp.run);
        w.endObject();
    }
    w.endArray();
    w.key("probes").beginObject();
    for (const auto &[k, v] : probes)
        w.member(k, v);
    w.endObject();
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        if (k == "--mode")
            a.mode = v;
        else if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--work-dir")
            a.workDir = v;
        else if (k == "--out")
            a.out = v;
        else if (k == "--t0-ns")
            a.t0 = std::stoll(v);
    }
    if ((a.mode != "setup" && a.mode != "timed" && a.mode != "traced") ||
        a.workload.empty() || a.workDir.empty() || a.out.empty() ||
        a.t0 == 0 || argc % 2 != 1) {
        std::cerr << "usage: perfbench_driver --mode timed|traced|setup "
                     "--workload W --seed N --seconds S --work-dir DIR "
                     "--out FILE --t0-ns T\n";
        std::exit(2);
    }
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    Setup s;
    makeSetup(args, s);
    std::unique_ptr<ResultStore> store;
    if (s.useStore)
        store = freshStore(s.storeRoot /
                           (args.mode == "traced" ? "untraced" : "timed"));
    std::ofstream os(args.out);
    if (!os) {
        std::cerr << "perfbench_driver: cannot write " << args.out << "\n";
        return 2;
    }
    // Set-up ends here: all of the above precedes the first timed call.
    const std::int64_t setup_ns = monoNs() - args.t0;

    {
        JsonWriter w(os);
        w.beginObject();
        writeHeader(w, args, setup_ns);
        if (args.mode == "timed")
            runTimed(w, args, s, std::move(store));
        else if (args.mode == "traced")
            runTraced(w, s, std::move(store));
        w.endObject();
    }
    os << "\n";
    os.close();
    std::error_code ec;
    fs::remove_all(s.storeRoot, ec);
    return os ? 0 : 2;
}
