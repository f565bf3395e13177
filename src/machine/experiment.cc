#include "machine/experiment.h"

#include <algorithm>
#include <map>
#include <memory>

#include "sim/logging.h"
#include "val/digest.h"
#include "wl/trace_generator.h"

namespace memento {
namespace {

/**
 * Pair the registry snapshots taken at the window's edges. The registry
 * never drops a name, so every @p start name is also in @p end.
 */
std::vector<CounterReading>
readingsOf(const std::map<std::string, std::uint64_t> &start,
           const std::map<std::string, std::uint64_t> &end)
{
    std::vector<CounterReading> out;
    out.reserve(end.size());
    auto s = start.begin();
    for (const auto &[name, value] : end) {
        const bool seen = s != start.end() && s->first == name;
        out.push_back({name, seen ? s->second : 0, value});
        if (seen)
            ++s;
    }
    panic_if(s != start.end(), "counter ", s->first, " left the registry");
    return out;
}

const CounterReading *
findReading(const std::vector<CounterReading> &counters,
            std::string_view name)
{
    auto it = std::lower_bound(
        counters.begin(), counters.end(), name,
        [](const CounterReading &c, std::string_view n) {
            return std::string_view(c.name) < n;
        });
    return it != counters.end() && it->name == name ? &*it : nullptr;
}

} // namespace

std::uint64_t
RunResult::delta(std::string_view name) const
{
    const CounterReading *c = findReading(counters, name);
    return c != nullptr ? c->end - c->start : 0;
}

std::uint64_t
RunResult::end(std::string_view name) const
{
    const CounterReading *c = findReading(counters, name);
    return c != nullptr ? c->end : 0;
}

Cycles
RunResult::userMmCycles() const
{
    return category(CycleCategory::UserAlloc) +
           category(CycleCategory::UserFree);
}

Cycles
RunResult::kernelMmCycles() const
{
    return category(CycleCategory::KernelMmap) +
           category(CycleCategory::KernelFault) +
           category(CycleCategory::KernelOther);
}

Cycles
RunResult::hwMmCycles() const
{
    return category(CycleCategory::HwAlloc) +
           category(CycleCategory::HwFree) +
           category(CycleCategory::HwPage);
}

double
Comparison::speedup() const
{
    if (memento.cycles == 0)
        return 1.0;
    return static_cast<double>(base.cycles) /
           static_cast<double>(memento.cycles);
}

double
Comparison::bandwidthReduction() const
{
    if (base.dramBytes() == 0)
        return 0.0;
    const double ratio = static_cast<double>(memento.dramBytes()) /
                         static_cast<double>(base.dramBytes());
    return 1.0 - ratio;
}

RunResult
Experiment::runOne(const WorkloadSpec &spec, const Trace &trace,
                   const MachineConfig &cfg, RunOptions opts)
{
    RunResult res = tryRunOne(spec, trace, cfg, opts);
    if (res.error) {
        SimError err(res.error->category, res.error->message);
        err.tagOpIndex(res.error->opIndex);
        throw err;
    }
    return res;
}

RunResult
Experiment::tryRunOne(const WorkloadSpec &spec, const Trace &trace,
                      const MachineConfig &cfg_in, RunOptions opts)
{
    RunResult res;
    res.workload = spec.id;

    // A fault plan aimed at another workload must not fire here: the
    // OS/pool hooks it arms cannot see workload identity themselves.
    MachineConfig cfg = cfg_in;
    if (!cfg.inject.appliesTo(spec.id))
        cfg.inject = FaultPlan{};

    std::unique_ptr<Machine> machine;
    try {
        machine = std::make_unique<Machine>(cfg);
        machine->createProcess(spec);
    } catch (const SimError &e) {
        res.error = RunError{e.category(), e.what(), e.opIndex()};
        return res;
    }

    panic_if(machine->processCount() != 1 || machine->process().pid() != 1,
             "tryRunOne: RunResult::procStat expects one process, vm1");

    // Snapshot after set-up: the measurement window covers only the
    // function execution itself (warm-start semantics).
    const std::map<std::string, std::uint64_t> start =
        machine->stats().snapshot();
    const CycleLedger ledger_before = machine->cycleLedger();
    const std::uint64_t instr_before = machine->instructions();

    FunctionExecutor executor(*machine);
    try {
        executor.run(spec, trace, opts);
    } catch (const SimError &e) {
        // Keep the machine: the partial metrics below localise the
        // failure, and the sweep carries on with the next workload.
        res.error = RunError{e.category(), e.what(), e.opIndex()};
    }

    res.cycles = machine->cycleLedger().total() - ledger_before.total();
    for (std::size_t i = 0; i < kNumCycleCategories; ++i) {
        const auto cat = static_cast<CycleCategory>(i);
        res.byCategory[i] = machine->cycleLedger().category(cat) -
                            ledger_before.category(cat);
    }
    res.instructions = machine->instructions() - instr_before;

    res.counters = readingsOf(start, machine->stats().snapshot());
    std::uint64_t peak = res.end("buddy.peak_pages");
    if (machine->hwPageAllocator()) {
        const std::uint64_t slack =
            machine->hwPageAllocator()->poolFreePages();
        peak = peak > slack ? peak - slack : 0;
    }
    res.peakResidentPages = peak;
    res.hotValidEntries =
        machine->hot() != nullptr ? machine->hot()->validEntries() : 0;
    res.fragInactiveFraction = executor.fragSample();

    if (opts.computeDigest)
        res.digest = digestMachine(*machine);
    return res;
}

Comparison
Experiment::compare(const WorkloadSpec &spec,
                    const MachineConfig &base_cfg,
                    const MachineConfig &memento_cfg, RunOptions opts)
{
    panic_if(base_cfg.memento.enabled, "compare: base has Memento on");
    panic_if(!memento_cfg.memento.enabled,
             "compare: memento config has Memento off");

    const Trace trace = TraceGenerator(spec).generate();

    Comparison cmp;
    cmp.spec = spec;
    cmp.base = runOne(spec, trace, base_cfg, opts);
    cmp.memento = runOne(spec, trace, memento_cfg, opts);

    MachineConfig no_bypass = memento_cfg;
    no_bypass.memento.bypassEnabled = false;
    cmp.mementoNoBypass = runOne(spec, trace, no_bypass, opts);
    return cmp;
}

Comparison
Experiment::compareDefault(const WorkloadSpec &spec, RunOptions opts)
{
    return compare(spec, defaultConfig(), mementoConfig(), opts);
}

} // namespace memento
