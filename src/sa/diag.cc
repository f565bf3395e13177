#include "sa/diag.h"

#include <ostream>

#include "sim/json.h"
#include "sim/logging.h"

namespace memento {

std::string_view
severityName(DiagSeverity severity)
{
    switch (severity) {
      case DiagSeverity::Warning: return "warning";
      case DiagSeverity::Error: return "error";
    }
    panic("bad diagnostic severity");
}

const std::vector<DiagRule> &
allDiagRules()
{
    static const std::vector<DiagRule> rules = {
        // Trace checker (abstract interpretation over shadow state).
        {"trace-double-free", DiagSeverity::Error,
         "Free of an object that was already freed"},
        {"trace-free-unallocated", DiagSeverity::Error,
         "Free of an object id that was never allocated"},
        {"trace-use-after-free", DiagSeverity::Error,
         "Load/Store to an object after it was freed"},
        {"trace-use-unallocated", DiagSeverity::Error,
         "Load/Store to an object id that was never allocated"},
        {"trace-out-of-bounds", DiagSeverity::Error,
         "Load/Store offset past the end of a live object"},
        {"trace-duplicate-id", DiagSeverity::Error,
         "Malloc reuses an object id that is still live"},
        {"trace-size-class", DiagSeverity::Error,
         "Allocation size has no size class (zero, or larger than the "
         "per-class region so it cannot be HOT-routed)"},
        {"trace-arena-oversubscription", DiagSeverity::Error,
         "Live objects in one size class exceed the class's arena-region "
         "capacity"},
        {"trace-function-boundary", DiagSeverity::Error,
         "Operations follow a FunctionEnd terminator (out-of-order "
         "function boundary)"},
        {"trace-truncated", DiagSeverity::Error,
         "Op stream does not end with a FunctionEnd terminator"},
        {"trace-leak", DiagSeverity::Warning,
         "Objects still live when a stream ends without FunctionEnd"},
        {"trace-parse", DiagSeverity::Error,
         "Trace file is not parseable"},
        // Config linter (schema validation + cross-key contradictions).
        {"config-parse", DiagSeverity::Error,
         "Line is not a 'key = value' assignment"},
        {"config-unknown-key", DiagSeverity::Error,
         "Key is not in the configuration schema"},
        {"config-duplicate-key", DiagSeverity::Warning,
         "Key assigned more than once (the last value wins)"},
        {"config-bad-value", DiagSeverity::Error,
         "Value does not parse as the key's type, or is not a multiple "
         "of the allocator model's pool or slab size"},
        {"config-out-of-range", DiagSeverity::Error,
         "Value is outside the key's declared range"},
        {"config-region-overlap", DiagSeverity::Error,
         "Memento region [MRS, MRE) is inverted or overlaps the heap"},
        {"config-bypass-no-memento", DiagSeverity::Warning,
         "Memento hardware keys set while memento.enabled is off"},
        {"config-check-conflict", DiagSeverity::Warning,
         "check.interval can never fire before the check.max_ops "
         "watchdog"},
        {"config-fleet-bad-arrival", DiagSeverity::Error,
         "fleet.arrival is not one of poisson, bursty, diurnal"},
        {"config-fleet-bad-mix", DiagSeverity::Error,
         "fleet.mix is neither 'function', 'all', nor a workload id"},
        {"config-fleet-keepalive-no-budget", DiagSeverity::Warning,
         "fleet.keep_alive_ms keeps instances warm with no "
         "fleet.memory_budget_pages, so node RSS grows unbounded"},
        // Source linter (determinism over the repo's own sources).
        {"src-unordered-iteration", DiagSeverity::Warning,
         "std::unordered_{map,set,multimap,multiset} in code: hash order "
         "is implementation-defined, so whatever a walk feeds (stdout, "
         "digests, simulated access order) loses portability; use "
         "AddrMap or an ordered container"},
        {"src-pointer-key-order", DiagSeverity::Warning,
         "std::map/std::set keyed by a raw pointer iterates in allocator "
         "address order, which differs run to run"},
        {"src-unseeded-random", DiagSeverity::Error,
         "Randomness outside the seeded sim/rng layer (rand, "
         "std::random_device, std::random_shuffle) breaks replay from "
         "the spec seed"},
        {"src-wallclock-in-sim", DiagSeverity::Warning,
         "Host wall-clock time read inside simulation/digest code; "
         "simulated results must derive from the cycle ledger only"},
        {"src-naked-cout", DiagSeverity::Warning,
         "Process-stream write outside the serialized logging layer; "
         "parallel workers interleave lines"},
        {"src-fatal-in-library", DiagSeverity::Warning,
         "fatal()/abort()/exit() in model-layer code that should raise "
         "recoverable SimError so --keep-going sweeps survive"},
        {"src-float-accumulation-in-digest", DiagSeverity::Warning,
         "Floating-point value fed to the FNV-1a digest; FP rounding and "
         "summation order vary across platforms"},
    };
    return rules;
}

const DiagRule *
findDiagRule(std::string_view id)
{
    for (const DiagRule &rule : allDiagRules()) {
        if (rule.id == id)
            return &rule;
    }
    return nullptr;
}

bool
DiagPolicy::suppressed(std::string_view rule_id) const
{
    return allowed.find(rule_id) != allowed.end();
}

DiagSeverity
DiagPolicy::effective(DiagSeverity severity) const
{
    if (werror && severity == DiagSeverity::Warning)
        return DiagSeverity::Error;
    return severity;
}

void
DiagReport::add(std::string_view rule_id, std::string subject,
                std::uint64_t location, std::string message)
{
    const DiagRule *rule = findDiagRule(rule_id);
    panic_if(rule == nullptr, "unregistered diagnostic rule '", rule_id,
             "'");
    diags_.push_back(Diag{rule->id, rule->severity, std::move(subject),
                          location, std::move(message)});
}

void
DiagReport::append(const DiagReport &other)
{
    diags_.insert(diags_.end(), other.diags_.begin(),
                  other.diags_.end());
}

std::size_t
DiagReport::errors(const DiagPolicy &policy) const
{
    std::size_t n = 0;
    for (const Diag &d : diags_) {
        if (!policy.suppressed(d.ruleId) &&
            policy.effective(d.severity) == DiagSeverity::Error)
            ++n;
    }
    return n;
}

std::size_t
DiagReport::warnings(const DiagPolicy &policy) const
{
    std::size_t n = 0;
    for (const Diag &d : diags_) {
        if (!policy.suppressed(d.ruleId) &&
            policy.effective(d.severity) == DiagSeverity::Warning)
            ++n;
    }
    return n;
}

bool
DiagReport::clean(const DiagPolicy &policy) const
{
    return errors(policy) == 0;
}

void
DiagReport::printText(std::ostream &os, const DiagPolicy &policy) const
{
    for (const Diag &d : diags_) {
        if (policy.suppressed(d.ruleId))
            continue;
        os << d.subject << ':';
        if (d.hasLocation())
            os << d.location << ':';
        os << ' ' << severityName(policy.effective(d.severity)) << ": "
           << d.message << " [" << d.ruleId << "]\n";
    }
}

void
DiagReport::printJson(std::ostream &os, const DiagPolicy &policy) const
{
    JsonWriter w(os);
    w.beginObject();
    writeSchemaHeader(w, "diagnostics");
    w.key("findings").beginArray();
    for (const Diag &d : diags_) {
        if (policy.suppressed(d.ruleId))
            continue;
        w.beginObject();
        w.member("rule", d.ruleId);
        w.member("severity", severityName(policy.effective(d.severity)));
        w.member("subject", std::string_view(d.subject));
        if (d.hasLocation())
            w.member("location", d.location);
        w.member("message", std::string_view(d.message));
        w.endObject();
    }
    w.endArray();
    w.member("errors", static_cast<std::uint64_t>(errors(policy)));
    w.member("warnings", static_cast<std::uint64_t>(warnings(policy)));
    w.endObject();
}

} // namespace memento
