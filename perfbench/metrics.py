"""Metric derivation and output checks for the repository benchmark.

Pure functions over the driver's raw JSON document (see driver.cc), kept
apart from run.py so that test_metrics.py can exercise them without a
build. The two metric tables below are the single definition of every
reported name and unit; BENCHMARK.json lists the same names.
"""

import math
import re
import statistics
from collections import Counter, defaultdict

END_TO_END = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "sim_mips": "Minstr/s",
}

PER_LAYER = {
    "wl.generate_s": "s",
    "wl.trace_ops": "count",
    "wl.trace_mb": "MB",
    "machine.setup_s": "s",
    "machine.replay_s": "s",
    "machine.teardown_s": "s",
    "machine.replay_ns_per_op": "ns",
    "machine.run_s.p50": "s",
    "machine.run_s.p85": "s",
    "mem.l1d_accesses": "count",
    "mem.l1d_miss_ratio": "ratio",
    "mem.l2_miss_ratio": "ratio",
    "mem.llc_miss_ratio": "ratio",
    "mem.dram_bytes": "B",
    "mem.l1tlb_miss_ratio": "ratio",
    "mem.page_walks": "count",
    "mem.bypassed_lines": "count",
    "os.page_faults": "count",
    "os.mmap_calls": "count",
    "os.buddy_alloc_calls": "count",
    "rt.small_mallocs": "count",
    "rt.small_frees": "count",
    "rt.gc_runs": "count",
    "hw.hot_alloc_hit_ratio": "ratio",
    "hw.hot_free_hit_ratio": "ratio",
    "hw.aac_hit_ratio": "ratio",
    "hw.arena_grants": "count",
    "fleet.profile_s": "s",
    "fleet.arrivals_s": "s",
    "fleet.loop_s": "s",
    "fleet.loop_ns_per_invocation": "ns",
    "fleet.offered_load": "ratio",
    "fleet.cold_start_rate": "ratio",
    "fleet.mean_resident_instances": "count",
    "sweep.idle_s": "s",
    "store.write_s": "s",
    "store.cells_written": "count",
    "store.bytes_written": "B",
    "mem.hier_access_ns.l1": "ns",
    "mem.hier_access_ns.dram": "ns",
    "mem.tlb_translate_ns": "ns",
    "rt.pymalloc.malloc_free_ns": "ns",
    "rt.jemalloc.malloc_free_ns": "ns",
    "rt.gomalloc.malloc_free_ns": "ns",
    "hw.memento.malloc_free_ns": "ns",
    "est.replay_s.cache": "s",
    "est.replay_s.tlb": "s",
    "est.replay_s.alloc": "s",
    "est.replay_s.rest": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.unattributed_frac": "ratio",
}

# Counters holding each probed allocator's malloc count, for the
# probe-based attribution of replay time.
ALLOC_COUNTERS = {
    "rt.pymalloc.malloc_free_ns": ["pymalloc.small_mallocs"],
    "rt.jemalloc.malloc_free_ns": ["jemalloc.small_mallocs"],
    "rt.gomalloc.malloc_free_ns": ["gomalloc.small_mallocs"],
    "hw.memento.malloc_free_ns": ["hot.alloc_hits", "hot.alloc_misses"],
}

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", re.ASCII)
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}", re.ASCII)


def valid_metric_name(name):
    """A letter or digit, then at most 63 more of letters, digits, _ . -"""
    return isinstance(name, str) and _NAME.fullmatch(name) is not None


def valid_unit(unit):
    """1 to 16 of letters, digits, _ / % . -"""
    return isinstance(unit, str) and _UNIT.fullmatch(unit) is not None


# ---------------------------------------------------------------------
# Spans


def covered_ns(intervals):
    """Length of the union of half-open [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time_ns(spans, index):
    """A span's duration minus the part of its interval its children cover.

    Children on different threads may overlap; their union is what is
    subtracted, so overlap is not counted twice.
    """
    span = spans[index]
    lo, hi = span["start_ns"], span["end_ns"]
    kids = []
    for child in spans:
        if child["parent"] == index:
            start, end = max(child["start_ns"], lo), min(child["end_ns"], hi)
            if end > start:
                kids.append((start, end))
    return (hi - lo) - covered_ns(kids)


def nearest_rank(values, q):
    """Nearest-rank percentile q (0 < q <= 1) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


# ---------------------------------------------------------------------
# Fleet


def offered_load(rate_rps, service_cycles, freq_ghz, cores):
    """rho = lambda * E[S] / c, E[S] over a uniform mix of the profiles."""
    mean_s = sum(service_cycles) / len(service_cycles) / (freq_ghz * 1e9)
    return rate_rps * mean_s / cores


# ---------------------------------------------------------------------
# Output checks


def _outcome(run):
    return (run["workload"], run["config"], run["cycles"],
            run["instructions"], run["error"])


def _check_fleet(fleet, seed, reference):
    if fleet.get("error"):
        return ["fleet: " + fleet["error"]]
    problems = []
    rho = offered_load(fleet["rate_rps"], fleet["service_cycles"],
                       fleet["freq_ghz"], fleet["cores"])
    if rho >= 1.0:
        problems.append(f"fleet: offered load {rho:.3f} >= 1 (saturated)")
    if fleet["completed"] != fleet["invocations"] or fleet["rejected"]:
        problems.append(
            f"fleet: completed {fleet['completed']} and rejected "
            f"{fleet['rejected']} of {fleet['invocations']} invocations")
    pinned = reference["fleet"]
    if seed == reference["seed"]:
        if pinned["invocations"] != fleet["invocations"]:
            problems.append(
                f"fleet: reference pinned at {pinned['invocations']} "
                f"invocations, the run made {fleet['invocations']}")
        elif pinned["digest"] != fleet["digest"]:
            problems.append(f"fleet: digest {fleet['digest']} != pinned "
                            f"{pinned['digest']}")
    return problems


def check_outputs(raw, reference):
    """Check a raw driver document; returns (attempted, failed, problems).

    A run fails when it raised SimError, when at the reference seed its
    cycles differ from the pinned value, or when its traced twin
    disagrees with it. fleet-node's fleet stage is one more attempt.
    """
    problems = []
    runs = raw["runs"]
    failed = set()
    for i, run in enumerate(runs):
        label = f"{run['workload']}/{run['config']}"
        if run["error"]:
            failed.add(i)
            problems.append(f"{label}: {run['error']}")
        if raw["seed"] == reference["seed"]:
            want = reference["runs"].get(run["workload"], {}).get(
                run["config"])
            if want != run["cycles"]:
                failed.add(i)
                problems.append(
                    f"{label}: cycles {run['cycles']} != pinned {want}")
    traced = raw.get("traced_runs")
    if traced is not None:
        if len(traced) != len(runs):
            problems.append("traced run count differs from the untraced one")
        for i, (a, b) in enumerate(zip(runs, traced)):
            if _outcome(a) != _outcome(b):
                failed.add(i)
                problems.append(f"{a['workload']}/{a['config']}: the traced "
                                f"run disagrees with the untraced one")
    if raw.get("repeats_agree") is False:
        problems.append("repeated timed calls disagree")
        failed.update(range(len(runs)))
    attempted = len(runs)
    fleet = raw.get("fleet")
    if fleet is not None:
        attempted += 1
        fleet_problems = _check_fleet(fleet, raw["seed"], reference)
        twin = raw.get("traced_fleet")
        if twin is not None and twin.get("digest") != fleet.get("digest"):
            fleet_problems.append("fleet: the traced digest disagrees")
        if fleet_problems:
            failed.add(len(runs))
            problems += fleet_problems
    store = raw.get("store")
    if store is not None and (store["cells"] != len(runs)
                              or not store["reload_ok"]):
        problems.append(f"store: {store['cells']} cells for {len(runs)} "
                        f"runs, reload ok: {store['reload_ok']}")
    return attempted, len(failed), problems


# ---------------------------------------------------------------------
# Metrics


def end_to_end(raw, setup_ns):
    """End-to-end metrics of a timed document and set-up samples (ns)."""
    wall_s = statistics.median(raw["wall_ns"]) / 1e9
    instructions = sum(run["instructions"] for run in raw["runs"])
    values = {
        "wall_s": wall_s,
        "peak_rss_mb": raw["peak_rss_kb"] * 1024 / 1e6,
        "setup_s": statistics.median(setup_ns) / 1e9,
        "sim_mips": instructions / (wall_s * 1e6),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def _ratio(num, den):
    return num / den if den else 0.0


def _dur_s(span):
    return (span["end_ns"] - span["start_ns"]) / 1e9


def per_layer(raw):
    """Per-layer metrics of a traced document. A layer that does no work
    on the workload reads 0."""
    spans = raw["spans"]
    dur = defaultdict(float)
    for span in spans:
        dur[span["name"]] += _dur_s(span)
    root = next(i for i, s in enumerate(spans) if s["parent"] == -1)
    wall_s = _dur_s(spans[root])

    runs = raw["traced_runs"]
    c = Counter()
    for run in runs:
        c.update(run.get("counters", {}))
    run_s = [_dur_s(s) for s in spans if s["name"] == "machine.run"]
    replay_ops = sum(run["ops"] for run in runs)

    # Pool idle time: workers x the pool's wall minus the tasks' busy time.
    pool = next((i for i, s in enumerate(spans)
                 if s["name"] == "fleet.profile"), root)
    busy_s = sum(_dur_s(s) for s in spans
                 if s["name"] == "sweep.task" and s["parent"] == pool)

    # Probe-based attribution of replay time (an estimate).
    probes = raw["probes"]
    l1d = c["l1d.hits"] + c["l1d.misses"]
    l1tlb = c["l1tlb.hits"] + c["l1tlb.misses"]
    l1_ns = probes["mem.hier_access_ns.l1"]
    cache_s = (l1d * l1_ns + c["llc.misses"] *
               (probes["mem.hier_access_ns.dram"] - l1_ns)) / 1e9
    tlb_s = l1tlb * probes["mem.tlb_translate_ns"] / 1e9
    alloc_s = sum(probes[probe] * sum(c[n] for n in names)
                  for probe, names in ALLOC_COUNTERS.items()) / 1e9

    fleet = raw.get("traced_fleet") or {}
    store = raw.get("store") or {}
    unattributed_s = self_time_ns(spans, root) / 1e9
    values = dict(probes)
    values.update({
        "wl.generate_s": dur["wl.generate"],
        "wl.trace_ops": raw["trace_ops"],
        "wl.trace_mb": raw["trace_ops"] * raw["trace_op_bytes"] / 1e6,
        "machine.setup_s": dur["machine.setup"],
        "machine.replay_s": dur["machine.replay"],
        "machine.teardown_s": dur["machine.teardown"],
        "machine.replay_ns_per_op": _ratio(dur["machine.replay"] * 1e9,
                                           replay_ops),
        "machine.run_s.p50": nearest_rank(run_s, 0.50),
        "machine.run_s.p85": nearest_rank(run_s, 0.85),
        "mem.l1d_accesses": l1d,
        "mem.l1d_miss_ratio": _ratio(c["l1d.misses"], l1d),
        "mem.l2_miss_ratio": _ratio(c["l2.misses"],
                                    c["l2.hits"] + c["l2.misses"]),
        "mem.llc_miss_ratio": _ratio(c["llc.misses"],
                                     c["llc.hits"] + c["llc.misses"]),
        "mem.dram_bytes": c["dram.bytes"],
        "mem.l1tlb_miss_ratio": _ratio(c["l1tlb.misses"], l1tlb),
        "mem.page_walks": c["l2tlb.misses"],
        "mem.bypassed_lines": c["hier.bypassed_lines"],
        "os.page_faults": c["vm.faults"],
        "os.mmap_calls": c["vm.mmap_calls"],
        "os.buddy_alloc_calls": c["buddy.alloc_calls"],
        "rt.small_mallocs": sum(c[f"{a}.small_mallocs"] for a in
                                ("pymalloc", "jemalloc", "gomalloc",
                                 "tcmalloc")),
        "rt.small_frees": sum(c[f"{a}.small_frees"] for a in
                              ("pymalloc", "jemalloc", "tcmalloc"))
        + c["gomalloc.deaths"],
        "rt.gc_runs": c["gomalloc.gc_runs"],
        "hw.hot_alloc_hit_ratio": _ratio(
            c["hot.alloc_hits"], c["hot.alloc_hits"] + c["hot.alloc_misses"]),
        "hw.hot_free_hit_ratio": _ratio(
            c["hot.free_hits"], c["hot.free_hits"] + c["hot.free_misses"]),
        "hw.aac_hit_ratio": _ratio(c["aac.hits"],
                                   c["aac.hits"] + c["aac.misses"]),
        "hw.arena_grants": c["hwpage.arena_grants"],
        "fleet.profile_s": dur["fleet.profile"],
        "fleet.arrivals_s": dur["fleet.arrivals"],
        "fleet.loop_s": dur["fleet.loop"],
        "fleet.loop_ns_per_invocation": _ratio(
            dur["fleet.loop"] * 1e9, fleet.get("invocations", 0)),
        "fleet.offered_load": offered_load(
            fleet["rate_rps"], fleet["service_cycles"], fleet["freq_ghz"],
            fleet["cores"]) if fleet.get("service_cycles") else 0.0,
        "fleet.cold_start_rate": fleet.get("cold_start_rate", 0.0),
        "fleet.mean_resident_instances":
            fleet.get("mean_resident_instances", 0.0),
        "sweep.idle_s": raw["workers"] * _dur_s(spans[pool]) - busy_s,
        "store.write_s": dur["store.write"],
        "store.cells_written": store.get("cells", 0),
        "store.bytes_written": store.get("bytes", 0),
        "est.replay_s.cache": cache_s,
        "est.replay_s.tlb": tlb_s,
        "est.replay_s.alloc": alloc_s,
        "est.replay_s.rest": dur["machine.replay"] - cache_s - tlb_s - alloc_s,
        "trace.wall_s": wall_s,
        "trace.overhead_s": wall_s - raw["untraced_wall_ns"] / 1e9,
        "trace.unattributed_s": unattributed_s,
        "trace.unattributed_frac": _ratio(unattributed_s, wall_s),
    })
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}
