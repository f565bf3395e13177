"""Tests of the benchmark's own logic; they need no build.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import os
import unittest

import metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def span(name, start, end, parent):
    return {"name": name, "start_ns": start, "end_ns": end,
            "parent": parent, "run": -1}


class SelfTimeTest(unittest.TestCase):
    def test_parent_minus_children(self):
        spans = [span("root", 0, 100, -1), span("a", 10, 30, 0),
                 span("b", 60, 70, 0)]
        self.assertEqual(metrics.self_time_ns(spans, 0), 70)
        self.assertEqual(metrics.self_time_ns(spans, 1), 20)

    def test_overlapping_children_count_once(self):
        # Two workers' tasks overlap in [20, 30); they cover [10, 50).
        spans = [span("root", 0, 100, -1), span("t0", 10, 30, 0),
                 span("t1", 20, 50, 0)]
        self.assertEqual(metrics.self_time_ns(spans, 0), 60)

    def test_only_direct_children_count(self):
        spans = [span("root", 0, 100, -1), span("task", 0, 40, 0),
                 span("replay", 5, 35, 1)]
        self.assertEqual(metrics.self_time_ns(spans, 0), 60)
        self.assertEqual(metrics.self_time_ns(spans, 1), 10)

    def test_child_clipped_to_parent(self):
        spans = [span("root", 10, 20, -1), span("late", 15, 40, 0)]
        self.assertEqual(metrics.self_time_ns(spans, 0), 5)


REFERENCE = {
    "seed": 1,
    "runs": {"html": {"base": 100, "memento": 90, "nobypass": 95}},
    "fleet": {"invocations": 1000, "digest": "00000000000000aa"},
}


def sweep_doc(seed=1):
    runs = [{"workload": "html", "config": config, "cycles": cycles,
             "instructions": 10 * cycles, "ops": 50, "error": ""}
            for config, cycles in (("base", 100), ("memento", 90),
                                   ("nobypass", 95))]
    return {"seed": seed, "runs": runs, "repeats_agree": True}


def fleet_doc(seed=1, rate_rps=200.0):
    return {"seed": seed, "runs": [], "fleet": {
        "error": "", "rate_rps": rate_rps, "service_cycles": [81_000_000],
        "freq_ghz": 3.0, "cores": 8, "invocations": 1000,
        "completed": 1000, "rejected": 0, "digest": "00000000000000aa"}}


class OutputCheckTest(unittest.TestCase):
    def test_matching_reference_passes(self):
        self.assertEqual(metrics.check_outputs(sweep_doc(), REFERENCE),
                         (3, 0, []))
        self.assertEqual(metrics.check_outputs(fleet_doc(), REFERENCE),
                         (1, 0, []))

    def test_doctored_reference_is_rejected(self):
        doctored = copy.deepcopy(REFERENCE)
        doctored["runs"]["html"]["memento"] += 1
        attempted, failed, problems = metrics.check_outputs(sweep_doc(),
                                                            doctored)
        self.assertEqual((attempted, failed), (3, 1))
        self.assertIn("html/memento", problems[0])

        doctored = copy.deepcopy(REFERENCE)
        doctored["fleet"]["digest"] = "00000000000000ab"
        self.assertEqual(metrics.check_outputs(fleet_doc(), doctored)[:2],
                         (1, 1))

    def test_other_seeds_check_the_traced_twin(self):
        doc = sweep_doc(seed=7)
        doc["runs"][0]["cycles"] = 12345  # Not pinned at this seed.
        doc["traced_runs"] = copy.deepcopy(doc["runs"])
        self.assertEqual(metrics.check_outputs(doc, REFERENCE), (3, 0, []))
        doc["traced_runs"][2]["cycles"] += 1
        self.assertEqual(metrics.check_outputs(doc, REFERENCE)[:2], (3, 1))

    def test_failed_run_counts(self):
        doc = sweep_doc()
        doc["runs"][1]["error"] = "failed: out-of-memory"
        self.assertEqual(metrics.check_outputs(doc, REFERENCE)[:2], (3, 1))


class OfferedLoadTest(unittest.TestCase):
    def test_rho(self):
        # E[S] = 60 M cycles at 3 GHz = 20 ms; 200 rps over 8 cores.
        self.assertAlmostEqual(
            metrics.offered_load(200.0, [30_000_000, 90_000_000], 3.0, 8),
            0.5)

    def test_saturated_fleet_fails(self):
        attempted, failed, problems = metrics.check_outputs(
            fleet_doc(seed=5, rate_rps=2000.0), REFERENCE)
        self.assertEqual((attempted, failed), (1, 1))
        self.assertIn("offered load", problems[0])


class MetricNameTest(unittest.TestCase):
    def test_grammar(self):
        for good in ("wall_s", "machine.run_s.p85", "9lives", "a" * 64):
            self.assertTrue(metrics.valid_metric_name(good), good)
        for bad in ("", "_x", ".x", "a b", "a/b", "a" * 65, "mé"):
            self.assertFalse(metrics.valid_metric_name(bad), bad)
        for good in ("s", "1/s", "count", "%", "Minstr/s"):
            self.assertTrue(metrics.valid_unit(good), good)
        for bad in ("", "a b", "x" * 17):
            self.assertFalse(metrics.valid_unit(bad), bad)

    def test_tables_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        for key, table in (("end_to_end", metrics.END_TO_END),
                           ("per_layer", metrics.PER_LAYER)):
            self.assertEqual({m["name"]: m["unit"] for m in bench[key]},
                             table, key)
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in bench[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(metrics.valid_metric_name(name), name)
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertTrue(metrics.valid_unit(m["unit"]), m)


if __name__ == "__main__":
    unittest.main()
