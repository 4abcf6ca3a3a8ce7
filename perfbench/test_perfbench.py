#!/usr/bin/env python3
"""Tests for the benchmark's own arithmetic: the fastest-round estimator,
the median set-up time, the reference-kernel host scale, the metric-name
rule, and that BENCHMARK.json declares exactly the metrics run.py prints.

Run from the root of the repository:  python3 perfbench/test_perfbench.py
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def item(name, rounds, kind="scenario", scenarios=1, events=0, sim_ns=0,
         traced=()):
    return {"name": name, "kind": kind, "scenarios": scenarios,
            "events": events, "sim_ns": sim_ns, "rounds_s": list(rounds),
            "traced_rounds_s": list(traced)}


class FastestRoundEstimator(unittest.TestCase):
    def test_sums_each_items_fastest_round(self):
        items = [item("a", [0.30, 0.20, 0.25, 0.35]),
                 item("b", [1.0, 1.5, 1.2, 1.1])]
        self.assertAlmostEqual(run.fastest_round_total(items), 1.20)

    def test_fastest_rounds_may_come_from_different_rounds(self):
        # a is fastest in round 2, b in round 1: each keeps its own best.
        items = [item("a", [0.9, 0.3, 0.5, 0.6]),
                 item("b", [0.4, 0.8, 0.5, 0.6])]
        self.assertAlmostEqual(run.fastest_round_total(items), 0.7)

    def test_contended_rounds_do_not_move_the_estimate(self):
        fast = [item("a", [0.15, 0.16, 0.15, 0.16]),
                item("b", [0.20, 0.21, 0.20, 0.21])]
        contended = [item("a", [0.15, 0.30, 0.29, 0.31, 0.16, 0.30]),
                     item("b", [0.41, 0.20, 0.40, 0.21, 0.42, 0.40])]
        self.assertAlmostEqual(run.fastest_round_total(fast),
                               run.fastest_round_total(contended))

    def test_needs_repeated_rounds(self):
        with self.assertRaises(ValueError):
            run.fastest_round_total([item("a", [0.2, 0.3, 0.2])])
        with self.assertRaises(ValueError):
            run.fastest_round_total([])

    def test_reads_the_traced_rounds_when_asked(self):
        items = [item("a", [1.0, 2.0, 1.5, 1.2], traced=[1.1, 1.3, 1.2, 1.4])]
        self.assertAlmostEqual(
            run.fastest_round_total(items, "traced_rounds_s"), 1.1)

    def test_end_to_end_metrics_use_the_estimator(self):
        data = {
            "items": [
                item("s1", [0.5, 0.25, 0.3, 0.4], scenarios=1,
                     sim_ns=2_000_000_000),
                item("s2", [0.75, 0.5, 0.6, 0.7], scenarios=1,
                     sim_ns=1_000_000_000),
                item("r", [0.02, 0.01, 0.03, 0.02], kind="rerun",
                     scenarios=2),
            ],
            # setup_s is the sum of each component's median sample.
            "setup": {"startup": [0.004, 0.003, 0.009],
                      "build#0": [0.001, 0.002]},
            "peak_rss": {"self_kb": 2048, "children_kb": 1024},
            "attempted": 4, "not_ok": 1,
            "paper": [{"sim": 50.0, "paper": 100.0},
                      {"sim": 1.5, "paper": 1.0}],
            "reference_s": [run.REFERENCE_S * 1.3, run.REFERENCE_S],
        }
        m = run.end_to_end(data, run.host_scale(data))
        self.assertAlmostEqual(m["scen_per_min"], 60.0 * 2 / 0.75)
        self.assertAlmostEqual(m["sim_s_per_wall_s"], 3.0 / 0.75)
        self.assertAlmostEqual(m["setup_s"], 0.004 + 0.0015)
        self.assertAlmostEqual(m["rerun_scen_per_min"], 60.0 * 2 / 0.01)
        self.assertAlmostEqual(m["peak_rss_mb"], 2.0)
        self.assertAlmostEqual(m["ok_pct"], 75.0)
        self.assertAlmostEqual(m["paper_err_pct"], 50.0)

    def test_host_times_follow_the_reference_kernel(self):
        # A host running everything half as fast doubles the rounds, the
        # set-up and the reference kernel alike; the metrics stay put.
        def run_on(slowdown):
            return {
                "items": [item("s", [0.5 * slowdown] * 4,
                               sim_ns=1_000_000_000),
                          item("r", [0.01 * slowdown] * 4, kind="rerun",
                               scenarios=2)],
                "setup": {"startup": [0.003 * slowdown]},
                "peak_rss": {"self_kb": 1024}, "attempted": 1, "not_ok": 0,
                "paper": [{"sim": 1.0, "paper": 1.0}],
                "reference_s": [run.REFERENCE_S * 1.1 * slowdown],
            }
        fast, slow = run_on(1.0), run_on(2.0)
        self.assertAlmostEqual(run.host_scale(fast),
                               2.0 * run.host_scale(slow))
        a = run.end_to_end(fast, run.host_scale(fast))
        b = run.end_to_end(slow, run.host_scale(slow))
        for name in ("scen_per_min", "sim_s_per_wall_s", "setup_s",
                     "rerun_scen_per_min"):
            self.assertAlmostEqual(a[name], b[name], msg=name)
        # Unscaled, the slow host reads half the rate.
        self.assertAlmostEqual(run.end_to_end(slow, 1.0)["scen_per_min"],
                               run.end_to_end(fast, 1.0)["scen_per_min"] / 2)


class MetricNameRule(unittest.TestCase):
    def test_accepts_names_and_units_in_the_alphabet(self):
        for name, unit in [("scen_per_min", "1/min"), ("setup_s", "s"),
                           ("config.scenario_us.p99", "us"),
                           ("kernel.irqs_per_sim_s", "1/s"),
                           ("ok_pct", "%"), ("a-b.c_9", "count")]:
            run.check_metric(name, unit)

    def test_rejects_bad_names(self):
        for name in ["", "has space", "µs_total", ".leading", "_leading",
                     "x" * 65, "semi;colon", None]:
            with self.assertRaises(ValueError, msg=repr(name)):
                run.check_metric(name, "s")

    def test_rejects_missing_or_bad_units(self):
        for unit in ["", None, "µs", "per second", "x" * 17]:
            with self.assertRaises(ValueError, msg=repr(unit)):
                run.check_metric("latency", unit)

    def test_every_declared_metric_follows_the_rule(self):
        names = [n for n, _ in run.END_TO_END + run.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name, unit in run.END_TO_END + run.PER_LAYER:
            run.check_metric(name, unit)


class BenchmarkJson(unittest.TestCase):
    def setUp(self):
        path = os.path.join(ROOT, "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json beside perfbench/")
        with open(path) as f:
            self.doc = json.load(f)

    def test_declares_exactly_the_printed_metrics(self):
        e2e = [(m["name"], m["unit"]) for m in self.doc["end_to_end"]]
        layers = [(m["name"], m["unit"]) for m in self.doc["per_layer"]]
        self.assertEqual(e2e, run.END_TO_END)
        self.assertEqual(layers, run.PER_LAYER)

    def test_declares_exactly_the_workloads(self):
        self.assertEqual(tuple(w["name"] for w in self.doc["workloads"]),
                         run.WORKLOADS)

    def test_setup_time_is_declared_with_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.doc["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))


if __name__ == "__main__":
    unittest.main()
