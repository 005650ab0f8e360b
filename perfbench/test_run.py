#!/usr/bin/env python3
"""Self-tests of the benchmark's reporting rules (no build needed):

    python3 perfbench/test_run.py
"""

import copy
import json
import os
import unittest
from unittest import mock

import run


def fleet_run(**counter_overrides):
    counters = {
        "hosts": 10, "ticks": 4, "shards": 2, "offered": 40, "missing": 3,
        "emitted": 37, "admitted": 37, "shed": 0, "batches": 8,
        "scored_rows": 37, "drift_triggers": 1, "drift_trigger_tick": 1,
        "model_swaps": 1, "model_swap_tick": 3, "final_model_epoch": 1,
    }
    counters.update(counter_overrides)
    return {
        "setup": 0, "ops": counters["offered"], "run_s": 2.0, "cpu_s": 3.0,
        "verdict_hash": "bb",
        "counters": counters,
        "verdict_latency_us": {"count": 8, "p50": 1.0, "p99": 3.0},
    }


def setup(seconds=1.0):
    return {"seed": 1, "setup_s": seconds}


def record(workload, runs, setups=None, traced=None):
    r = {"workload": workload, "runs": runs,
         "setups": setups if setups is not None else [setup()]}
    if traced is not None:
        r["traced"] = traced
    return r


def traced(drift_runs, other_runs=(), **reproduced):
    return {"other_workload": "fleet-serve", "other_runs": list(other_runs),
            "drift_runs": drift_runs, "reproduced": reproduced,
            "layers": {}}


class TailPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(19))
        self.assertEqual(run.tail_percentile(20), 50)
        self.assertEqual(run.tail_percentile(199), 50)
        self.assertEqual(run.tail_percentile(200), 95)
        self.assertEqual(run.tail_percentile(999), 95)
        self.assertEqual(run.tail_percentile(1000), 99)

    def test_fractional_percentile_is_exact(self):
        candidates = (50, 99, 99.9)
        self.assertEqual(run.tail_percentile(9999, candidates), 99)
        self.assertEqual(run.tail_percentile(10000, candidates), 99.9)


class NameGrammar(unittest.TestCase):
    def test_accepts(self):
        for name in ("setup_s", "ml.train_s.JRip", "9lives", "a-b.c_d",
                     "x" * 64):
            self.assertTrue(run.valid_name(name), name)

    def test_rejects(self):
        for name in ("", "_x", ".x", "a b", "a/b", "µs", "x" * 65, None):
            self.assertFalse(run.valid_name(name), name)

    def test_declared_metrics_follow_the_grammar(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            declared = run.declared_metrics(json.load(f))
        self.assertEqual([n for n, _ in declared["end_to_end"]],
                         ["setup_s", "run_cpu_s", "peak_rss_mb"])
        self.assertTrue(declared["per_layer"])

    def test_duplicate_names_are_refused(self):
        bench = {"end_to_end": [{"name": "a", "unit": "s"}],
                 "per_layer": [{"name": "a", "unit": "s"}]}
        with self.assertRaises(ValueError):
            run.declared_metrics(bench)


class RoundTrip(unittest.TestCase):
    def test_result_line_round_trips(self):
        metrics = {"setup_s": (0.1 + 0.2, "s"), "run_cpu_s": (1e-7, "s"),
                   "peak_rss_mb": (123.456789012345678, "MB")}
        line = run.format_result(True, 288, 0, metrics)
        self.assertNotIn("\n", line)
        parsed = json.loads(line)
        self.assertEqual(parsed, {
            "correct": True, "attempted": 288, "failed": 0,
            "metrics": {n: {"value": v, "unit": u}
                        for n, (v, u) in metrics.items()}})

    def test_per_layer_metrics_match_the_declaration(self):
        declared = {"end_to_end": [], "per_layer": [("a", "s"), ("b", "s")]}
        rec = {"traced": {"layers": {"a": 2.5, "b": 0.5}}}
        self.assertEqual(run.result_metrics(rec, declared, True),
                         {"a": (2.5, "s"), "b": (0.5, "s")})
        del rec["traced"]["layers"]["b"]
        with self.assertRaises(ValueError):
            run.result_metrics(rec, declared, True)
        rec["traced"]["layers"].update(b=0.5, c=1.0)
        with self.assertRaises(ValueError):
            run.result_metrics(rec, declared, True)


class Aggregation(unittest.TestCase):
    def test_medians_of_set_ups_and_calls(self):
        runs = [dict(fleet_run(), cpu_s=t) for t in (3.0, 1.0, 2.0, 9.0)]
        setups = [setup(seconds=t) for t in (5.0, 7.0, 6.0)]
        rec = dict(record("fleet-serve", runs, setups), peak_rss_mb=12.0)
        self.assertEqual(run.end_to_end_values(rec),
                         {"setup_s": 6.0, "run_cpu_s": 2.5,
                          "peak_rss_mb": 12.0})


class Checks(unittest.TestCase):
    def test_clean_runs_pass(self):
        rec = record("fleet-serve", [fleet_run(), fleet_run()],
                     traced=traced([fleet_run(), fleet_run()],
                                   verdict_hash=True))
        self.assertEqual(run.evaluate(rec), (160, 0, []))

    def test_traced_run_checks_the_other_reference(self):
        rec = record("fleet-serve", [fleet_run()],
                     traced=traced([fleet_run()], [fleet_run(shed=1)]))
        attempted, failed, violations = run.evaluate(rec)
        self.assertEqual((attempted, failed), (120, 40))
        self.assertTrue(any("admitted + shed" in v for v in violations))

    def test_shed_samples_fail(self):
        it = fleet_run(admitted=30, shed=7, scored_rows=30)
        self.assertEqual(run.evaluate(record("fleet-serve", [it])),
                         (40, 7, []))

    def test_broken_invariant_fails_the_call(self):
        runs = [fleet_run(), fleet_run(scored_rows=36)]
        attempted, failed, violations = run.evaluate(
            record("fleet-serve", runs))
        self.assertEqual((attempted, failed), (80, 40))
        self.assertTrue(any("scored_rows" in v for v in violations))

    def test_drift_scenario_must_swap(self):
        rec = record("fleet-serve", [fleet_run()],
                     traced=traced([fleet_run(model_swaps=0,
                                              final_model_epoch=0)]))
        attempted, failed, violations = run.evaluate(rec)
        self.assertEqual((attempted, failed), (80, 40))
        self.assertTrue(any("swapped" in v for v in violations))
        late = fleet_run(drift_triggers=0, drift_trigger_tick=0)
        _, failed, _ = run.evaluate(
            record("fleet-serve", [fleet_run()], traced=traced([late])))
        self.assertEqual(failed, 40)

    def test_witnesses_must_agree(self):
        a, b = fleet_run(), fleet_run()
        b["verdict_hash"] = "cc"
        attempted, failed, _ = run.evaluate(record("fleet-serve", [a, b]))
        self.assertEqual(failed, attempted)
        c = copy.deepcopy(a)
        c["counters"]["model_swap_tick"] = 2
        attempted, failed, violations = run.evaluate(
            record("fleet-serve", [a], traced=traced([a, c])))
        self.assertEqual((attempted, failed), (120, 80))
        self.assertTrue(any("fleet-drift witnesses" in v for v in violations))
        # Calls on different set-ups have different inputs.
        d = dict(b, setup=1)
        self.assertEqual(run.evaluate(record("fleet-serve", [a, d, d])),
                         (120, 0, []))

    def test_grid_metrics_must_be_probabilities(self):
        cells = [[0.9, 0.95]] * run.GRID_CELLS
        it = {"setup": 0, "ops": run.GRID_CELLS, "grid_hash": "b",
              "cells": cells}
        self.assertEqual(run.evaluate(record("paper-grid", [it]))[1], 0)
        bad = copy.deepcopy(it)
        bad["cells"][5] = [1.5, 0.9]
        self.assertEqual(run.evaluate(record("paper-grid", [bad]))[1],
                         run.GRID_CELLS)
        short = dict(it, cells=cells[:-1])
        self.assertEqual(run.evaluate(record("paper-grid", [short]))[1],
                         run.GRID_CELLS)

    def test_traced_run_must_reproduce(self):
        rec = record("fleet-serve", [fleet_run()],
                     traced=traced([], verdict_hash=False))
        attempted, failed, violations = run.evaluate(rec)
        self.assertEqual(failed, attempted)
        self.assertTrue(any("verdict_hash" in v for v in violations))


class BuildDir(unittest.TestCase):
    def test_one_tree_per_checkout_under_a_shared_root(self):
        with mock.patch.dict(os.environ, {"CARGO_TARGET_DIR": "/shared/t"}):
            a = run.checkout_build_dir("/a/perfbench")
            b = run.checkout_build_dir("/b/perfbench")
            self.assertEqual(a, run.checkout_build_dir("/a/perfbench"))
        self.assertNotEqual(a, b)
        self.assertEqual(os.path.dirname(a), "/shared/t")
        self.assertEqual(os.path.dirname(b), "/shared/t")

    def test_default_root_is_inside_the_checkout(self):
        env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
        with mock.patch.dict(os.environ, env, clear=True):
            d = run.checkout_build_dir("/a/perfbench")
        self.assertEqual(os.path.dirname(d), "/a/.bench_build")


if __name__ == "__main__":
    unittest.main()
