"""Tests of the crawl benchmark itself, at smoke size.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The smoke tests build crawlbench into .bench_build/ (as run.py does) and run
it on a small dataset; they are skipped when cmake is not installed.
"""

import copy
import json
import os
import re
import shutil
import unittest

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def smoke_specs():
    """Small service and fleet crawls: faulty backends, a few units each."""
    service = {
        "dataset": "epinions_small", "seed": 5, "fault_seed": 9,
        "program": {"name": "mto"}, "attribute": "degree",
        "walkers": 8, "threads": 2, "routing": "rendezvous",
        "geweke": {"threshold": 0.1, "min_length": 8 * 40, "check_every": 20},
        "max_burn_in_rounds": 40, "num_samples": 8 * 12, "thinning": 5,
        "backends": [{"name": "a", "error_rate": 0.1, "timeout_rate": 0.05},
                     {"name": "b", "quota_rate": 0.1}],
        "checkpoint": {"path": os.path.join(run.WORK_DIR, "smoke.ckpt"),
                       "every_units": 2},
    }
    fleet = {
        "dataset": "epinions_small", "seed": 5, "program": "mto",
        "walkers": 8, "threads": 2, "coalesce_frontier": True,
        "pipeline_depth": 2, "backends": 3, "rtt_us": 50, "error_rate": 0.1,
        "fault_seed": 9,
        "geweke": {"threshold": 0.1, "min_length": 8 * 40, "check_every": 20},
        "max_burn_in_rounds": 40, "num_samples": 8 * 12, "thinning": 5,
    }
    return {
        "service": {"name": "smoke_service", "kind": "service",
                    "scenario": json.dumps(service), "min_crawls": 2},
        "fleet": {"name": "smoke_fleet", "kind": "fleet",
                  "scenario": json.dumps(fleet), "min_crawls": 2},
    }


class TailPercentileTest(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        values = list(range(1, 101))  # 100 samples
        value, n = run.tail_percentile(values, 0.9)
        self.assertEqual(n, 100)
        self.assertEqual(value, 90)
        self.assertEqual(sum(1 for v in values if v > value), 10)

    def test_p90_refused_below_one_hundred_samples(self):
        with self.assertRaises(run.InsufficientSamples):
            run.tail_percentile(list(range(99)), 0.9)

    def test_unsorted_input_and_count(self):
        values = [5.0] * 50 + [1.0] * 60 + [9.0] * 10
        value, n = run.tail_percentile(values, 0.9)
        self.assertEqual((value, n), (5.0, 120))


class MetricTableTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_names_and_units_match_benchmark_json(self):
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.bench["end_to_end"]],
            run.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.bench["per_layer"]],
            run.PER_LAYER)

    def test_names_and_units_are_well_formed(self):
        names = [n for n, _ in run.END_TO_END + run.PER_LAYER]
        names += [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for _, unit in run.END_TO_END + run.PER_LAYER:
            self.assertRegex(unit, UNIT)

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(run.workloads(1, 4)))

    def test_setup_bound_is_largest(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)

    def test_scenarios_avoid_keys_slated_for_removal(self):
        banned = {"sampler", "strategy", "fetch_mode", "fetch_threads",
                  "schedule", "block"}
        for spec, _ in run.workloads(3, 4).values():
            scenario = json.loads(spec["scenario"])
            self.assertFalse(banned & set(scenario), spec["name"])

    def test_seed_derives_crawl_and_fault_seeds(self):
        a, b = run.workloads(1, 4), run.workloads(2, 4)
        self.assertEqual(a, run.workloads(1, 4))
        for name in a:
            sa = json.loads(a[name][0]["scenario"])
            sb = json.loads(b[name][0]["scenario"])
            self.assertNotEqual(sa["seed"], sb["seed"])
            self.assertNotEqual(sa["fault_seed"], sb["fault_seed"])


@unittest.skipIf(shutil.which("cmake") is None, "cmake not installed")
class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.docs = {kind: run.run_crawlbench(spec, 0, False, 170)
                    for kind, spec in smoke_specs().items()}

    def test_untampered_runs_pass(self):
        for kind, doc in self.docs.items():
            attempted, failed, reasons = self.evaluate_crawls(doc)
            self.assertEqual((attempted, failed), (2, 0), (kind, reasons))

    def evaluate_crawls(self, doc):
        failures = run.crawl_failures(doc["crawls"], 1.0)
        return (len(doc["crawls"]), sum(1 for f in failures if f),
                [r for f in failures for r in f])

    def test_faults_exercise_every_ledger_field(self):
        crawl = self.docs["service"]["crawls"][0]
        totals = {k: sum(b[k] for b in crawl["backends"])
                  for k in ("failed", "timeouts", "transient", "quota")}
        for key, total in totals.items():
            self.assertGreater(total, 0, key)

    def test_tampered_digest_fails_one_crawl(self):
        for doc in self.docs.values():
            doc = copy.deepcopy(doc)
            doc["crawls"][1]["digest"] = "0"
            _, failed, reasons = self.evaluate_crawls(doc)
            self.assertEqual(failed, 1)
            self.assertIn("digest", reasons[0])

    def test_tampered_ledger_fails(self):
        doc = copy.deepcopy(self.docs["service"])
        doc["crawls"][0]["backends"][0]["requests"] += 1
        self.assertEqual(self.evaluate_crawls(doc)[1], 1)
        doc = copy.deepcopy(self.docs["service"])
        doc["crawls"][0]["backends"][1]["quota"] += 1
        self.assertEqual(self.evaluate_crawls(doc)[1], 1)
        doc = copy.deepcopy(self.docs["fleet"])
        doc["crawls"][0]["unique_queries"] += 1
        self.assertGreaterEqual(self.evaluate_crawls(doc)[1], 1)

    def test_estimate_outside_tolerance_fails(self):
        doc = copy.deepcopy(self.docs["fleet"])
        failures = run.crawl_failures(doc["crawls"], 0.0)
        self.assertTrue(all(failures))

    def test_crash_counts_as_failed(self):
        doc = copy.deepcopy(self.docs["fleet"])
        doc["errors"].append({"run": 2, "error": "boom"})
        attempted, failed, _, _, _ = run.evaluate(doc, 1.0, trace=False)
        self.assertEqual((attempted, failed), (3, 1))

    def test_end_to_end_metrics_need_one_hundred_units(self):
        doc = self.docs["fleet"]
        units = sum(len(c["unit_ms"]) for c in doc["crawls"])
        _, failed, reasons, metrics, _ = run.evaluate(doc, 1.0, trace=False)
        if units >= 100:
            self.assertEqual(set(metrics), {n for n, _ in run.END_TO_END}
                             | {run.ESTIMATE_ERROR[0]})
        else:
            self.assertEqual(failed, 1)
            self.assertIn("p90", reasons[-1])

    def test_traced_run_reports_every_per_layer_metric(self):
        for kind, spec in smoke_specs().items():
            doc = run.run_crawlbench(spec, 0, True, 170)
            _, failed, reasons, metrics, _ = run.evaluate(doc, 1.0,
                                                          trace=True)
            self.assertEqual(failed, 0, reasons)
            self.assertEqual(set(metrics), {n for n, _ in run.PER_LAYER})
            # Every layer timing is measured, checkpoints included (the
            # converge wait may legitimately be zero on a tiny crawl).
            for name, unit in run.PER_LAYER:
                if unit in ("s", "ms", "us", "ns") and \
                        name != "runtime.pipeline.converge_wait_ms":
                    self.assertGreater(metrics[name], 0.0, (kind, name))
            self.assertGreater(metrics["core.overlay_nodes"], 0.0)
            with open(doc["spans_path"]) as f:
                spans = json.load(f)
            names = {s["name"] for s in spans}
            for name in ("setup.parse", "unit.burn_in", "unit.collect",
                         "checkpoint.save", "checkpoint.load", "finish",
                         "micro.cache.hit_1t"):
                self.assertIn(name, names, kind)
            for span in spans:
                self.assertLessEqual(span["start_us"], span["end_us"])
                self.assertLess(span["parent"], len(spans))


if __name__ == "__main__":
    unittest.main()
