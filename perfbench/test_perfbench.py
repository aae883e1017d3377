"""Tests of the campaign benchmark's own code.

    python3 perfbench/test_perfbench.py            # everything
    python3 perfbench/test_perfbench.py Stats      # helpers only (no build)

The smoke tests build the benchmark (first run: about a minute) and run
every workload at a tiny campaign size.
"""

import json
import os
import statistics
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import stats  # noqa: E402


class Stats(unittest.TestCase):
    def test_median_odd_even_and_single(self):
        self.assertEqual(stats.median([3.0]), 3.0)
        self.assertEqual(stats.median([5, 1, 3]), 3)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            stats.median([])

    def test_percentile_interpolates_between_ranks(self):
        values = list(range(1, 11))  # n = 10
        self.assertEqual(stats.percentile(values, 0), 1)
        self.assertEqual(stats.percentile(values, 100), 10)
        self.assertAlmostEqual(stats.percentile(values, 50), 5.5)
        self.assertAlmostEqual(stats.percentile(values, 90), 9.1)
        self.assertEqual(stats.percentile([7.0], 90), 7.0)  # n = 1
        self.assertAlmostEqual(stats.percentile([0, 10], 90), 9.0)  # n = 2
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1], 101)

    def test_percentile_ignores_input_order(self):
        self.assertEqual(stats.percentile([9, 1, 5], 50),
                         stats.percentile([1, 5, 9], 50))

    def test_iqr_share_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.6]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.iqr_share(values),
                               (q3 - q1) / statistics.median(values))
        self.assertEqual(stats.iqr_share([2.0, 2.0]), 0.0)  # n = 2
        with self.assertRaises(ValueError):
            stats.iqr_share([1.0])

    def test_union_length_merges_and_clips(self):
        self.assertEqual(stats.union_length([]), 0)
        self.assertEqual(stats.union_length([(0, 10), (5, 15)]), 15)
        self.assertEqual(stats.union_length([(0, 2), (4, 6)]), 4)
        self.assertEqual(stats.union_length([(0, 10), (2, 3)]), 10)
        self.assertEqual(stats.union_length([(0, 10)], lo=4, hi=6), 2)
        self.assertEqual(stats.union_length([(0, 3)], lo=5), 0)


def span(name, start, end, ident, parent=""):
    return {"name": name, "start": start, "end": end, "id": ident,
            "parent": parent, "scenario": 0}


class SelfTime(unittest.TestCase):
    def test_nested_chain(self):
        spans = [
            span("campaign.run", 0, 100, "m:0"),
            span("avd.execute", 10, 60, "m:1", "m:0"),
            span("avd.baseline", 10, 40, "m:2", "m:1"),
            span("avd.execute", 60, 90, "m:3", "m:0"),
        ]
        selfs = stats.self_times(spans)
        self.assertEqual(selfs["m:0"], 100 - 80)
        self.assertEqual(selfs["m:1"], 50 - 30)
        self.assertEqual(selfs["m:2"], 30)
        self.assertEqual(selfs["m:3"], 30)
        # Self times of a strict tree sum to the root's duration.
        self.assertEqual(sum(selfs.values()), 100)

    def test_parallel_children_from_other_processes_count_once(self):
        spans = [
            span("campaign.run", 0, 100, "main:0"),
            span("fleet.spawn", 0, 5, "main:1", "main:0"),
            span("avd.execute", 10, 70, "w0:0", "main:0"),
            span("avd.execute", 20, 90, "w1:0", "main:0"),
        ]
        selfs = stats.self_times(spans)
        self.assertEqual(selfs["main:0"], 100 - 5 - 80)

    def test_child_outside_parent_is_clipped(self):
        spans = [span("a", 10, 20, "p:0"), span("b", 15, 30, "p:1", "p:0")]
        self.assertEqual(stats.self_times(spans)["p:0"], 5)


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_the_runner(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json beside perfbench/")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)


def run_benchmark(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.BENCH_DIR, "run.py"), *args],
        capture_output=True, text=True, timeout=900)
    return proc, proc.stdout.strip().splitlines()


class Smoke(unittest.TestCase):
    """Tiny campaigns (4 scenarios): every named metric with its unit."""

    def check(self, workload, trace):
        proc, lines = run_benchmark(
            "--workload", workload, "--seed", "3", "--seconds", "0",
            "--tests", "4", "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], "\n".join(lines))
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = run.PER_LAYER if trace else run.END_TO_END
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()},
            wanted)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
        # The human-readable table names every metric with its unit too.
        table = "\n".join(lines[:-1])
        for name, unit in wanted.items():
            self.assertRegex(table, r"\b%s\s+\S+\s+%s\s" % (
                name.replace(".", r"\."), unit.replace("/", "/")))
        if not trace:
            self.assertIn("# host: nproc=", table)
            self.assertIn("# build: ", table)
        return result

    def test_mac_serial(self):
        self.check("mac-serial", 0)
        layers = self.check("mac-serial", 1)["metrics"]
        self.assertGreater(layers["avd.baseline_runs"]["value"], 0)

    def test_flood_serial(self):
        self.check("flood-serial", 0)
        self.check("flood-serial", 1)

    def test_mac_fleet(self):
        self.check("mac-fleet", 0)
        layers = self.check("mac-fleet", 1)["metrics"]
        self.assertGreater(layers["fleet.spawn_ms"]["value"], 0)

    def test_all_prints_every_end_to_end_metric(self):
        proc, lines = run_benchmark("--all", "--seed", "3", "--seconds", "0",
                                    "--tests", "2")
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        text = "\n".join(lines)
        for name in ["scenarios_per_s", "find_s", "setup_s", "vsec_per_s",
                     "peak_rss_mb", "fail_ratio"]:
            self.assertIn(name, text)
        for workload in run.WORKLOADS:
            self.assertIn(workload, text)


if __name__ == "__main__":
    unittest.main()
