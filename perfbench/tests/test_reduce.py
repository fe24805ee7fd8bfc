"""Unit tests of the benchmark's own statistics (perfbench/reduce.py).

Run with `python3 perfbench/run.py --self-test` from the repository root.
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import reduce  # noqa: E402


def span(sid, parent, name, start, end):
    return (sid, parent, name, start, end)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))  # 1..100
        self.assertEqual(reduce.percentile(samples, 50), 50)
        self.assertEqual(reduce.percentile(samples, 90), 90)
        self.assertEqual(reduce.percentile(samples, 99), 99)
        self.assertEqual(reduce.percentile(samples, 100), 100)
        self.assertEqual(reduce.percentile([7.0], 99), 7.0)

    def test_order_does_not_matter(self):
        self.assertEqual(reduce.percentile([5, 1, 4, 2, 3], 60), 3)

    def test_samples_beyond(self):
        self.assertEqual(reduce.samples_beyond(100, 90), 10)
        self.assertEqual(reduce.samples_beyond(99, 90), 9)
        self.assertEqual(reduce.samples_beyond(1000, 99), 10)
        self.assertEqual(reduce.samples_beyond(1, 50), 0)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(reduce.tail(list(range(1, 101)), 90), 90)
        self.assertIsNone(reduce.tail(list(range(1, 100)), 90))
        self.assertIsNone(reduce.tail(list(range(1, 1000)), 99))
        self.assertEqual(reduce.tail(list(range(1, 1001)), 99), 990)

    def test_empty_samples_rejected(self):
        with self.assertRaises(ValueError):
            reduce.percentile([], 50)


class SpanTest(unittest.TestCase):
    # op [0, 100]: a [10, 40] with child c [15, 25]; b [50, 90]; gap 40-50.
    SPANS = [
        span(0, -1, "op", 0, 100),
        span(1, 0, "a", 10, 40),
        span(2, 1, "c", 15, 25),
        span(3, 0, "b", 50, 90),
    ]

    def test_self_time_subtracts_children(self):
        own = reduce.self_times(self.SPANS)
        self.assertEqual(own, {0: 30, 1: 20, 2: 10, 3: 40})

    def test_self_time_of_overlapping_children_counts_union(self):
        spans = [span(0, -1, "op", 0, 100), span(1, 0, "x", 10, 50),
                 span(2, 0, "y", 30, 70), span(3, 0, "z", 90, 120)]
        # Children cover [10, 70] and [90, 100] of the parent.
        self.assertEqual(reduce.self_times(spans)[0], 100 - 60 - 10)

    def test_self_ms_by_name_sums_and_counts(self):
        spans = self.SPANS + [span(4, -1, "op", 200, 300), span(5, 4, "b", 210, 260)]
        totals = reduce.self_ms_by_name(spans)
        self.assertEqual(totals["b"], ((40 + 50) / 1e6, 2))
        self.assertEqual(totals["op"], ((30 + 50) / 1e6, 2))

    def test_coverage(self):
        # Descendants' self times: a 20 + c 10 + b 40 = 70 of 100.
        self.assertAlmostEqual(reduce.coverage_pct(self.SPANS), 70.0)

    def test_coverage_over_several_roots(self):
        spans = self.SPANS + [span(4, -1, "op", 200, 300), span(5, 4, "b", 200, 300)]
        self.assertAlmostEqual(reduce.coverage_pct(spans), 100.0 * (70 + 100) / 200)

    def test_coverage_ignores_spans_outside_operations(self):
        spans = self.SPANS + [span(4, -1, "setup", 100, 500), span(5, 4, "x", 100, 500)]
        self.assertAlmostEqual(reduce.coverage_pct(spans), 70.0)

    def test_read_spans_round_trip(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "spans.tsv")
            with open(path, "w", encoding="utf-8") as f:
                for s in self.SPANS:
                    f.write("\t".join(str(v) for v in s) + "\n")
            self.assertEqual(reduce.read_spans(path), self.SPANS)


class MetricsTest(unittest.TestCase):
    def raw(self, **extra):
        raw = {
            "workload": "coupled_replay",
            "setup_s": [0.5, 0.3, 0.4, 0.9, 0.2],
            "memory": {"setup_peak_mb": [40.0], "run_peak_mb": [30.0, 45.0, 20.0]},
            "op_ms": [float(i) for i in range(1, 201)],
            "op_sim_s": [86400.0] * 200,
            "op_traced": [i % 2 == 1 for i in range(200)],
            "requests": {},
            "traced_ops": 100,
        }
        raw.update(extra)
        return raw

    def test_end_to_end_takes_medians(self):
        values = reduce.end_to_end(self.raw(op_ms=[float(i) for i in range(201, 0, -1)],
                                            op_sim_s=[86400.0] * 201,
                                            op_traced=[False] * 201))
        self.assertEqual(set(values), {"setup_s", "peak_rss_mb", "sim_rate"})
        self.assertEqual(values["setup_s"], 0.4)
        self.assertEqual(values["peak_rss_mb"], 30.0)
        self.assertEqual(values["sim_rate"], 86400.0 / 0.101)

    def test_end_to_end_ignores_traced_operations(self):
        # Untraced operations take 1, 3, ..., 199 ms; the middle two, 99 and 101.
        values = reduce.end_to_end(self.raw())
        self.assertAlmostEqual(values["sim_rate"], (86400.0 / 0.099 + 86400.0 / 0.101) / 2)
        # Untraced operations take 2, 4, ..., 200 ms; the middle two, 100 and 102.
        values = reduce.end_to_end(self.raw(op_traced=[i % 2 == 0 for i in range(200)]))
        self.assertAlmostEqual(values["sim_rate"], (86400.0 / 0.100 + 86400.0 / 0.102) / 2)

    def test_sim_rate_is_the_median_rate_when_operations_differ(self):
        values = reduce.end_to_end(self.raw(op_ms=[1000.0, 2000.0, 500.0],
                                            op_sim_s=[10.0, 40.0, 10.0],
                                            op_traced=[False] * 3))
        self.assertEqual(values["sim_rate"], 20.0)

    def test_latency_summary_picks_the_highest_tail_with_ten_beyond(self):
        summary = reduce.latency_summary([float(i) for i in range(1, 101)], "op.")
        self.assertEqual(summary["op.samples"], 100.0)
        self.assertEqual(summary["op.p50_ms"], 50.5)
        self.assertEqual(summary["op.tail_level"], 90.0)
        self.assertEqual(summary["op.tail_ms"], 90.0)
        summary = reduce.latency_summary([1.0] * 1000, "x.")
        self.assertEqual(summary["x.tail_level"], 99.0)
        summary = reduce.latency_summary([1.0] * 15, "x.")
        self.assertNotIn("x.tail_ms", summary)
        self.assertEqual(reduce.latency_summary([], "x."), {"x.samples": 0.0})

    def test_per_layer_uses_span_self_time_and_zeroes_unmeasured(self):
        spans = [span(0, -1, "op", 0, 4_000_000), span(1, 0, "fmi.do_step", 0, 3_000_000)]
        raw = self.raw(traced_ops=1, layers={"cooling.plant_steps": 5760},
                       span_metrics={"fmi.do_step_ms": "fmi.do_step"},
                       requests={"hit": [0.5] * 20})
        names = ["fmi.do_step_ms", "cooling.plant_steps", "telemetry.next_ms",
                 "server.hit_samples", "server.hit_tail_level", "trace.coverage_pct",
                 "trace.overhead_pct"]
        values = reduce.per_layer(raw, names, spans)
        self.assertEqual(list(values), names)
        self.assertEqual(values["fmi.do_step_ms"], 3.0)
        self.assertEqual(values["cooling.plant_steps"], 5760.0)
        self.assertEqual(values["telemetry.next_ms"], 0.0)  # unmeasured on coupled_replay
        self.assertEqual(values["server.hit_samples"], 20.0)
        self.assertEqual(values["server.hit_tail_level"], 50.0)
        self.assertAlmostEqual(values["trace.coverage_pct"], 75.0)
        # Traced ops are the even values 2..200, untraced the odd 1..199.
        self.assertAlmostEqual(values["trace.overhead_pct"], 1.0)

    def test_per_layer_rejects_a_measured_metric_that_is_missing(self):
        spans = [span(0, -1, "op", 0, 4_000_000)]
        with self.assertRaisesRegex(ValueError, "cooling.plant_steps"):
            reduce.per_layer(self.raw(traced_ops=1), ["cooling.plant_steps"], spans)
        # A declared span that never occurred is missing too, not a 0.
        raw = self.raw(traced_ops=1, span_metrics={"fmi.do_step_ms": "fmi.do_step"})
        with self.assertRaisesRegex(ValueError, "fmi.do_step_ms"):
            reduce.per_layer(raw, ["fmi.do_step_ms"], spans)
        # The same metric is declared unmeasured on stream_replay.
        values = reduce.per_layer(self.raw(traced_ops=1, workload="stream_replay"),
                                  ["cooling.plant_steps"], spans)
        self.assertEqual(values["cooling.plant_steps"], 0.0)

    def test_unmeasured_matches_names_and_prefixes(self):
        self.assertTrue(reduce.is_unmeasured("server_mixed", "cooling.hx_evaluated"))
        self.assertTrue(reduce.is_unmeasured("coupled_replay", "core.replay_sim_ms"))
        self.assertFalse(reduce.is_unmeasured("coupled_replay", "core.coupling_ms"))
        self.assertFalse(reduce.is_unmeasured("stream_replay", "telemetry.next_ms"))
        self.assertFalse(reduce.is_unmeasured("no_such_workload", "fmi.do_step_ms"))

    def test_every_workload_declares_its_unmeasured_metrics(self):
        root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
        names = {m["name"] for m in spec["per_layer"]}
        self.assertEqual(set(reduce.UNMEASURED), {w["name"] for w in spec["workloads"]})
        for workload, entries in reduce.UNMEASURED.items():
            for entry in entries:
                matched = [n for n in names if reduce.is_unmeasured(workload, n)
                           and (n == entry or n.startswith(entry))]
                self.assertTrue(matched, f"{workload}: {entry} names no per-layer metric")


if __name__ == "__main__":
    unittest.main()
