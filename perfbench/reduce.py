"""Reduction of one perfbench_measure run to the metrics named in BENCHMARK.json.

The measurement program (perfbench/src) prints raw samples; everything
statistical happens here so that it can be unit-tested on its own
(perfbench/tests/test_reduce.py):

- percentiles, with the rule that a reported percentile has at least ten
  samples beyond it;
- span self time: a span's duration minus the part of it its child spans
  cover;
- trace coverage: the share of each operation's span covered by the layer
  spans under it;
- which per-layer metrics a workload does not measure (UNMEASURED): those
  read 0, and any other metric a workload fails to report is an error, so
  a probe that stops reporting cannot pass for a perfect 0.
"""

import math
import statistics

MIN_BEYOND = 10

# Per workload, the per-layer metrics (by name or by prefix ending in ".")
# that it does not measure. The replays bypass the queue, so no start is
# ever attempted and the start success ratio is undefined there. The
# server's scenarios run inside the server, out of the probes' reach.
# stream_replay runs no cooling step by construction (replay_power with
# cooling off builds no cooling model), so fmi. and cooling. are listed
# for it rather than measured.
_NOT_SERVER = ("server.", "scenario.", "json.")
UNMEASURED = {
    "coupled_replay": ("raps.policy.start_success_ratio", "core.replay_sim_ms",
                       "core.replay_other_ms", "telemetry.") + _NOT_SERVER,
    "stream_replay": ("raps.policy.start_success_ratio", "raps.run_until_self_ms", "fmi.",
                      "cooling.", "core.coupling_ms", "core.record_series_ms") + _NOT_SERVER,
    "sched_backlog": ("fmi.", "cooling.", "core.", "telemetry.") + _NOT_SERVER,
    "server_mixed": ("raps.", "fmi.", "cooling.", "core.", "telemetry."),
}


def percentile(samples, level):
    """Nearest-rank percentile of `samples` at `level` (0-100]."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(level / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count, level):
    """How many of `count` samples lie above the nearest-rank percentile."""
    return count - max(1, math.ceil(level / 100.0 * count))


def tail(samples, level, min_beyond=MIN_BEYOND):
    """The `level` percentile, or None when fewer than `min_beyond` samples
    lie beyond it."""
    if samples_beyond(len(samples), level) < min_beyond:
        return None
    return percentile(samples, level)


def read_spans(path):
    """Spans from perfbench_measure's TSV: (id, parent, name, start_ns, end_ns)."""
    spans = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            sid, parent, name, start, end = line.rstrip("\n").split("\t")
            spans.append((int(sid), int(parent), name, int(start), int(end)))
    return spans


def _covered_ns(start, end, intervals):
    """Length of [start, end] covered by the union of `intervals`."""
    covered = 0
    cursor = start
    for s, e in sorted(intervals):
        s, e = max(s, cursor), min(e, end)
        if e > s:
            covered += e - s
            cursor = e
    return covered


def self_times(spans):
    """Per span: its duration minus the part its direct children cover.

    Returns {span id: self ns}."""
    children = {}
    for sid, parent, _name, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - _covered_ns(start, end, children.get(sid, ()))
        for sid, _parent, _name, start, end in spans
    }


def self_ms_by_name(spans):
    """{name: (total self ms, span count)}."""
    own = self_times(spans)
    totals = {}
    for sid, _parent, name, _start, _end in spans:
        ms, count = totals.get(name, (0.0, 0))
        totals[name] = (ms + own[sid] / 1e6, count + 1)
    return totals


def coverage_pct(spans, root_name="op"):
    """Share of the root spans' time covered by the spans under them: the
    self times of every descendant, summed, over the roots' duration.
    Spans must come parents first, as perfbench_measure writes them."""
    own = self_times(spans)
    root_of = {}
    for sid, parent, _name, _start, _end in spans:
        root_of[sid] = sid if parent < 0 else root_of[parent]
    roots = {sid: end - start for sid, parent, name, start, end in spans
             if parent < 0 and name == root_name}
    covered = sum(own[sid] for sid, parent, _n, _s, _e in spans
                  if parent >= 0 and root_of[sid] in roots)
    total = sum(roots.values())
    return 100.0 * covered / total if total > 0 else 0.0


def _split_ops(raw):
    """(untraced, traced) operations as (ms, simulated seconds) pairs."""
    untraced, traced = [], []
    for ms, sim_s, was_traced in zip(raw["op_ms"], raw["op_sim_s"], raw["op_traced"]):
        (traced if was_traced else untraced).append((ms, sim_s))
    return untraced, traced


def latency_summary(samples, prefix):
    """Median, tail and sample count of `samples` under `prefix`. The tail
    is the highest of p99, p90, p75 and p50 with ten samples beyond it."""
    values = {f"{prefix}samples": float(len(samples))}
    if not samples:
        return values
    values[f"{prefix}p50_ms"] = statistics.median(samples)
    for level in (99.0, 90.0, 75.0, 50.0):
        value = tail(samples, level)
        if value is not None:
            values[f"{prefix}tail_ms"] = value
            values[f"{prefix}tail_level"] = level
            break
    return values


def end_to_end(raw):
    """The end-to-end metric values of an untraced run, by name.

    sim_rate is the median over the run's untraced operations of the
    simulated seconds each delivered per host second, setup_s the median of
    the run's set-ups and peak_rss_mb the median of the blocks' run-phase
    peaks. On a shared host the speed of a core drifts by tens of percent
    for seconds at a time; over a whole run the median moves less from run
    to run than the fastest operation or set-up does."""
    untraced, _ = _split_ops(raw)
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": statistics.median(raw["memory"]["run_peak_mb"]),
        "sim_rate": statistics.median(sim_s / (ms / 1000.0) for ms, sim_s in untraced),
    }


def is_unmeasured(workload, name):
    """True when `workload` declares that it does not measure `name`."""
    return any(name == entry or (entry.endswith(".") and name.startswith(entry))
               for entry in UNMEASURED.get(workload, ()))


def per_layer(raw, names, spans):
    """Every per-layer metric in `names`. Metrics the workload declares
    unmeasured read 0; any other metric it did not report raises
    ValueError. A span metric whose span never occurred counts as not
    reported."""
    values = {}
    for name, value in raw.get("layers", {}).items():
        values[name] = float(value)
    traced_ops = max(1, raw["traced_ops"])
    by_name = self_ms_by_name(spans)
    for metric, span in raw.get("span_metrics", {}).items():
        if span in by_name:
            values[metric] = by_name[span][0] / traced_ops

    attempts = values.get("raps.policy.start_attempts", 0.0)
    if attempts > 0:
        values["raps.policy.start_success_ratio"] = values["raps.policy.starts"] / attempts

    values["mem.setup_peak_mb"] = statistics.median(raw["memory"]["setup_peak_mb"])
    values["mem.run_peak_mb"] = statistics.median(raw["memory"]["run_peak_mb"])

    untraced, traced = _split_ops(raw)
    plain = [ms for ms, _ in untraced]
    values.update(latency_summary(plain, "op."))
    for label in ("hit", "miss"):
        values.update(latency_summary(raw["requests"].get(label, []), f"server.{label}_"))

    with_spans = statistics.median([ms for ms, _ in traced])
    values["trace.overhead_pct"] = 100.0 * (with_spans / statistics.median(plain) - 1.0)
    values["trace.coverage_pct"] = coverage_pct(spans)

    workload = raw["workload"]
    missing = [n for n in names if n not in values and not is_unmeasured(workload, n)]
    if missing:
        raise ValueError(f"{workload} did not report {', '.join(missing)}")
    return {name: values.get(name, 0.0) for name in names}
