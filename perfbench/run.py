#!/usr/bin/env python3
"""The repository benchmark: builds perfbench_measure, runs one workload and
prints its metrics.

Run from the repository root:

  python3 perfbench/run.py --workload coupled_replay --seed 1 --seconds 15 --trace 0
  python3 perfbench/run.py --all            # every workload, untraced and traced
  python3 perfbench/run.py --self-test      # unit tests of the reduction

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer
metrics. Everything before that line is a human-readable table. The build
goes to $CARGO_TARGET_DIR (default .bench_build) under the current
directory; the spans of the last traced run of each workload are kept
there as perfbench/traces/<workload>.spans.tsv.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True  # write nothing into the sources
sys.path.insert(0, str(HERE))
import reduce  # noqa: E402  (sibling module)

RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec(root):
    path = root / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found; run from the repository root", 2)
    return json.loads(path.read_text(encoding="utf-8"))


def build(root):
    """Configures (once) and builds perfbench_measure; returns (binary, build dir)."""
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail("the exadigit sources (CMakeLists.txt, src/) are not in the current "
             "directory; run from the repository root", 2)
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = root / build_root
    build_dir = build_root / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return build_dir / "perfbench_measure", build_dir


def run_measure(binary, build_dir, workload, seed, seconds, trace):
    """Runs one workload; returns its raw measurement object."""
    out_dir = build_dir / "runs" / f"{workload}-{seed}-{trace}-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), "--out-dir", str(out_dir)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        shutil.rmtree(out_dir, ignore_errors=True)
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0 or not done.stdout.strip():
        shutil.rmtree(out_dir, ignore_errors=True)
        fail(f"perfbench_measure exited with code {done.returncode} on {workload}")
    raw = json.loads(done.stdout.strip().splitlines()[-1])
    spans = []
    if trace:
        spans = reduce.read_spans(raw["spans_file"])
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        shutil.move(raw["spans_file"], traces / f"{workload}.spans.tsv")
    shutil.rmtree(out_dir, ignore_errors=True)
    return raw, spans


def measure(spec, binary, build_dir, workload, seed, seconds, trace):
    """One run reduced to (result object, human-readable lines)."""
    raw, spans = run_measure(binary, build_dir, workload, seed, seconds, trace)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if trace:
        try:
            values = reduce.per_layer(raw, list(units), spans)
        except ValueError as e:
            fail(str(e))
    else:
        values = reduce.end_to_end(raw)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    lines = [f"== {workload}  seed {seed}  {'traced' if trace else 'untraced'}  "
             f"{raw['attempted']} checks, {raw['failed']} failed =="]
    lines += [f"  {name:32s} {m['value']:14.6g} {m['unit']}" for name, m in metrics.items()]
    ops = [ms for ms, was_traced in zip(raw["op_ms"], raw["op_traced"]) if not was_traced]
    summary = reduce.latency_summary(ops, "")
    if summary.get("tail_level", 0) > 50:
        lines.append(f"  untraced operations: {len(ops)}, p50 {summary['p50_ms']:.4g} ms, "
                     f"p{summary['tail_level']:g} {summary['tail_ms']:.4g} ms")
    if trace:
        lines.append("  spans (self ms per traced operation, calls per traced operation):")
        per_op = max(1, raw["traced_ops"])
        for name, (ms, count) in sorted(reduce.self_ms_by_name(spans).items(),
                                        key=lambda item: -item[1][0]):
            lines.append(f"    {name:30s} {ms / per_op:12.3f} ms {count / per_op:12.1f}")
    lines += [f"  error: {e}" for e in raw["errors"]]
    result = {
        "correct": raw["failed"] == 0 and raw["attempted"] >= 1,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    return result, lines


def self_test():
    suite = unittest.defaultTestLoader.discover(str(HERE / "tests"))
    return 0 if unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful() else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced")
    parser.add_argument("--self-test", action="store_true",
                        help="run the unit tests of the reduction")
    args = parser.parse_args()
    if args.self_test:
        return self_test()

    root = Path.cwd()
    spec = load_spec(root)
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    if seconds < 1:
        fail("--seconds must be at least 1", 2)
    if not args.all and args.workload not in names:
        fail(f"--workload must be one of {', '.join(names)}", 2)
    binary, build_dir = build(root)

    if not args.all:
        result, lines = measure(spec, binary, build_dir, args.workload, args.seed, seconds,
                                args.trace)
        print("\n".join(lines))
        print(json.dumps(result))
        return 0

    summary = {}
    for workload in names:
        for trace in (0, 1):
            result, lines = measure(spec, binary, build_dir, workload, args.seed, seconds, trace)
            print("\n".join(lines), flush=True)
            summary[f"{workload}/{'traced' if trace else 'untraced'}"] = result
    print(json.dumps({
        "correct": all(r["correct"] for r in summary.values()),
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "metrics": {f"{run}/{name}": m for run, r in summary.items()
                    for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
