#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload offline-mysql --seed 1 \
        --seconds 10 --trace 0

Builds perfbench/ (the whisper library plus the whisper_bench program)
into $CARGO_TARGET_DIR, or .bench_build, then runs the workload in a
fresh process. The last stdout line is
{"correct", "attempted", "failed", "metrics"}: every end_to_end metric
of BENCHMARK.json with --trace 0, every per_layer metric with
--trace 1. A per-layer metric the workload's path does not reach reads
0. Build output and diagnostics go to stderr.

Besides whisper_bench's own checks, one more counts in attempted and
failed: the run's simulated outcome must equal the one committed in
expected.json for the seed's window (see record_expected.py).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = Path(__file__).resolve().parent
EXPECTED = SOURCE / "expected.json"


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure once, then build incrementally. False on failure."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(SOURCE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "whisper_bench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode:
            return False
    return True


def declared_metrics(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if traced else "end_to_end"]


def outcome_matches(workload, raw):
    """The run's simulated outcome equals the committed one."""
    window = str(raw["window"])
    expected = json.loads(EXPECTED.read_text()).get(workload, {})
    if expected.get(window) == raw["outcome"]:
        return True
    print(f"run.py: {workload} window {window}: outcome {raw['outcome']} "
          f"!= expected {expected.get(window)}", file=sys.stderr)
    return False


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    cmd = [str(build_dir() / "whisper_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        print(f"run.py: whisper_bench exited {proc.returncode}",
              file=sys.stderr)
        return 1
    raw = json.loads(lines[-1])

    values = raw["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in declared_metrics(args.trace):
        name = m["name"]
        if name not in values and not args.trace:
            print(f"run.py: workload did not measure {name}",
                  file=sys.stderr)
            return 1
        value = values.get(name, 0)  # 0: layer not on this path
        if value is None:
            print(f"run.py: {name} is not finite", file=sys.stderr)
            return 1
        metrics[name] = {"value": value, "unit": m["unit"]}
    matches = outcome_matches(args.workload, raw)
    print(json.dumps({"correct": raw["correct"] and matches,
                      "attempted": raw["attempted"] + 1,
                      "failed": raw["failed"] + (0 if matches else 1),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
