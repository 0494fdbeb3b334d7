#!/usr/bin/env python3
"""Steadiness harness: run workloads repeatedly, each run a fresh process.

    python3 perfbench/steady.py --runs 10                # every workload
    python3 perfbench/steady.py --workloads offline-mysql --runs 5

Run i uses seed --first-seed + i. For every end-to-end metric it
prints the median, quartiles (statistics.quantiles, n=4), min and max
over the runs, and the spread (q3 - q1) / median against the metric's
bound in BENCHMARK.json. A spread above a third of the bound is
flagged, one above the bound fails. Every run must report
correct=true and failed=0.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(RUN), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(workload, seed, args.seconds)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: FAILED checks "
                      f"({result['failed']}/{result['attempted']})")
                ok = False
            runs.append({k: v["value"]
                         for k, v in result["metrics"].items()})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)

        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':<20} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'min':>10} {'max':>10} {'spread':>7} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (med, med, med))
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > bound / 3:
                flag = "  WIDE" if spread <= bound else "  OVER BOUND"
                ok = ok and spread <= bound
            print(f"  {name:<20} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} "
                  f"{min(values):>10.4g} {max(values):>10.4g} "
                  f"{spread:>7.2%} {bound:>6.2f}{flag}")
        print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
