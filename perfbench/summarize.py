#!/usr/bin/env python3
"""Traced-run summary: per-layer self time, e2e shares, tracing overhead.

    python3 perfbench/summarize.py --workload offline-mysql [--seed 1]

Runs the workload twice through run.py, untraced (--trace 0) and
traced (--trace 1), then reads the spans the traced run wrote to
.bench_out/spans-<workload>-<seed>.json and prints:

- for each benchmark phase (a root span on the main thread:
  bench.setup, bench.train, bench.eval, bench.round), the self time of
  every layer inside it and its share of the phase. A span's self
  time is its duration minus the part of it that its child spans
  cover; a layer is the span-name prefix (core, sim, bp, net, ...),
  and "bench" is the benchmark's own glue;
- for whisperd, the per-chunk split of the ack: the client's
  net.ingest span and the server's service.offer span share a
  "<round>/<app>:<seq>" id;
- the per-layer metrics of the traced run;
- the tracing overhead: each e2e timing of the traced run against
  the untraced one;
- whisperd only: ROADMAP's ingest hypothesis, wire ingest against the
  summed absorber rate.
"""

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    if out.returncode:
        raise SystemExit(f"run.py exited {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def covered(intervals):
    """Total length of the union of [start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        kids = [(spans[k]["start"], spans[k]["end"]) for k in children[i]]
        out.append(s["end"] - s["start"] - covered(kids))
    return out


def root_of(spans, i):
    while spans[i]["parent"] >= 0:
        i = spans[i]["parent"]
    return i


def phase_table(spans):
    selfs = self_times(spans)
    phase_total = defaultdict(float)
    layer_self = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(spans):
        root = spans[root_of(spans, i)]
        if not root["name"].startswith("bench."):
            continue  # other threads; see chunk_split()
        phase = root["name"]
        if i == root_of(spans, i):
            phase_total[phase] += s["end"] - s["start"]
        layer_self[phase][s["name"].split(".")[0]] += selfs[i]
    for phase, total in phase_total.items():
        print(f"\n{phase}: {total:.3f} s in all rounds")
        for layer, t in sorted(layer_self[phase].items(),
                               key=lambda kv: -kv[1]):
            print(f"  {layer:<10} self {t:9.4f} s  {t / total:7.2%}")
        ops = defaultdict(float)
        for i, s in enumerate(spans):
            if spans[root_of(spans, i)]["name"] == phase:
                ops[s["name"]] += selfs[i]
        print("  by span: " + ", ".join(
            f"{k} {v / total:.1%}" for k, v in
            sorted(ops.items(), key=lambda kv: -kv[1])))


def chunk_split(spans):
    ingest, offer = {}, {}
    for s in spans:
        if s["name"] == "net.ingest":
            ingest[s["id"]] = s["end"] - s["start"]
        elif s["name"] == "service.offer":
            offer[s["id"]] = s["end"] - s["start"]
    both = [k for k in ingest if k in offer]
    if not both:
        return
    acks = [ingest[k] for k in both]
    offers = [offer[k] for k in both]
    print(f"\nper chunk ({len(both)} chunks matched by id): "
          f"ack p50 {1e3 * statistics.median(acks):.3f} ms, of which "
          f"service.offer p50 {1e6 * statistics.median(offers):.1f} us "
          f"({sum(offers) / sum(acks):.2%} of all ack time); the rest "
          f"is client encode, loopback, server decode and the ack")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()

    plain = run(args.workload, args.seed, args.seconds, 0)
    traced = run(args.workload, args.seed, args.seconds, 1)
    path = ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.json"
    data = json.loads(path.read_text())
    spans = data["spans"]
    print(f"{args.workload} seed {args.seed}: {len(spans)} spans "
          f"({path.relative_to(ROOT)})")
    phase_table(spans)
    chunk_split(spans)

    print("\nper-layer metrics (traced run):")
    for m in spec["per_layer"]:
        v = traced["metrics"][m["name"]]["value"]
        print(f"  {m['name']:<32} {v:>14.6g} {m['unit']}")

    print("\ntracing overhead (traced vs untraced run, same seed):")
    for m in spec["end_to_end"]:
        if m["unit"] not in ("s", "ms", "Mrec/s"):
            continue
        untraced = plain["metrics"][m["name"]]["value"]
        with_spans = data["end_to_end"].get(m["name"])
        if with_spans is None or not untraced:
            continue
        print(f"  {m['name']:<14} untraced {untraced:10.4f}  traced "
              f"{with_spans:10.4f}  {with_spans / untraced - 1:+7.2%}")

    if args.workload.startswith("whisperd"):
        ingest = plain["metrics"]["mrec_per_s"]["value"]
        absorb = traced["metrics"]["service.absorb_mrec_per_s"]["value"]
        print(f"\ningest hypothesis: wire ingest {ingest:.2f} Mrec/s vs "
              f"sum of absorber rates {absorb:.2f} Mrec/s "
              f"(ratio {ingest / absorb:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
