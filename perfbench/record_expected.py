#!/usr/bin/env python3
"""Record every seed window's simulated outcome in expected.json.

    python3 perfbench/record_expected.py

run.py fails a run whose simulated outcome differs from the one
recorded here for its seed's window: offline, the hard branches,
hints, formulas scored, TAGE and whisper+TAGE mispredicts, simulated
cycles and the trained bundle's CRC-32; whisperd, each tenant's
deployed epoch, hint count and bundle CRC-32. These are pure functions
of the inputs, so a change that moves them changes what training
produces, not how fast it runs. Re-record only for a change meant to
alter that output, and say so in it.
"""

import json
import subprocess
import sys

from run import EXPECTED, ROOT, build, build_dir

WINDOWS = 64  # kSeedWindows in bench.hh


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not build():
        return 1
    expected = {}
    for workload in (w["name"] for w in spec["workloads"]):
        outcomes = {}
        for seed in range(WINDOWS):
            # The shortest run: the minimum of rounds.
            cmd = [str(build_dir() / "whisper_bench"), "--workload",
                   workload, "--seed", str(seed), "--seconds", "0.001",
                   "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True,
                                  cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            raw = json.loads(lines[-1]) if lines else {}
            if proc.returncode or not raw.get("correct"):
                raise SystemExit(f"{workload} seed {seed}: run failed")
            outcomes[str(raw["window"])] = raw["outcome"]
            print(f"{workload} window {raw['window']}: {raw['outcome']}",
                  flush=True)
        expected[workload] = outcomes
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True)
                            + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
