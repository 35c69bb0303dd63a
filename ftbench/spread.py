#!/usr/bin/env python3
"""Run the benchmark once per seed and report each end-to-end metric's spread.

    python3 ftbench/spread.py --workload verify --seeds 1-10 [--seconds 10]

Runs the command from BENCHMARK.json from the repository root, once per seed,
and prints for every end-to-end metric its median over the seeds, the
distance between the first and third quartile as a share of the median, and
that share against the metric's bound. Exits 1 if a run fails, is incorrect,
or a spread (set-up time excepted) exceeds a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    ok = True
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        ok &= result["correct"] and result["failed"] == 0
        if set(result["metrics"]) != set(values):
            print(f"seed {seed}: metrics {sorted(result['metrics'])} differ from BENCHMARK.json",
                  file=sys.stderr)
            return 1
        row = []
        for name in values:
            v = result["metrics"][name]["value"]
            values[name].append(v)
            row.append(f"{name}={v:.4f}")
        digest = next((l.split()[-1] for l in lines if l.startswith("digest ")), "none")
        print(f"seed {seed}: digest={digest} correct={result['correct']} " + " ".join(row),
              flush=True)
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        steady = share <= m["bound"] / 3 or m["name"] == "setup_s"
        ok &= steady
        print(f"{m['name']:<14} median {med:12.4f} {m['unit']:<4} spread {share:7.2%}"
              f"  bound {m['bound']:.0%}  {'ok' if steady else 'UNSTEADY'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
