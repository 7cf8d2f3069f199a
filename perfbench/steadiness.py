#!/usr/bin/env python3
"""Check that the benchmark repeats: run each workload on several seeds.

    python3 perfbench/steadiness.py [--workloads a,b] [--runs 10]
                                    [--first-seed 1] [--out set.json]
                                    [--compare earlier.json]

Runs `python3 perfbench/run.py --trace 0` once per seed and workload, from
the checkout root, with BENCHMARK.json's run_seconds.  For every end-to-end
metric it prints the median of the runs and their spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median.  A spread must stay within the metric's bound (setup_s,
a median of set-ups, is gated on its median's move only) and should stay
below a third of it.  --compare reads the --out
file of an earlier set and also checks that no median moved the worse way
by more than the bound.  Exits 1 when any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        sys.exit("%s seed %d exited with %d" % (workload, seed,
                                                proc.returncode))
    result = json.loads(proc.stdout.splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args()

    metrics = spec["end_to_end"]
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)
    values = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, spec["run_seconds"])
                for seed in range(args.first_seed,
                                  args.first_seed + args.runs)]
        values[workload] = {m["name"]: [r[m["name"]] for r in runs]
                            for m in metrics}
        print("%s (%d runs)" % (workload, args.runs))
        for m in metrics:
            vals = values[workload][m["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            verdict = "ok"
            # setup_s is gated on its median's move only (README.md).
            if spread > m["bound"] and m["name"] != "setup_s":
                verdict, ok = "SPREAD > BOUND", False
            elif spread > m["bound"] / 3:
                verdict = "spread > bound/3"
            line = "  %-16s median %-14.6g spread %6.2f%%  bound %4.0f%%" % (
                m["name"], med, 100 * spread, 100 * m["bound"])
            before = earlier.get(workload, {}).get(m["name"])
            if before:
                old = statistics.median(before)
                moved = (med - old) / old if old else 0.0
                worse = moved if m["better"] == "lower" else -moved
                line += "  vs earlier %+6.2f%%" % (100 * moved)
                if worse > m["bound"]:
                    verdict, ok = "MEDIAN MOVED", False
            print(line + "  " + verdict)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(values, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
