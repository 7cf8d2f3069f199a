#!/usr/bin/env python3
"""Build the benchmark from this checkout and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (which adds the repository's own CMake
project) into .bench_build/ -- or $CARGO_TARGET_DIR when set -- then runs
the benchmark binary from the checkout root with TMPDIR pointed at a private
directory inside the build tree, so the run reads and writes only inside
the checkout.  Everything the build prints goes to stderr.

The binary's stdout is passed through.  Its last line is the result; it is
checked against BENCHMARK.json (exactly the end-to-end metrics with
--trace 0, exactly the per-layer metrics with --trace 1, same units) before
it is printed.  The exit code is the binary's: 0 when every output matched
its reference, 1 on a mismatch, 2 when the build, the set-up or the check
failed (no result line then).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench/run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configuring an up-to-date tree takes under a second, and doing it on
    # every run recovers from a configure that failed half way.
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build_dir, "--target", "perfbench",
              "-j", jobs]]
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def check_result(line, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are %s" % sorted(result))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "units %s" % (
                 sorted(set(expected) - set(got)),
                 sorted(set(got) - set(expected)),
                 sorted(n for n in got if n in expected
                        and got[n] != expected[n])))
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            fail("metric %s has no numeric value" % name)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir, "perfbench")
    binary = build(build_dir)

    scratch = os.path.join(build_dir, "run-%d" % os.getpid())
    traces = os.path.join(build_dir, "traces")
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    env = dict(os.environ, TMPDIR=scratch)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--trace-out", os.path.join(
               traces, "%s-seed%d.jsonl" % (args.workload, args.seed)),
           "--scratch", os.path.relpath(scratch, ROOT)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        fail("benchmark exited with %d" % proc.returncode)
    check_result(lines[-1], args.trace == "1")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
