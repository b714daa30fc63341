#!/usr/bin/env python3
"""Build and run the end-to-end Tonic serving benchmark.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload vision-closed --seed 1 \
        --seconds 40 --trace 0

The first run configures and builds perfbench/ (and the serving
libraries under src/) into .bench_build/perfbench; later runs only
re-check the build. Workload parameters come from
perfbench/workloads.json. tonic_bench's report goes to stdout and its
last line is the JSON result. With --trace 1 the spans are written to
.bench_build/traces/<workload>-seed<N>.spans.json.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = Path(".bench_build") / "perfbench"
TRACE_DIR = Path(".bench_build") / "traces"
TMP_DIR = Path(".bench_build") / "tmp"

# tonic_bench must finish inside the per-run budget even after a
# no-op build check.
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(env):
    """Configure once, then build tonic_bench; cmake output to stderr."""
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "tonic_bench", "-j", "4"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env)
        except OSError as err:
            fail(f"cannot run {cmd[0]}: {err}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return BUILD_DIR / "tonic_bench"


def bench_flags(spec):
    """Translate one workloads.json entry into tonic_bench flags."""
    return ["--apps", ",".join(spec["apps"]),
            "--tail-pct", str(spec["tail_pct"]),
            "--tail-block", str(spec["tail_block"])]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-reply", action="store_true",
                        help="alter one reply before the correctness "
                             "gate; the run must then fail")
    args = parser.parse_args()

    workloads = json.loads((BENCH_DIR / "workloads.json").read_text())
    spec = workloads["workloads"].get(args.workload)
    if spec is None:
        fail(f"unknown workload {args.workload!r}; known: "
             f"{', '.join(workloads['workloads'])}", code=2)

    # Keep compiler and tonic_bench scratch files inside the checkout.
    TMP_DIR.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(TMP_DIR.resolve()))
    binary = build(env)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + bench_flags(spec)
    if args.trace:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(TRACE_DIR / f"{args.workload}-seed{args.seed}.spans.json")]
    if args.corrupt_reply:
        cmd.append("--corrupt-reply")

    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"tonic_bench exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"tonic_bench exited with code {done.returncode}")
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(done.stdout)
        fail("tonic_bench's last line is not a JSON result")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
