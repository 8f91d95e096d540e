#!/usr/bin/env python3
"""Builds and runs the serving benchmark (see README.md).

    python3 servebench/run.py --workload remote_short --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the library and the benchmark from
source into $CARGO_TARGET_DIR/servebench (default .bench_build/servebench),
runs the statistics self-tests, generates the workload's inputs from the
seed in a separate process, then runs the benchmark. The last line of
standard output is the JSON result; build and progress messages go to
standard error. Exits non-zero if the build, a self-test, the correctness
gate or the run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("remote_short", "scan_batch")
# A run (input generation, set-up, measurement, gate) must end well inside
# the 180 s a caller allows; the build before it is not counted.
RUN_BUDGET_S = 170
# All runs use one SIMD tier, so a machine's widest tier cannot make two
# runs differ. AVX2 is the widest tier common x86-64 servers all have; the
# library clamps it (with a warning) on a CPU without it.
ISA = "avx2"


def log(msg):
    print(f"servebench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as out:
        def step(cmd):
            out.write("$ " + " ".join(cmd) + "\n")
            out.flush()
            return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode == 0

        ok = True
        configured = any(os.path.exists(os.path.join(build_dir, f))
                         for f in ("build.ninja", "Makefile"))
        if not configured:
            cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            ok = step(cmd)
        jobs = str(max(1, min(os.cpu_count() or 1, 4)))
        ok = ok and step(["cmake", "--build", build_dir, "-j", jobs, "--target",
                          "servebench", "servebench_selftest"])
    if not ok:
        with open(log_path) as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
        log(f"build failed (full log: {log_path})")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "servebench")
    if not build(build_dir):
        return 2
    selftest = subprocess.run([os.path.join(build_dir, "servebench_selftest")],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout)
        log("statistics self-tests failed")
        return 2

    start = time.monotonic()
    run_dir = os.path.join(build_dir, "runs", f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    binary = os.path.join(build_dir, "servebench")
    env = dict(os.environ, SIMSUB_ISA=ISA)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", run_dir,
              "--trace", str(args.trace)]
    try:
        gen = subprocess.run([binary, "gen"] + common, env=env, timeout=RUN_BUDGET_S,
                             stdout=subprocess.DEVNULL)
        if gen.returncode != 0:
            log("input generation failed")
            return 2
        remaining = RUN_BUDGET_S - (time.monotonic() - start)
        run = subprocess.run([binary, "run", "--seconds", str(args.seconds)] + common,
                             env=env, timeout=max(1.0, remaining))
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_BUDGET_S} s")
        return 2
    if args.trace:
        spans = os.path.join(run_dir, "spans.csv")
        if os.path.exists(spans):
            traces = os.path.join(build_dir, "traces")
            os.makedirs(traces, exist_ok=True)
            kept = os.path.join(traces, f"{args.workload}-seed{args.seed}.spans.csv")
            shutil.move(spans, kept)
            log(f"spans: {kept}")
    shutil.rmtree(run_dir, ignore_errors=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
