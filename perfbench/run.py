#!/usr/bin/env python3
"""Build and run the udsim benchmark from a source checkout.

    python3 perfbench/run.py --workload unit-delay-deep --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (which compiles the library from src/) into
.bench_build/perfbench on first use, then runs one workload. Everything the
run writes stays under .bench_build/ in the checkout: a private directory per
run (native object cache and TMPDIR for the C compiler, removed at exit) and,
in the traced mode, the span file traces/<workload>-seed<N>.json. The last
line of standard output is the benchmark's JSON result.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "udsim_perfbench")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"library sources not found under {ROOT}/src; run from a full checkout")
        return False
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                log("build failed: " + " ".join(cmd))
                return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["unit-delay-deep", "zero-delay-wide", "service-small"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--inject-mismatch", action="store_true",
                    help="flip one sampled output bit (the run must then fail)")
    args = ap.parse_args()

    if not build():
        return 2

    run_dir = os.path.join(BUILD, "runs", str(os.getpid()))
    tmp_dir = os.path.join(run_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", run_dir]
    if args.trace == "1":
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    if args.inject_mismatch:
        cmd.append("--inject-mismatch")
    env = dict(os.environ, TMPDIR=tmp_dir)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s; killed")
        proc.kill()
        proc.wait()
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
