#!/usr/bin/env python3
"""Build and run the latency96 host-speed benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run configures and builds
perfbench/ (the library sources under src/ plus the perfbench program) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only re-check the build.  Each run then executes the benchmark's
self-tests and one workload, and prints the program's output; its last line
is the JSON result.  Build output goes to stderr.

Exit status: the program's (0 = every correctness check passed), or 1
when the build, the self-tests or the program fail without a result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_sweep", "fleet_tcp", "fleet_rpc_rules", "failover")
# A first run (configure + build + workload) must end within 900 s, any
# later run within 180 s.
CONFIGURE_TIMEOUT_S = 60
BUILD_TIMEOUT_S = 620
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_step(cmd, timeout, **kw):
    """Run a child to completion; its stdout goes to our stderr."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, timeout=timeout,
                              check=False, **kw).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout}s: {' '.join(cmd)}")
        return 1


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_step(cmd, CONFIGURE_TIMEOUT_S) != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_step(["cmake", "--build", build_dir, "-j", jobs],
                    BUILD_TIMEOUT_S) == 0


def git_describe():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    if not build(build_dir):
        log("build failed")
        return 1

    selftest = os.path.join(build_dir, "perfbench_selftest")
    if run_step([selftest, ROOT], 60) != 0:
        log("self-tests failed")
        return 1

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(build_dir, "runs"),
           "--git-describe", git_describe()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"workload {args.workload} timed out after {RUN_TIMEOUT_S}s")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if not lines or not lines[-1].startswith("{"):
        log(f"perfbench exited {proc.returncode} without a result")
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
