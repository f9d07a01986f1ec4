#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload g500|serve_read|serve_churn \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench (perfbench/CMakeLists.txt, which compiles the bfsx
libraries from src/) into .bench_build/perfbench under the checkout
root, checks the benchmark's own arithmetic with perfbench_selftest,
then runs one workload. The last line of standard output is the run's
result as one JSON object; build output goes to
.bench_build/perfbench-build.log. Each run also writes a record with a
machine and build stamp to .bench_build/records/.
"""
import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
BUILD = OUT / "perfbench"
LOG = OUT / "perfbench-build.log"

# OpenMP threads per worker thread. g500 runs one search at a time on
# the whole 4-core machine; each of the two serve workers opens a team
# of 2, so the two workers fill it.
OMP_THREADS = {"g500": "4", "serve_read": "2", "serve_churn": "2"}
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def logged(cmd):
    with open(LOG, "a") as log:
        log.write("$ " + " ".join(map(str, cmd)) + "\n")
        log.flush()
        return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode


def build():
    OUT.mkdir(exist_ok=True)
    LOG.write_text("")
    if not (BUILD / "CMakeCache.txt").exists():
        if logged(["cmake", "-S", HERE, "-B", BUILD]) != 0:
            fail(f"configure failed; see {LOG}\n" + LOG.read_text()[-2000:])
    jobs = str(os.cpu_count() or 1)
    if logged(["cmake", "--build", BUILD, "-j", jobs]) != 0:
        fail(f"build failed; see {LOG}\n" + LOG.read_text()[-4000:])
    selftest = subprocess.run([BUILD / "perfbench_selftest"],
                              capture_output=True, text=True, timeout=60)
    if selftest.returncode != 0:
        fail("selftest failed:\n" + selftest.stdout + selftest.stderr)
    return selftest.stdout


def commit_id():
    if not (ROOT / ".git").exists():
        return "unavailable"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(OMP_THREADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run only the arithmetic self-test")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    selftest_out = build()
    if args.selftest:
        print(selftest_out, end="")
        return 0

    env = dict(os.environ, OMP_NUM_THREADS=OMP_THREADS[args.workload])
    cmd = [BUILD / "perfbench", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--record-dir", OUT / "records",
           "--commit", commit_id()]
    try:
        run = subprocess.run(cmd, env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
