#!/usr/bin/env python3
"""Builds and runs the apmperf benchmark from the repository root.

    python3 apmperf/run.py --workload served_rsw|apm_fleet|cold_rs \
        --seed N --seconds S --trace 0|1
    python3 apmperf/run.py --selftest

The benchmark is compiled from source (apmperf/CMakeLists.txt builds the
program's libraries from src/) into .bench_build/apmperf; the first run
builds, later runs only check that the build is up to date. The store
lives under .bench_build/data while the run lasts and is removed after
it. The last line of standard output is the run's JSON result; build
output and the human-readable report go to standard error.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build"
BUILD = WORK / "apmperf"
RUN_TIMEOUT_S = 170


def build(target):
    """Configures (once) and builds `target`; False when the build fails."""
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", str(BUILD), "-j", jobs, "--target", target]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def run(command, cleanup=None):
    """Runs `command`, relaying its standard output; returns its exit code."""
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("apmperf: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        if cleanup is not None:
            shutil.rmtree(cleanup, ignore_errors=True)
    sys.stdout.write(out)
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["served_rsw", "apm_fleet", "cold_rs"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the checks against a faulty store instead")
    args = parser.parse_args()

    if args.selftest:
        if not build("apmperf_selftest"):
            return 1
        data = WORK / "data" / ("selftest-%d" % os.getpid())
        return run([str(BUILD / "apmperf_selftest"), str(data)], cleanup=data)

    if args.workload is None:
        parser.error("--workload is required")
    if not build("apmperf"):
        return 1
    data = WORK / "data" / ("%s-%d" % (args.workload, os.getpid()))
    command = [str(BUILD / "apmperf"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--data-dir", str(data)]
    if args.trace:
        command += ["--trace-out",
                    str(WORK / "traces" / ("%s-%d.csv" % (args.workload, args.seed)))]
    return run(command, cleanup=data)


if __name__ == "__main__":
    sys.exit(main())
