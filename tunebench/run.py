#!/usr/bin/env python3
"""Builds and runs the tuning benchmark.

    python3 tunebench/run.py --workload hypertune-nas --seed 1 --seconds 20 --trace 0

Run from the repository root. The benchmark is compiled from source into
.bench_build/tunebench (the library comes from src/); builds after the first
are incremental. The last line of standard output is the result JSON.
Scratch files (journals, span CSVs) go to .bench_build/tunebench-work.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "tunebench")
WORK = os.path.join(ROOT, ".bench_build", "tunebench-work")


def build():
    """Configures and builds the benchmark; returns the binary path or None."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "tunebench",
         "-j", str(min(4, os.cpu_count() or 1))],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                break
        else:
            return os.path.join(BUILD, "tunebench")
    with open(log_path) as log:
        sys.stderr.write(log.read()[-4000:])
    sys.stderr.write("tunebench: build failed (%s)\n" % " ".join(step))
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", WORK]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
