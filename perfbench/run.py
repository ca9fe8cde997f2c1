#!/usr/bin/env python3
"""Simulator benchmark: builds the benchmark program and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload pod_saturated --seed 1 \
        --seconds 36 --trace 0

Each call configures and builds perfbench/CMakeLists.txt (the simulator
library from src/ plus the benchmark program) in the directory named by
CARGO_TARGET_DIR, or .bench_build when it is unset; after the first call
only what changed is rebuilt. Build output goes to stderr. The program's report
goes to stdout; its last line is the JSON result. Workloads, metrics and
checks are described in perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pod_saturated", "tier_overload", "fleet_diurnal")
# The program must finish inside the caller's 180 s limit.
PROGRAM_TIMEOUT_S = 170


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(out_dir):
    """Configures and builds the program; returns its path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(out_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(out_dir), "--target", "perfbench",
              "-j", jobs]]
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return None
    program = out_dir / "perfbench"
    return program if program.exists() else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="milliseconds of simulated input (tests only)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    program = build(build_dir())
    if program is None:
        return 1
    cmd = [str(program), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--fleet-spec", str(HERE / "fleet_short.json")]
    if args.quick:
        cmd.append("--quick")
    sys.stdout.flush()
    try:
        result = subprocess.run(cmd, timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the program.
        print("perfbench: benchmark program timed out", file=sys.stderr)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
