#!/usr/bin/env python3
"""Build and run the effitest benchmark. See perfbench/README.md.

    python3 perfbench/run.py --workload tester_mc --seed 1 --seconds 20 \
        --trace 0

Run from the repository root. The first run configures and builds the
benchmark (Release) into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later runs only check the build is current. Build output goes to
stderr. The benchmark's last line of stdout is its JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("tester_mc", "design_prep", "tester_relay")
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure once, then build the driver; returns the binary path."""
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=log, stderr=log)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "effitest_perfbench",
         "-j", jobs],
        check=True, stdout=log, stderr=log)
    return os.path.join(build_dir, "effitest_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_file = os.path.join(build_dir, f"trace-{args.workload}.jsonl")
        if os.path.exists(trace_file):
            os.remove(trace_file)
        cmd += ["--trace-file", trace_file]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
