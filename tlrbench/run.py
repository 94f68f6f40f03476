#!/usr/bin/env python3
"""Build the tlrsim host-time benchmark from source and run one workload.

Run from the root of a checkout:

    python3 tlrbench/run.py --workload tlr-contended --seed 12345 \
        --seconds 30 --trace 0

The first run configures and builds the simulator library and the
benchmark (CMake, Release) under .bench_build/; later runs rebuild only
what changed. Build output goes to stderr. The benchmark's stdout is
passed through: its last line is the JSON result. Exact counts of
earlier runs of the same binary are kept under .bench_build/ and
checked by later runs; the traced run (--trace 1) writes its spans
there too.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "tlrbench")
WORKLOADS = ("tlr-contended", "lock-sweep", "telemetry-on")
# Each run must end within 180 s; the build is allowed more.
RUN_LIMIT_S = 175
BUILD_LIMIT_S = 840


def build():
    """Configure (once) and build; return the benchmark binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("tlrbench: simulator sources (src/) not found next to "
                 + HERE)
    deadline = time.monotonic() + BUILD_LIMIT_S
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True,
                       timeout=deadline - time.monotonic())
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "tlrbench",
                    "-j", jobs],
                   stdout=sys.stderr, check=True,
                   timeout=deadline - time.monotonic())
    return os.path.join(BUILD, "tlrbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    try:
        binary = build()
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired, OSError) as e:
        sys.exit("tlrbench: build failed: %s" % e)

    with open(binary, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    state_dir = os.path.join(ROOT, ".bench_build", "state")
    os.makedirs(state_dir, exist_ok=True)
    tag = "%s-seed%d" % (args.workload, args.seed)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--state", os.path.join(state_dir,
                                   "%s-%s.counts" % (tag, build_id))]
    if args.trace:
        cmd += ["--spans", os.path.join(state_dir, tag + ".spans.json")]
    try:
        proc = subprocess.run(cmd, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        sys.exit("tlrbench: run exceeded %d s" % RUN_LIMIT_S)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
