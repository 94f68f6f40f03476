#!/usr/bin/env python3
"""Check that two tlrsim binaries simulate exactly the same machines.

    python3 tools/model_identity.py OLD_TLRSIM NEW_TLRSIM

Runs every configuration of three sets on both binaries and compares,
per configuration, the SHA-256 of the --trace-raw file's 32-byte header
(its final_tick is the tick of the last event, not of the last halt)
and of its records, the --stats-json dump without its "meta" object
(build metadata), stdout, the exit code, and stderr with panic source
locations masked ("at FILE:LINE" names a line of the checkout, not of
the simulated machine).

- matrix: every workload of `--list` x base/mcs/sle/tlr/tlr-strict x
  broadcast/directory x --victim=16,1 x --seed=12345,2, at 8 CPUs and
  64 ops (octree refuses mcs): 912 configurations.
- preempted: 12 workloads x sle/tlr/tlr-strict x both protocols x
  --seed=2,3, once with --preempt-every=2000 --preempt-quantum=500 and
  once with --preempt-every=300 --preempt-quantum=200, where a
  preemption that fires out of its place in a tick's event order
  shows: 288.

A refactor that claims the same simulated machine must report 0
differing configurations; a model change differs by design. Each raw
trace is deleted as soon as it is hashed (the matrix writes about
1.5 GB of them per binary). Prints each differing configuration and a
summary; exits 0 when all are identical, 1 on any difference.
"""

import argparse
import concurrent.futures
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

SCHEMES = ("base", "mcs", "sle", "tlr", "tlr-strict")
PROTOCOLS = ("broadcast", "directory")
PREEMPTED_WORKLOADS = (
    "single-counter", "multiple-counter", "dlist", "reverse-writers",
    "rotated-blocks", "bank", "cholesky", "hash-kv", "ordered-index",
    "partition", "tpcc-lite", "ycsb-a",
)
PANIC_LOCATION = re.compile(r"^(\s*at ).*:\d+$", re.MULTILINE)
RUN_LIMIT_S = 300
# The raw trace's fixed header (magic, version, record size, record
# count, final_tick); the records follow it.
TRACE_HEADER_BYTES = 32
# Configurations run at once.
JOBS = min(4, os.cpu_count() or 1)


def workloads(binary):
    """Workload names from `tlrsim --list` (indented first words)."""
    out = subprocess.run([binary, "--list"], capture_output=True,
                         text=True, check=True).stdout
    return [line.split()[0] for line in out.splitlines()
            if line.startswith("  ") and line.strip()]


def configs(names):
    """The flags of every configuration of both sets."""
    for w in names:
        for s in SCHEMES:
            if w == "octree" and s == "mcs":
                continue
            for p in PROTOCOLS:
                for v in (16, 1):
                    for seed in (12345, 2):
                        yield ["--workload=" + w, "--scheme=" + s,
                               "--protocol=" + p, "--victim=%d" % v,
                               "--seed=%d" % seed, "--cpus=8", "--ops=64"]
    for every, quantum in ((2000, 500), (300, 200)):
        for w in PREEMPTED_WORKLOADS:
            for s in ("sle", "tlr", "tlr-strict"):
                for p in PROTOCOLS:
                    for seed in (2, 3):
                        yield ["--workload=" + w, "--scheme=" + s,
                               "--protocol=" + p, "--seed=%d" % seed,
                               "--cpus=8", "--ops=64",
                               "--preempt-every=%d" % every,
                               "--preempt-quantum=%d" % quantum]


def run(binary, flags, workdir):
    """One run's observable outputs as a dict of comparable fields."""
    raw = os.path.join(workdir, "trace.bin")
    stats = os.path.join(workdir, "stats.json")
    try:
        p = subprocess.run([binary] + flags + ["--trace-raw=" + raw,
                                               "--stats-json=" + stats],
                           capture_output=True, text=True,
                           timeout=RUN_LIMIT_S)
        out = {"exit": p.returncode, "stdout": p.stdout,
               "stderr": PANIC_LOCATION.sub(r"\1<loc>", p.stderr)}
    except subprocess.TimeoutExpired:
        out = {"exit": "timeout"}
    h = hashlib.sha256()
    try:
        with open(raw, "rb") as f:
            out["trace-header"] = hashlib.sha256(
                f.read(TRACE_HEADER_BYTES)).hexdigest()
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
        out["trace-records"] = h.hexdigest()
        os.remove(raw)
    except OSError:
        out["trace-header"] = out["trace-records"] = None
    try:
        with open(stats) as f:
            dump = json.load(f)
        dump.pop("meta", None)
        out["stats-json"] = dump
        os.remove(stats)
    except (OSError, ValueError):
        out["stats-json"] = None
    return out


def compare(old, new, flags, tmp):
    """Run one configuration on both binaries; list differing fields."""
    workdir = tempfile.mkdtemp(dir=tmp)
    try:
        a = run(old, flags, workdir)
        b = run(new, flags, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return [k for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", help="tlrsim binary of the reference build")
    ap.add_argument("new", help="tlrsim binary of the build under test")
    args = ap.parse_args()

    names = workloads(args.new)
    if workloads(args.old) != names:
        print("workload lists differ:", workloads(args.old), names)
        return 1
    todo = list(configs(names))
    tmp = tempfile.mkdtemp(prefix="model_identity_")
    differing = 0
    try:
        with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
            jobs = [pool.submit(compare, args.old, args.new, f, tmp)
                    for f in todo]
            for flags, job in zip(todo, jobs):
                fields = job.result()
                if fields:
                    differing += 1
                    print("DIFFER %s: %s" % (" ".join(flags),
                                             ", ".join(fields)))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("%d of %d configurations differ" % (differing, len(todo)))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
