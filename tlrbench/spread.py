#!/usr/bin/env python3
"""Measure the run-to-run spread of the benchmark's end-to-end metrics.

Runs the benchmark untraced once per seed (1-10) on every workload of
BENCHMARK.json, one run at a time, and reports for every metric the
median of the runs and the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of that median. The
bounds in BENCHMARK.json are judged against this spread. Run from the
root of a checkout:

    python3 tlrbench/spread.py --out tlrbench/noise/NAME.json
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(bench, workload, seed, seconds):
    cmd = list(bench["command"]) + ["--workload", workload, "--seed",
                                    str(seed), "--seconds", str(seconds),
                                    "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         check=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out")
    args = ap.parse_args()

    bench = load_benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"host": {"nproc": os.cpu_count(),
                       "machine": platform.machine(),
                       "python": platform.python_version()},
              "run_seconds": bench["run_seconds"], "runs": len(SEEDS),
              "seeds": list(SEEDS),
              "workloads": {}}
    worst = 0.0
    for w in (w["name"] for w in bench["workloads"]):
        values = {}
        failed = 0
        for seed in report["seeds"]:
            res = run_once(bench, w, seed, bench["run_seconds"])
            failed += res["failed"]
            if not res["correct"]:
                print("%s seed %d: correct=false" % (w, seed),
                      file=sys.stderr)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (w, seed, {k: v[-1] for k, v in
                                                 values.items()}),
                  file=sys.stderr)
        rows = {}
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / statistics.median(v)
            rows[name] = {"median": statistics.median(v), "q1": q1,
                          "q3": q3, "iqr_share": spread,
                          "bound": bounds.get(name), "values": v}
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print("%-14s %-13s median %-14.6g IQR/median %.4f  (bound %s)"
                  % (w, name, statistics.median(v), spread,
                     bounds.get(name)))
        report["workloads"][w] = {"failed": failed, "metrics": rows}
    print("largest spread as a share of its bound (setup_s excluded): %.3f"
          % worst)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
