#!/usr/bin/env python3
"""Steadiness series: run every workload repeatedly and report spreads.

    python3 perfbench/steadiness.py [--runs 10] [--sets 1] [--seconds 15]
        [--workloads a,b] [--first-seed 1] [--out FILE]

Each run uses another seed; workloads take turns, so a disturbed
stretch of time touches every workload a little instead of one a lot.
For every end-to-end metric each set records the median, the
quartiles (Python's statistics.quantiles, n=4), the spread (q3 - q1)
as a share of the median and the metric's bound from BENCHMARK.json.
With two sets or more, it also records how much worse each later
set's median is than the first set's, beside the bound. Every run
records the host's 1-minute load average at its start and end. The
summary is written as JSON and printed as a table.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds, trace):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    host = {}
    for line in lines:
        if line.startswith("# host "):
            host = dict(kv.split("=") for kv in line[7:].split())
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "exit": proc.returncode, "wall_s": round(time.monotonic() - start, 2),
        "loadavg_start": float(host.get("loadavg_start", "nan")),
        "loadavg_end": float(host.get("loadavg_end", "nan")),
        "result": json.loads(lines[-1]) if lines else None,
    }


def summarise(runs, spec):
    out = {}
    for m in spec["end_to_end"]:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in runs
                  if r["result"]]
        if len(values) < 2:
            continue
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        out[m["name"]] = {
            "median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": m["bound"], "within_third_of_bound": spread < m["bound"] / 3,
            "within_tenth_of_median": spread <= 0.1, "values": values}
    return out


def worse_by(first, later, better):
    """How much worse @later is than @first, as a share of @first."""
    change = (later - first) / first if first else 0.0
    return -change if better == "higher" else change


def run_set(workloads, runs, first_seed, seconds, trace, spec):
    results = {w: [] for w in workloads}
    for i in range(runs):
        for w in workloads:
            r = one_run(w, first_seed + i, seconds, trace)
            results[w].append(r)
            print("%-14s seed %-3d exit %d  %5.1f s  load %.2f -> %.2f" %
                  (w, r["seed"], r["exit"], r["wall_s"], r["loadavg_start"],
                   r["loadavg_end"]), file=sys.stderr, flush=True)
    return {w: {"metrics": summarise(results[w], spec) if not trace else {},
                "runs": results[w]} for w in workloads}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--workloads")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    sets = [run_set(workloads, args.runs, args.first_seed + k * args.runs,
                    seconds, args.trace, spec) for k in range(args.sets)]
    report = {"runs_per_workload": args.runs, "seconds": seconds,
              "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
              "sets": sets, "median_shift": {}}
    for k, workloads_of_set in enumerate(sets):
        for w, data in workloads_of_set.items():
            print("\nset %d %s" % (k + 1, w))
            for name, s in data["metrics"].items():
                print("  %-18s median %12.5g  q1 %12.5g  q3 %12.5g  "
                      "spread %6.2f%%  bound %3.0f%%  %s" % (
                          name, s["median"], s["q1"], s["q3"],
                          100 * s["spread"], 100 * s["bound"],
                          "ok" if s["within_third_of_bound"] else "WIDE"))
    for w in workloads:
        shifts = {}
        for name, s in sets[0][w]["metrics"].items():
            worst = max((worse_by(s["median"], later[w]["metrics"][name]["median"],
                                  better[name]) for later in sets[1:]),
                        default=0.0)
            shifts[name] = {"worse_by": worst, "bound": s["bound"],
                            "within_bound": worst <= s["bound"]}
        report["median_shift"][w] = shifts
        if len(sets) > 1:
            print("\nmedian shift, %s" % w)
            for name, sh in shifts.items():
                print("  %-18s worse by %6.2f%%  bound %3.0f%%" %
                      (name, 100 * sh["worse_by"], 100 * sh["bound"]))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
