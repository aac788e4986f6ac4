#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md here).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test        # the benchmark's own tests
    python3 perfbench/run.py --write-reference  # regenerate reference.json

The simulator and the serving tools are built from this checkout's
sources into .bench_build/perfbench (the first run builds, later runs
only check that the build is current). The last line of standard
output is the result object; every earlier line is a comment.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ["phase1_sweep", "phase2_replay", "serve_mixed", "coord_sweep"]
RUN_TIMEOUT_S = 170


def build(targets):
    """Configure once, then bring @targets up to date; exit 2 on failure."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD] + generator)
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build failed\n")
            if len(steps) == 2 and cmd is steps[0]:
                shutil.rmtree(BUILD, ignore_errors=True)
            sys.exit(2)


def lvabench(workload, extra, workdir):
    os.makedirs(workdir, exist_ok=True)
    cmd = [os.path.join(BUILD, "lvabench"), "--workload", workload,
           "--workdir", workdir, "--bindir", BUILD] + extra
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s timed out\n" % workload)
        sys.exit(2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_result(line, trace):
    """The result must name exactly the metrics BENCHMARK.json lists."""
    result = json.loads(line)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        wanted = spec["per_layer" if trace else "end_to_end"]
        got = result["metrics"]
        names = [m["name"] for m in wanted]
        if sorted(got) != sorted(names):
            raise ValueError("metrics differ from BENCHMARK.json: %s"
                             % sorted(set(got) ^ set(names)))
        for m in wanted:
            if got[m["name"]]["unit"] != m["unit"]:
                raise ValueError("unit of %s differs" % m["name"])


def run(args):
    build(["lvabench", "lva_served", "lva_sweep_coord"])
    workdir = os.path.join(WORK, "%s-%d" % (args.workload, os.getpid()))
    proc = lvabench(args.workload,
                    ["--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace), "--reference",
                     os.path.join(HERE, "reference.json")], workdir)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.exit(proc.returncode or 2)
    try:
        check_result(lines[-1], args.trace == 1)
    except (ValueError, KeyError) as e:
        sys.stderr.write("perfbench: bad result line: %s\n" % e)
        sys.exit(2)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


def write_reference():
    build(["lvabench", "lva_served", "lva_sweep_coord"])
    digests = {}
    for w in WORKLOADS:
        proc = lvabench(w, ["--seconds", "0", "--emit-reference"],
                        os.path.join(WORK, "reference-%s" % w))
        if proc.returncode != 0:
            sys.exit(proc.returncode)
        digests.update(json.loads(proc.stdout)["digests"])
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump({"schema": "perfbench-reference-v1",
                   "digests": dict(sorted(digests.items()))}, f, indent=2)
        f.write("\n")


def self_test():
    build(["perfbench_test"])
    sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_test")]).returncode)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args()
    if args.self_test:
        self_test()
    elif args.write_reference:
        write_reference()
    elif args.workload:
        run(args)
    else:
        p.error("--workload is required")


if __name__ == "__main__":
    main()
