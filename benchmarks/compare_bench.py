#!/usr/bin/env python3
"""Record perfbench runs into a BENCH file, or compare two BENCH files.

    python3 benchmarks/compare_bench.py --record BENCH_<sha>.json [--root DIR]
    python3 benchmarks/compare_bench.py BENCH_<parent>.json BENCH_<change>.json

A BENCH file is a JSON list with one entry per perfbench run: the run's
metadata line and result line merged, ``{"meta": ..., "correct": ...,
"metrics": ...}``.  ``--record`` makes one 35 s run of every workload for seeds
1 and 7919, at ``--trace 0`` and ``--trace 1``, from the source checkout
``--root`` (default: this one).  Comparing refuses two files whose runs differ
in length or core count; otherwise it prints, for each workload, seed and
metric, the median over the file's runs on each side and the ratio
change/parent.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS, SEEDS, TRACES, SECONDS = ("decide", "census", "cli"), (1, 7919), (0, 1), 35


def record(out, root):
    runs = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            for trace in TRACES:
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                       str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
                lines = subprocess.run(cmd, cwd=root, check=True, capture_output=True,
                                       text=True).stdout.strip().splitlines()
                runs.append({**json.loads(lines[-2]), **json.loads(lines[-1])})
    with open(out, "w") as handle:
        json.dump(runs, handle, indent=1)
        handle.write("\n")


def medians(path):
    values, settings = {}, set()
    with open(path) as handle:
        for run in json.load(handle):
            settings.add((run["meta"]["seconds"], run["meta"]["nproc"]))
            for name, metric in run["metrics"].items():
                key = (run["meta"]["workload"], run["meta"]["seed"], name)
                values.setdefault(key, []).append(metric["value"])
    return settings, {key: statistics.median(vals) for key, vals in values.items()}


def compare(parent_path, change_path):
    (parent_runs, parent), (change_runs, change) = medians(parent_path), medians(change_path)
    if len(parent_runs | change_runs) != 1:
        sys.exit(f"runs differ in (seconds, nproc): {sorted(parent_runs)} vs {sorted(change_runs)}")
    print(f"{'workload':<8} {'seed':>5}  {'metric':<34} {'parent':>11} {'change':>11}  ratio")
    for key in sorted(parent.keys() & change.keys()):
        before, after = parent[key], change[key]
        ratio = f"{after / before:.3f}" if before else "-"
        print(f"{key[0]:<8} {key[1]:>5}  {key[2]:<34} {before:>11.4g} {after:>11.4g}  {ratio}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", metavar="BENCH", help="parent and change files")
    parser.add_argument("--record", metavar="OUT", help="run perfbench and write OUT")
    parser.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    args = parser.parse_args()
    if args.record:
        record(args.record, args.root)
    elif len(args.files) == 2:
        compare(*args.files)
    else:
        parser.error("give two BENCH files, or --record OUT")


if __name__ == "__main__":
    main()
