#!/usr/bin/env python3
"""Compare the pure big-int validity scanner against the compiled one.

Runs the dominant acceptance workloads: frame-formula validity over all
valuations (2^25 per 5-world frame for the largest formula) and the depth
axioms.  Each row gives the seconds and the valuations per second of every
kernel; a scan covers 2^(k*n) valuations when the formula is valid on the
frame, else its least refuting index plus one.

    PYTHONPATH=src python benchmarks/bench_scan.py [--quick] [--json]

``--json`` prints one JSON line instead of the table.
"""

import argparse
import json
import time

from roachkit import _scan_py
from roachkit import formulas as fm
from roachkit import frames as F
from roachkit import roach as R
from roachkit._program import compile_formula

try:
    from roachkit import _scan as _scan_c
except ImportError:
    _scan_c = None


def workload(quick):
    frames5 = list(F.enumerate_frames(5, "2-roach"))
    rooted5 = list(F.enumerate_frames(5, "rooted"))
    jobs = [
        ("chi_F1 on 5-world 2-roaches", fm.fine_jankov(R.builtin("F1")),
         frames5[: 4 if quick else len(frames5)]),
        ("chi_F3 on 5-world 2-roaches", fm.fine_jankov(R.builtin("F3")),
         frames5[: 2 if quick else 8]),
        ("bd_4 on 5-world rooted frames", fm.axiom("bd", 4),
         rooted5[: 8 if quick else len(rooted5)]),
    ]
    return jobs


def run(backend, jobs):
    """(workload, frames, seconds, valuations scanned) per job."""
    rows = []
    for name, phi, frames in jobs:
        program = compile_formula(phi)
        indices = []
        start = time.perf_counter()
        for frame in frames:
            indices.append(backend.find_refuting_index(frame.up, frame.size, program))
        elapsed = time.perf_counter() - start
        valuations = sum(1 << (program.n_vars * frame.size) if index < 0 else index + 1
                         for frame, index in zip(frames, indices))
        rows.append((name, len(frames), elapsed, valuations))
    return rows


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--json", action="store_true", help="print one JSON result line")
    args = parser.parse_args()

    jobs = workload(args.quick)
    backends = [("pure", _scan_py)]
    if _scan_c is not None:
        backends.append(("compiled", _scan_c))
    elif not args.json:
        print("compiled backend not built; showing pure only")

    results = {name: run(module, jobs) for name, module in backends}
    if args.json:
        print(json.dumps({"quick": args.quick, "workloads": [
            {"workload": job_name, "frames": len(frames),
             "valuations": results["pure"][i][3],
             **{f"{n}_s": results[n][i][2] for n, _ in backends},
             **{f"{n}_valuations_per_s": results[n][i][3] / results[n][i][2] for n, _ in backends}}
            for i, (job_name, _, frames) in enumerate(jobs)]}))
        return
    width = max(len(job[0]) for job in jobs)
    header = (f"{'workload':<{width}}  frames  " + "  ".join(f"{n:>9}" for n, _ in backends)
              + "  " + "  ".join(f"{n + ' val/s':>14}" for n, _ in backends))
    print(header)
    print("-" * len(header))
    for i, (job_name, _, _) in enumerate(jobs):
        row = [f"{results[n][i][2]:>8.2f}s" for n, _ in backends]
        rates = [f"{results[n][i][3] / results[n][i][2]:>14.3e}" for n, _ in backends]
        print(f"{job_name:<{width}}  {results[backends[0][0]][i][1]:>6}  " + "  ".join(row)
              + "  " + "  ".join(rates))
    if _scan_c is not None:
        total_pure = sum(t for _, _, t in results["pure"])
        total_fast = sum(t for _, _, t in results["compiled"])
        print(f"\nspeedup: {total_pure / total_fast:.1f}x")


if __name__ == "__main__":
    main()
