#!/usr/bin/env python3
"""Time the validity scanner.

Runs the dominant acceptance workloads: frame-formula validity over all
valuations (2^25 per 5-world frame for the largest formula) and the depth
axioms.  Each row gives the seconds and the valuations per second; a scan
covers 2^(k*n) valuations when the formula is valid on the frame, else its
least refuting index plus one.

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


def run(jobs):
    """(workload, frames, seconds, valuations scanned) per job."""
    rows = []
    for name, phi, frames in jobs:
        program = compile_formula(phi)
        indices = []
        start = time.perf_counter()
        for frame in frames:
            indices.append(_scan_py.find_refuting_index(frame.up, frame.size, program))
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

    results = run(workload(args.quick))
    if args.json:
        print(json.dumps({"quick": args.quick, "workloads": [
            {"workload": name, "frames": frames, "valuations": valuations, "seconds": seconds,
             "valuations_per_s": valuations / seconds}
            for name, frames, seconds, valuations in results]}))
        return
    width = max(len(name) for name, _, _, _ in results)
    header = f"{'workload':<{width}}  frames  {'seconds':>9}  {'val/s':>10}"
    print(header)
    print("-" * len(header))
    for name, frames, seconds, valuations in results:
        print(f"{name:<{width}}  {frames:>6}  {seconds:>8.2f}s  {valuations / seconds:>10.3e}")


if __name__ == "__main__":
    main()
