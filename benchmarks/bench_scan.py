#!/usr/bin/env python3
"""Time the validity scanner.

Runs the dominant acceptance workloads: frame-formula validity over all
valuations (2^25 per 5-world frame for the largest formula) and the depth
axioms.  A last row times many small scans, where the cost of each call
rather than of each valuation shows: 1- and 2-variable formulas valid on
every 2-roach, each compiled once and scanned on the 95 2-roaches of at
most 6 worlds (at most 2^12 valuations), as the decide queries scan them.
Each row gives the scans, the seconds, the scans per second and the
valuations per second; a scan covers 2^(k*n) valuations when the formula is
valid on the frame, else its least refuting index plus one.

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


# valid on every 2-roach, so each small scan covers its whole space
SMALL_SCAN_FORMULAS = ("[]p -> p", "[]p -> [][]p", "<>[]p -> []<>p",
                       "[](p -> q) -> ([]p -> []q)", "p -> (q -> p)", "[](p & q) -> <>q")


def workload(quick):
    """(name, formulas, frames, passes over the frames) per row."""
    frames5 = list(F.enumerate_frames(5, "2-roach"))
    rooted5 = list(F.enumerate_frames(5, "rooted"))
    roaches6 = [f for n in range(1, 7) for f in F.enumerate_frames(n, "2-roach")]
    return [
        ("chi_F1 on 5-world 2-roaches", [fm.fine_jankov(R.builtin("F1"))],
         frames5[: 4 if quick else len(frames5)], 1),
        ("chi_F3 on 5-world 2-roaches", [fm.fine_jankov(R.builtin("F3"))],
         frames5[: 2 if quick else 8], 1),
        ("bd_4 on 5-world rooted frames", [fm.axiom("bd", 4)],
         rooted5[: 8 if quick else len(rooted5)], 1),
        ("1-2 vars on 2-roaches of <= 6 worlds", [fm.parse(t) for t in SMALL_SCAN_FORMULAS],
         roaches6, 2 if quick else 20),
    ]


def run(jobs):
    """(workload, scans, seconds, valuations scanned) per job."""
    rows = []
    for name, formulas, frames, passes in jobs:
        programs = [compile_formula(phi) for phi in formulas]
        indices = []
        start = time.perf_counter()
        for _ in range(passes):
            for program in programs:
                for frame in frames:
                    indices.append(_scan_py.find_refuting_index(frame.up, frame.size, program))
        elapsed = time.perf_counter() - start
        bits = [program.n_vars * frame.size for program in programs for frame in frames] * passes
        valuations = sum(1 << kn if index < 0 else index + 1 for kn, index in zip(bits, indices))
        rows.append((name, len(indices), elapsed, valuations))
    return rows


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--json", action="store_true", help="print one JSON result line")
    args = parser.parse_args()

    results = run(workload(args.quick))
    if args.json:
        print(json.dumps({"quick": args.quick, "workloads": [
            {"workload": name, "scans": scans, "valuations": valuations, "seconds": seconds,
             "scans_per_s": scans / seconds, "valuations_per_s": valuations / seconds}
            for name, scans, seconds, valuations in results]}))
        return
    width = max(len(name) for name, _, _, _ in results)
    header = f"{'workload':<{width}}  {'scans':>6}  {'seconds':>9}  {'scans/s':>9}  {'val/s':>10}"
    print(header)
    print("-" * len(header))
    for name, scans, seconds, valuations in results:
        print(f"{name:<{width}}  {scans:>6}  {seconds:>8.2f}s  {scans / seconds:>9.0f}"
              f"  {valuations / seconds:>10.3e}")


if __name__ == "__main__":
    main()
