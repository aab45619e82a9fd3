#!/usr/bin/env python3
"""Time the validity scanner.

Runs the dominant acceptance workloads: frame-formula validity over all
valuations (2^25 per 5-world frame for the largest formula) and the depth
axioms, one frame per scan.  A last row times many small scans, where the
cost of each call rather than of each valuation shows: 1- and 2-variable
formulas valid on every 2-roach, each compiled once and scanned on the 95
2-roaches of at most 6 worlds (at most 2^12 valuations) as the decide
queries scan them, the frames of one size in batches of
``_scan_py.batch_size`` side by side in one pass.  Each row gives the
scans, the frames they covered, the seconds, the scans and the frames per
second and the valuations per second; a scan covers 2^(k*n) valuations per
frame when the formula is valid on its frames, else its least refuting
index plus one.

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
    """(name, formulas, frames, passes over the frames, batched) per row."""
    frames5 = list(F.enumerate_frames(5, "2-roach"))
    rooted5 = list(F.enumerate_frames(5, "rooted"))
    roaches6 = [f for n in range(1, 7) for f in F.enumerate_frames(n, "2-roach")]
    return [
        ("chi_F1 on 5-world 2-roaches", [fm.fine_jankov(R.builtin("F1"))],
         frames5[: 4 if quick else len(frames5)], 1, False),
        ("chi_F3 on 5-world 2-roaches", [fm.fine_jankov(R.builtin("F3"))],
         frames5[: 2 if quick else 8], 1, False),
        ("bd_4 on 5-world rooted frames", [fm.axiom("bd", 4)],
         rooted5[: 8 if quick else len(rooted5)], 1, False),
        ("1-2 vars on 2-roaches of <= 6 worlds, batched",
         [fm.parse(t) for t in SMALL_SCAN_FORMULAS], roaches6, 2 if quick else 20, True),
    ]


def batches(program, frames, batched):
    """The frames' up masks in the batches one scan covers: consecutive
    frames of one size, ``batch_size`` at a time, or one frame each."""
    out = []
    for frame in frames:
        last = out[-1] if out else None
        if (batched and last and last[0] == frame.size
                and len(last[1]) < _scan_py.batch_size(program.n_vars * frame.size, frame.size)):
            last[1].append(frame.up)
        else:
            out.append((frame.size, [frame.up]))
    return out


def run(jobs):
    """(workload, scans, frames, seconds, valuations scanned) per job."""
    rows = []
    for name, formulas, frames, passes, batched in jobs:
        programs = [compile_formula(phi) for phi in formulas]
        work = [(program, n, ups) for program in programs for n, ups in batches(program, frames, batched)]
        indices = []
        start = time.perf_counter()
        for _ in range(passes):
            for program, n, ups in work:
                indices.append(_scan_py.find_batch_refuting_index(ups, n, program))
        elapsed = time.perf_counter() - start
        valuations = sum(len(ups) << (program.n_vars * n) if index < 0 else index + 1
                         for (program, n, ups), index in zip(work * passes, indices))
        n_frames = sum(len(ups) for _, _, ups in work) * passes
        rows.append((name, len(indices), n_frames, elapsed, valuations))
    return rows


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--json", action="store_true", help="print one JSON result line")
    args = parser.parse_args()

    results = run(workload(args.quick))
    if args.json:
        print(json.dumps({"quick": args.quick, "workloads": [
            {"workload": name, "scans": scans, "frames": frames, "valuations": valuations,
             "seconds": seconds, "scans_per_s": scans / seconds, "frames_per_s": frames / seconds,
             "valuations_per_s": valuations / seconds}
            for name, scans, frames, seconds, valuations in results]}))
        return
    width = max(len(name) for name, *_ in results)
    header = (f"{'workload':<{width}}  {'scans':>6}  {'frames':>6}  {'seconds':>9}  {'scans/s':>9}"
              f"  {'frames/s':>9}  {'val/s':>10}")
    print(header)
    print("-" * len(header))
    for name, scans, frames, seconds, valuations in results:
        print(f"{name:<{width}}  {scans:>6}  {frames:>6}  {seconds:>8.2f}s  {scans / seconds:>9.0f}"
              f"  {frames / seconds:>9.0f}  {valuations / seconds:>10.3e}")


if __name__ == "__main__":
    main()
