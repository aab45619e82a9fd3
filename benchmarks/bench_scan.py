#!/usr/bin/env python3
"""Time the validity scanner.

Runs the dominant acceptance workloads: frame-formula validity over all
valuations (2^25 per 5-world frame for the largest formula) and the depth
axioms, one frame per scan.  A fourth row times many small scans, where the
cost of each call rather than of each valuation shows: 1- and 2-variable
formulas valid on every 2-roach, each compiled once and scanned on the 95
2-roaches of at most 6 worlds (at most 2^12 valuations) as the decide
queries scan them, the frames of one size in batches of
``_scan_py.batch_size`` side by side in one pass.  Each row gives the
scans, the frames they covered, the seconds, the scans and the frames per
second and the valuations per second; a scan covers 2^(k*n) valuations per
frame when the formula is valid on its frames, else its least refuting
index plus one.

A last line times point queries: seeded random formulas of 6 binary and 6
unary connectives over 1 to 4 variables, each refuted on the one-world
frame, decided end to end by ``decision.decide_lr2`` at bound 4.  Such a
query stops at its first frame, so its time is a query's fixed cost:
walking, compiling and planning the formula, one small scan, and the
re-check of its countermodel.  Every call gets a freshly parsed formula
(parsed outside the timing), and the line gives the median microseconds
per query.

    PYTHONPATH=src python benchmarks/bench_scan.py [--quick] [--json]

``--json`` prints one JSON line instead of the table.
"""

import argparse
import json
import random
import statistics
import time

from roachkit import _scan_py
from roachkit import decision as D
from roachkit import formulas as fm
from roachkit import frames as F
from roachkit import roach as R
from roachkit import semantics as S
from roachkit._program import compile_formula


POINT_QUERY_ROW = "decide_lr2 point queries, freshly parsed"

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


def _random_formula(rng, names, n_binary, n_unary):
    """A formula with exactly the given connective counts over ``names``."""
    parts = [fm.Var(rng.choice(names)) for _ in range(n_binary + 1)]
    steps = ["binary"] * n_binary + ["unary"] * n_unary
    rng.shuffle(steps)
    for step in steps:
        if step == "binary":
            left = parts.pop(rng.randrange(len(parts)))
            right = parts.pop(rng.randrange(len(parts)))
            parts.append(rng.choice((fm.And, fm.Or, fm.Implies))(left, right))
        else:
            i = rng.randrange(len(parts))
            parts[i] = rng.choice((fm.Not, fm.Box, fm.Diamond))(parts[i])
    return parts[0]


def point_queries(quick):
    """(texts, passes): seeded formulas refuted on the one-world frame."""
    rng, point, texts = random.Random(1), R.builtin("point"), []
    while len(texts) < (20 if quick else 120):
        names = ["p", "q", "r", "s"][: 1 + len(texts) % 4]
        phi = _random_formula(rng, names, 6, 6)
        if S.find_refutation(point, phi) is not None:
            texts.append(fm.render(phi))
    return texts, 2 if quick else 20


def run_point_queries(texts, passes):
    """(queries, seconds, median microseconds per query)."""
    times = []
    for _ in range(passes):
        for text in texts:
            phi = fm.parse(text)
            start = time.perf_counter()
            verdict = D.decide_lr2(phi, 4)
            times.append(time.perf_counter() - start)
            assert verdict.model.frame.size == 1
    return len(times), sum(times), statistics.median(times) * 1e6


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--json", action="store_true", help="print one JSON result line")
    args = parser.parse_args()

    results = run(workload(args.quick))
    queries, query_seconds, us_per_query = run_point_queries(*point_queries(args.quick))
    if args.json:
        print(json.dumps({"quick": args.quick, "workloads": [
            {"workload": name, "scans": scans, "frames": frames, "valuations": valuations,
             "seconds": seconds, "scans_per_s": scans / seconds, "frames_per_s": frames / seconds,
             "valuations_per_s": valuations / seconds}
            for name, scans, frames, seconds, valuations in results],
            "point_queries": {"workload": POINT_QUERY_ROW, "queries": queries,
                              "seconds": query_seconds, "us_per_query": us_per_query}}))
        return
    width = max(len(name) for name, *_ in results)
    header = (f"{'workload':<{width}}  {'scans':>6}  {'frames':>6}  {'seconds':>9}  {'scans/s':>9}"
              f"  {'frames/s':>9}  {'val/s':>10}")
    print(header)
    print("-" * len(header))
    for name, scans, frames, seconds, valuations in results:
        print(f"{name:<{width}}  {scans:>6}  {frames:>6}  {seconds:>8.2f}s  {scans / seconds:>9.0f}"
              f"  {frames / seconds:>9.0f}  {valuations / seconds:>10.3e}")
    print(f"{POINT_QUERY_ROW}: {queries} queries in {query_seconds:.2f}s,"
          f" median {us_per_query:.1f} us per query")


if __name__ == "__main__":
    main()
