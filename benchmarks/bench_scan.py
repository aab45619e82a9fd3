#!/usr/bin/env python3
"""Time the validity scanner.

Runs the dominant acceptance workloads: frame-formula validity over all
valuations (2^25 per 5-world frame for the largest formula) and the depth
axioms.  A fourth row times many small scans, where the cost of each call
rather than of each valuation shows: 1- and 2-variable formulas valid on
every 2-roach, each compiled once and scanned on the 95 2-roaches of at
most 6 worlds (at most 2^12 valuations), as the decide queries scan them.
Every scan covers one frame.  Each row gives the scans, the seconds, the
scans per second and the valuations per second; a scan covers 2^(k*n)
valuations when the formula is valid on its frame, else its least refuting
index plus one.

A further line times point queries: seeded random formulas of 6 binary and 6
unary connectives over 1 to 4 variables, each refuted on the one-world
frame, decided end to end by ``decision.decide_lr2`` at bound 4.  Such a
query stops at its first frame, so its time is a query's fixed cost:
walking, compiling and planning the formula, one small scan, and the
re-check of its countermodel.  Every call gets a freshly parsed formula
(parsed outside the timing), and the line gives the median microseconds
per query.

Another line times S4 theorems: seeded substitution instances of T, 4, K,
``p -> <>p`` and ``p -> (q -> p)`` over 1 to 4 variables, decided end to
end at the bound the perfbench decide workload gives their variable count
(6, 6, 5, 4).  ``decide_lr2`` settles each by a closed S4 tableau after
scanning the one-world frame; the line gives the median microseconds per
query, each formula freshly parsed as above.

The last line times L_2 axiom instances: each axiom of
``decision.lr2_axioms`` at the bound the perfbench decide workload gives
it (ma 6, chi_F1 and chi_F2 5, chi_F3 4), seeded instances of chi_F with
each variable replaced by a random formula over p and q at the same
bound, and seeded instances of ma over 1 to 4 variables at the bound of
their variable count.  ``decide_lr2`` settles each as an axiom instance
after scanning the one-world frame; the line gives the median
microseconds per query, each formula freshly parsed as above.

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
S4_THEOREM_ROW = "decide_lr2 on S4 theorems"
AXIOM_INSTANCE_ROW = "decide_lr2 on L_2 axiom instances"
# the perfbench decide workload's bound per variable count
BOUND_FOR_VARS = {1: 6, 2: 6, 3: 5, 4: 4}
# S4 theorems, as functions of two formulas
S4_SCHEMATA = (lambda a, b: fm.Implies(fm.Box(a), a),
               lambda a, b: fm.Implies(fm.Box(a), fm.Box(fm.Box(a))),
               lambda a, b: fm.Implies(fm.Box(fm.Implies(a, b)), fm.Implies(fm.Box(a), fm.Box(b))),
               lambda a, b: fm.Implies(a, fm.Diamond(a)),
               lambda a, b: fm.Implies(a, fm.Implies(b, a)))

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
        ("1-2 vars on 2-roaches of <= 6 worlds",
         [fm.parse(t) for t in SMALL_SCAN_FORMULAS], roaches6, 2 if quick else 20),
    ]


def run(jobs):
    """(workload, scans, seconds, valuations scanned) per job."""
    rows = []
    for name, formulas, frames, passes in jobs:
        work = [(compile_formula(phi), frame) for phi in formulas for frame in frames]
        indices = []
        start = time.perf_counter()
        for _ in range(passes):
            for program, frame in work:
                indices.append(_scan_py.find_refuting_index(frame.up, frame.size, program))
        elapsed = time.perf_counter() - start
        valuations = sum(1 << (program.n_vars * frame.size) if index < 0 else index + 1
                         for (program, frame), index in zip(work * passes, indices))
        rows.append((name, len(indices), elapsed, valuations))
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
    """(queries, passes): seeded formulas refuted on the one-world frame,
    each with the bound 4."""
    rng, point, queries = random.Random(1), R.builtin("point"), []
    while len(queries) < (20 if quick else 120):
        names = ["p", "q", "r", "s"][: 1 + len(queries) % 4]
        phi = _random_formula(rng, names, 6, 6)
        if S.find_refutation(point, phi) is not None:
            queries.append((fm.render(phi), 4))
    return queries, 2 if quick else 20


def s4_theorems(quick):
    """(queries, passes): seeded instances of ``S4_SCHEMATA``, each with
    the bound of its variable count."""
    rng, queries = random.Random(2), []
    for k in (1, 2, 3, 4):
        names = ["p", "q", "r", "s"][:k]
        for schema in S4_SCHEMATA * (1 if quick else 4):
            a = _random_formula(rng, names, 3, 3)
            b = _random_formula(rng, names[:2], 1, 1)
            phi = schema(a, b)
            queries.append((fm.render(phi), BOUND_FOR_VARS[len(fm.variables(phi))]))
    return queries, 2 if quick else 20


def _substitute(phi, sub):
    """``phi`` with each variable ``name`` replaced by ``sub[name]``."""
    done = {}
    for f in fm.postorder(phi):
        kind = type(f)
        done[id(f)] = sub[f.name] if kind is fm.Var else kind(
            *(done[id(getattr(f, name))] for name in kind.__match_args__))
    return done[id(phi)]


def axiom_instances(quick):
    """(queries, passes): the L_2 axioms and seeded instances of them,
    each with its perfbench bound."""
    rng, queries = random.Random(3), []
    ma, *chis = D.lr2_axioms()
    queries.append((fm.render(ma), 6))
    for k in (1, 2, 3, 4):
        for _ in range(1 if quick else 4):
            a = _random_formula(rng, ["p", "q", "r", "s"][:k], 3, 3)
            phi = _substitute(ma, {"p": a})
            queries.append((fm.render(phi), BOUND_FOR_VARS[len(fm.variables(phi))]))
    for chi, bound in zip(chis, (5, 5, 4)):
        queries.append((fm.render(chi), bound))
        for _ in range(1 if quick else 3):
            sub = {v: _random_formula(rng, ["p", "q"], 1, 1) for v in fm.variables(chi)}
            queries.append((fm.render(_substitute(chi, sub)), bound))
    return queries, 2 if quick else 20


def run_queries(queries, passes, expected):
    """(queries, seconds, median microseconds per query); each verdict must
    satisfy ``expected``."""
    times = []
    for _ in range(passes):
        for text, bound in queries:
            phi = fm.parse(text)
            start = time.perf_counter()
            verdict = D.decide_lr2(phi, bound)
            times.append(time.perf_counter() - start)
            assert expected(verdict, bound), (text, verdict)
    return len(times), sum(times), statistics.median(times) * 1e6


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--json", action="store_true", help="print one JSON result line")
    args = parser.parse_args()

    results = run(workload(args.quick))
    query_rows = [
        (POINT_QUERY_ROW, "point_queries", *run_queries(
            *point_queries(args.quick), lambda verdict, bound: verdict.model.frame.size == 1)),
        (S4_THEOREM_ROW, "s4_theorems", *run_queries(
            *s4_theorems(args.quick), lambda verdict, bound: verdict == D.NoCountermodelUpTo(bound))),
        (AXIOM_INSTANCE_ROW, "axiom_instances", *run_queries(
            *axiom_instances(args.quick), lambda verdict, bound: verdict == D.NoCountermodelUpTo(bound))),
    ]
    if args.json:
        print(json.dumps({"quick": args.quick, "workloads": [
            {"workload": name, "scans": scans, "valuations": valuations, "seconds": seconds,
             "scans_per_s": scans / seconds, "valuations_per_s": valuations / seconds}
            for name, scans, seconds, valuations in results],
            **{key: {"workload": name, "queries": queries, "seconds": seconds, "us_per_query": us}
               for name, key, queries, seconds, us in query_rows}}))
        return
    width = max(len(name) for name, *_ in results)
    header = f"{'workload':<{width}}  {'scans':>6}  {'seconds':>9}  {'scans/s':>9}  {'val/s':>10}"
    print(header)
    print("-" * len(header))
    for name, scans, seconds, valuations in results:
        print(f"{name:<{width}}  {scans:>6}  {seconds:>8.2f}s  {scans / seconds:>9.0f}"
              f"  {valuations / seconds:>10.3e}")
    for name, _, queries, seconds, us in query_rows:
        print(f"{name}: {queries} queries in {seconds:.2f}s, median {us:.1f} us per query")


if __name__ == "__main__":
    main()
