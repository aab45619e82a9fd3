import random
from collections import defaultdict

import pytest

from conftest import (naive_frames_validate, perfbench_decide_queries, random_formula,
                      reference_scan_decide_lr2)
from roachkit import _tableau as T
from roachkit import decision as D
from roachkit import formulas as fm
from roachkit import frames as F
from roachkit.errors import BudgetExceededError


def test_every_proof_validates_on_every_frame_of_at_most_four_worlds():
    # A formula refuted on a frame is refuted at the root of a generated
    # subframe, so the rooted classes stand for every frame.  The proved
    # formulas over one set of variables are checked as one conjunction,
    # which is valid exactly when each of them is.
    rng = random.Random(3)
    formulas = [random_formula(rng, 3, [f"p{i}" for i in range(rng.randint(1, 3))])
                for _ in range(1500)]
    proved = {fm.render(phi): phi for phi in formulas if T.s4_valid(phi)}
    by_variables = defaultdict(list)
    for phi in proved.values():
        by_variables[fm.variables(phi)].append(phi)
    assert len(proved) == 155
    assert {len(names) for names in by_variables} == {1, 2, 3}
    # at most 7 frames of a size per union: naive_extension rebuilds the
    # union's upsets, quadratic in its worlds, on every call
    unions = []
    for n in range(1, 5):
        frames = list(F.enumerate_frames(n, "rooted"))
        unions += [frames[s:s + 7] for s in range(0, len(frames), 7)]
    for names, group in by_variables.items():
        for frames in unions:
            for frame, valid in zip(frames, naive_frames_validate(frames, fm.conj(group))):
                assert valid, (names, frame)


@pytest.mark.parametrize("text, valid", [
    ("[]p -> p", True),
    ("[]p -> [][]p", True),
    ("[](p -> q) -> ([]p -> []q)", True),
    ("p -> <>p", True),
    ("p -> (q -> p)", True),
    ("<>T", True),
    ("F -> p", True),
    ("[]F -> p", True),
    ("<><>p -> <>p", True),
    ("F", False),
    ("[]<>p -> <>[]p", False),
    ("<>[]p -> []<>p", False),
    ("[]([](p -> []p) -> p) -> p", False),
    ("<>p -> []<>p", False),
    ("p -> []<>p", False),
    *[(fm.render(fm.axiom("bd", n)), False) for n in (1, 2, 3)],
])
def test_pinned_verdicts(text, valid):
    assert T.s4_valid(fm.parse(text)) is valid


def _schema_instances():
    """``(phi, bound, in S4)`` for seeded substitution instances of T, 4,
    K, D, W (S4 theorems) and McKinsey (not one), with a bound up to 6
    that keeps each scan small."""
    rng = random.Random(23)
    schemata = (lambda a, b: fm.Implies(fm.Box(a), a),
                lambda a, b: fm.Implies(fm.Box(a), fm.Box(fm.Box(a))),
                lambda a, b: fm.Implies(fm.Box(fm.Implies(a, b)), fm.Implies(fm.Box(a), fm.Box(b))),
                lambda a, b: fm.Implies(a, fm.Diamond(a)),
                lambda a, b: fm.Implies(a, fm.Implies(b, a)),
                lambda a, b: fm.Implies(fm.Box(fm.Diamond(a)), fm.Diamond(fm.Box(a))))
    bounds = {1: 6, 2: 6, 3: 5, 4: 4}
    for k in (1, 2, 3, 4):
        names = [f"p{i}" for i in range(k)]
        for i, schema in enumerate(schemata * 2):
            phi = schema(random_formula(rng, 3, names), random_formula(rng, 2, names[:2]))
            yield phi, bounds[len(fm.variables(phi))], i % len(schemata) < 5


def _scanned_sizes(monkeypatch):
    """The size of each frame ``decide_lr2`` scans from now on."""
    sizes = []
    one = D.find_refutation
    monkeypatch.setattr(D, "find_refutation",
                        lambda frame, phi: sizes.append(frame.size) or one(frame, phi))
    return sizes


def _check_against_the_scan(phi, bound, sizes):
    """Whether the tableau proves ``phi``, after checking that
    ``decide_lr2`` gives the scan's verdict and, for a proved formula,
    scans the one-world frame alone."""
    sizes.clear()
    verdict = D.decide_lr2(phi, bound)
    assert repr(verdict) == repr(reference_scan_decide_lr2(phi, bound)), fm.render(phi)
    proved = T.s4_valid(phi)
    if proved:
        assert sizes == [1], fm.render(phi)
    return proved


def test_perfbench_verdicts_match_the_scan(monkeypatch):
    queries = perfbench_decide_queries(monkeypatch)
    sizes = _scanned_sizes(monkeypatch)
    # frame formulas keep the permissibility route
    proved = [_check_against_the_scan(phi, bound, sizes) for phi, bound in queries
              if fm.jankov_frame(phi) is None]
    # of each seed's 40 clean searches, 34 and 33 are S4 theorems
    assert (len(proved), sum(proved)) == (2 * 164 - 6, 34 + 33)


def test_schema_instance_verdicts_match_the_scan(monkeypatch):
    sizes = _scanned_sizes(monkeypatch)
    kinds = set()
    for phi, bound, in_s4 in _schema_instances():
        proved = _check_against_the_scan(phi, bound, sizes)
        assert proved or not in_s4, fm.render(phi)
        kinds.add((in_s4, proved))
    assert kinds == {(True, True), (False, True), (False, False)}


def test_frame_formulas_never_reach_the_tableau(monkeypatch):
    monkeypatch.setattr(T, "s4_valid", lambda phi: pytest.fail("tableau tried"))
    for chi in D.lr2_axioms()[1:]:
        assert D.decide_lr2(chi, 3) == D.NoCountermodelUpTo(3)


def _chain(op, phi, n):
    for _ in range(n):
        phi = op(phi)
    return phi


@pytest.mark.parametrize("phi", [
    fm.Implies(_chain(fm.Box, fm.Var("p"), 5000), fm.Var("p")),
    fm.Implies(_chain(fm.Diamond, fm.Var("p"), 5000), fm.Diamond(fm.Var("p"))),
], ids=["box", "diamond"])
def test_deep_theorems_are_proved_without_recursion(monkeypatch, phi):
    sizes = _scanned_sizes(monkeypatch)
    assert D.decide_lr2(phi, 8) == D.NoCountermodelUpTo(8)
    assert sizes == [1]


def _branching_theorem(n):
    """An S4 theorem in p and q whose tableau splits n times before each
    branch closes: ~((<><>p | <><>q) & ... & (<>^(n+1) p | <>^(n+1) q) &
    []~p & []~q).  The disjuncts start at two diamonds, so that none is the
    negation of a box."""
    p, q = fm.Var("p"), fm.Var("q")
    parts, dp, dq = [], fm.Diamond(p), fm.Diamond(q)
    for _ in range(n):
        dp, dq = fm.Diamond(dp), fm.Diamond(dq)
        parts.append(fm.Or(dp, dq))
    return fm.Not(fm.conj(parts + [fm.Box(fm.Not(p)), fm.Box(fm.Not(q))]))


def test_an_exhausted_budget_falls_back_to_the_scan(monkeypatch):
    phi = _branching_theorem(12)
    assert T.s4_valid(phi) is False
    with monkeypatch.context() as patch:
        patch.setattr(T, "_STEP_BUDGET", 1 << 30)
        assert T.s4_valid(phi) is True
    sizes = _scanned_sizes(monkeypatch)
    assert D.decide_lr2(phi, 4) == reference_scan_decide_lr2(phi, 4) == D.NoCountermodelUpTo(4)
    assert max(sizes) == 4


def test_queries_over_the_scan_budget_still_raise():
    # fourteen variables fit on one world, not on two, so the proof is not
    # tried and the scan raises as it did without it
    many = fm.conj([fm.parse(f"p{i} -> p{i}") for i in range(14)])
    assert T.s4_valid(many)
    with pytest.raises(BudgetExceededError):
        D.decide_lr2(many, 2)
