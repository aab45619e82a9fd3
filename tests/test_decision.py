import random

import pytest

from conftest import reference_decide_lr2
from roachkit import decision as D
from roachkit import formulas as fm
from roachkit import frames as F
from roachkit import roach as R
from roachkit import semantics as S
from roachkit.errors import CeilingExceededError


def test_axioms_shape():
    axioms = D.lr2_axioms()
    assert len(axioms) == 4
    assert axioms[0] == fm.axiom("ma")
    assert axioms[1] == fm.fine_jankov(R.builtin("F1"))
    assert axioms[2] == fm.fine_jankov(R.builtin("F2"))
    assert axioms[3] == fm.fine_jankov(R.builtin("F3"))


def test_geach_refuted_on_two_fork():
    verdict = D.decide_lr2(fm.axiom("ga"), 3)
    assert isinstance(verdict, D.Refuted)
    assert F.are_isomorphic(verdict.model.frame, R.builtin("two_fork"))
    assert verdict.model.frame.up == (7, 2, 4)  # as the decide CLI prints it
    _assert_refutation_checks(verdict, fm.axiom("ga"))


def test_bd2_refuted_on_chain3():
    verdict = D.decide_lr2(fm.axiom("bd", 2), 4)
    assert isinstance(verdict, D.Refuted)
    assert F.are_isomorphic(verdict.model.frame, R.builtin("chain", 3))
    _assert_refutation_checks(verdict, fm.axiom("bd", 2))


def test_mckinsey_has_no_small_countermodel():
    assert D.decide_lr2(fm.axiom("ma"), 4) == D.NoCountermodelUpTo(4)


def test_own_axioms_have_no_small_countermodels():
    for chi in D.lr2_axioms()[1:]:
        assert D.decide_lr2(chi, 4) == D.NoCountermodelUpTo(4)


def test_chi_g_separates_from_s41():
    chi_g = fm.fine_jankov(R.builtin("G"))
    assert D.decide_lr2(chi_g, 4) == D.NoCountermodelUpTo(4)
    assert not S.frame_validates(R.builtin("G"), chi_g)


def test_bound_validation():
    with pytest.raises(CeilingExceededError):
        D.decide_lr2(fm.axiom("ma"), 0)
    with pytest.raises(CeilingExceededError):
        D.decide_lr2(fm.axiom("ma"), 9)


def test_deterministic_verdicts():
    first = D.decide_lr2(fm.axiom("ga"), 3)
    second = D.decide_lr2(fm.axiom("ga"), 3)
    assert first == second


def _assert_refutation_checks(verdict, phi):
    assert R.is_2_roach(verdict.model.frame) is not None
    assert verdict.world not in S.extension(verdict.model, phi)


def _type_formula(frame, valuation, w, depth):
    """A formula true exactly at the worlds whose model looks like world
    ``w`` of ``(frame, valuation)`` to ``depth`` modal steps."""
    literals = [fm.Var(p) if w in worlds else fm.Not(fm.Var(p)) for p, worlds in valuation.items()]
    if depth == 0:
        return fm.conj(literals)
    above = [_type_formula(frame, valuation, v, depth - 1) for v in F.worlds_of(frame.up[w])]
    return fm.conj(literals + [fm.Diamond(t) for t in above] + [fm.Box(fm.disj(above))])


def test_verdicts_match_the_search_over_filtered_classes():
    # the negated type of a random model's root is refuted on frames of 1 to
    # 5 worlds, or on no 2-roach when its frame is not one
    rng = random.Random(17)
    pool = [f for n in range(1, 6) for f in F.enumerate_frames(n, "s41-rooted")]
    refuted_sizes = set()
    for i in range(50):
        frame = rng.choice(pool)
        valuation = {f"p{j}": {w for w in frame.worlds() if rng.random() < 0.5}
                     for j in range(1 + i % 3)}
        root = F.classify_frame(frame).roots[0]
        phi = fm.Not(_type_formula(frame, valuation, root, rng.randint(1, 3)))
        verdict, expected = D.decide_lr2(phi, 5), reference_decide_lr2(phi, 5)
        assert type(verdict) is type(expected)
        if isinstance(expected, D.NoCountermodelUpTo):
            assert verdict == expected
            continue
        size = expected.model.frame.size
        refuted_sizes.add(size)
        assert verdict.model.frame.size == size
        assert F.canonical_key(verdict.model.frame) == F.canonical_key(expected.model.frame)
        _assert_refutation_checks(verdict, phi)
        if size <= 4:  # same representative, so the same least refutation
            assert verdict == expected
    assert refuted_sizes == {1, 2, 3, 4, 5}
