import random

import pytest

from conftest import random_formula, reference_decide_lr2, reference_scan_decide_lr2
from roachkit import decision as D
from roachkit import formulas as fm
from roachkit import frames as F
from roachkit import morphisms as M
from roachkit import roach as R
from roachkit import semantics as S
from roachkit.errors import BudgetExceededError, CeilingExceededError


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


@pytest.mark.parametrize("index", [0, 1, 2, 3], ids=["ma", "chi_F1", "chi_F2", "chi_F3"])
def test_own_axioms_have_no_countermodel_up_to_the_ceiling(index):
    assert D.DECISION_CEILING == 8
    assert D.decide_lr2(D.lr2_axioms()[index], 8) == D.NoCountermodelUpTo(8)


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


def test_batched_search_matches_the_per_frame_scan():
    # decide_lr2 scans the frames of a size in batches; the reference scans
    # them one by one.  Seeded formulas of 0-4 variables, and the negated
    # type of the root of a random model on a 2-roach, which is refuted on
    # the frames with a world like it: often not the first of their size.
    rng = random.Random(29)
    bounds = {0: 6, 1: 6, 2: 6, 3: 5, 4: 4}
    cases = []
    for k in (0, 1, 2, 2, 3, 4):
        names = [f"p{i}" for i in range(k)]
        cases += [random_formula(rng, rng.randint(1, 4), names) for _ in range(4)]
        for _ in range(4 if k else 0):
            frame = rng.choice([f for n in range(2, bounds[k] + 1)
                                for f in F.enumerate_frames(n, "2-roach")])
            valuation = {p: {w for w in frame.worlds() if rng.random() < 0.5} for p in names}
            root = F.classify_frame(frame).roots[0]
            cases.append(fm.Not(_type_formula(frame, valuation, root, rng.randint(2, 3))))
    past_first = set()
    for phi in cases:
        bound = bounds[len(fm.variables(phi))]
        verdict = D.decide_lr2(phi, bound)
        assert repr(verdict) == repr(reference_scan_decide_lr2(phi, bound)), phi
        if isinstance(verdict, D.Refuted) and verdict.model.frame.size > 2:
            size = verdict.model.frame.size
            first = next(F.enumerate_frames(size, "2-roach"))
            if verdict.model.frame != first:
                past_first.add(size)
    assert past_first == {3, 4, 5, 6}, past_first


def test_route_matches_the_scan_over_two_roaches(small_frames):
    # the bound per world count of F keeps each scan of chi_F small
    bounds = {1: 8, 2: 7, 3: 6, 4: 5}
    kinds = set()
    for f in small_frames:
        chi = fm.fine_jankov(f)
        verdict = D.decide_lr2(chi, bounds[f.size])
        assert repr(verdict) == repr(reference_scan_decide_lr2(chi, bounds[f.size]))
        kinds.add(type(verdict))
    assert kinds == {D.Refuted, D.NoCountermodelUpTo}


def _single_host_verdicts(monkeypatch, small_frames, limit):
    """``(F, G, decide_lr2, reference scan)`` on chi_F for each rooted F of
    up to 4 worlds and each rooted G of up to 5 worlds with |F| * |G| <=
    limit, both searching G alone.  G need not be a 2-roach: the frame
    formula's contract holds on every finite frame.  Searches over all the
    2-roaches cannot tell a route that tries only G's root from the real
    one: 2-roaches are closed under generated subframes and are searched by
    size, so F is an image of the first refuting 2-roach itself."""
    hosts = [g for n in range(1, 6) for g in F.enumerate_frames(n, "rooted")]
    for f in small_frames:
        chi = fm.fine_jankov(f)
        for g in hosts:
            if f.size * g.size > limit:
                continue
            monkeypatch.setattr(D, "enumerate_frames",
                                lambda size, *_, g=g, **__: [g] if size == g.size else [])
            yield f, g, D.decide_lr2(chi, g.size), reference_scan_decide_lr2(chi, g.size)


def test_route_matches_the_scan_on_single_hosts(monkeypatch, small_frames):
    pairs = refuted = 0
    for f, g, verdict, expected in _single_host_verdicts(monkeypatch, small_frames, 16):
        assert repr(verdict) == repr(expected), (f, g)
        pairs += 1
        refuted += isinstance(expected, D.Refuted)
    assert (pairs, refuted) == (860, 292)


def test_single_host_check_catches_a_route_that_tries_only_the_root(monkeypatch, small_frames):
    def root_only(config, host):
        root = F.classify_frame(host).roots[0]
        sub, embedding = F.generated_subframe(host, root)
        pm = M.find_onto_p_morphism(sub, config)
        return None if pm is None else M.Permissibility(root, embedding, pm)

    monkeypatch.setattr(M, "is_permissible", root_only)
    verdicts = _single_host_verdicts(monkeypatch, small_frames, 10)
    missed = [(f, expected) for f, _, verdict, expected in verdicts
              if repr(verdict) != repr(expected)]
    # a two-world cluster is the image of a cluster above the host's root,
    # but not of the whole host when that also has a maximal point
    assert missed
    for f, expected in missed:
        assert f.up == (3, 3) and isinstance(expected, D.Refuted)


def test_over_budget_frame_formula_is_refuted_by_its_map():
    # six variables on six worlds would need 2^36 valuations
    chain6 = R.builtin("chain", 6)
    chi = fm.fine_jankov(chain6)
    verdict = D.decide_lr2(chi, 6)
    assert isinstance(verdict, D.Refuted)
    assert F.are_isomorphic(verdict.model.frame, chain6)
    _assert_refutation_checks(verdict, chi)
    witness = M.is_permissible(chain6, verdict.model.frame)
    assert verdict.world == witness.generator
    assert verdict.model.valuation == {
        f"p{w}": {witness.embedding[x] for x, v in enumerate(witness.morphism.mapping) if v == w}
        for w in chain6.worlds()}
    # any other formula too big to scan still raises: fourteen variables
    # fit on one world, not on two
    many = fm.conj([fm.parse(f"p{i} -> p{i}") for i in range(14)])
    with pytest.raises(BudgetExceededError):
        D.decide_lr2(many, 2)


def test_map_refutations_refute_on_the_frames_the_scan_finds(monkeypatch, small_frames):
    # with a budget of 2^6 valuations, frame formulas are refuted from the
    # map on the hosts the scan would refute them on
    # (the reference scans through S.find_refutation, which is not patched)
    monkeypatch.setattr(D, "find_refutation",
                        lambda frame, phi: S.find_refutation(frame, phi, 1 << 6))
    by_map = D._refutation_by_map
    calls = []

    def counted(frame, phi, witness):
        calls.append(frame)
        return by_map(frame, phi, witness)

    monkeypatch.setattr(D, "_refutation_by_map", counted)
    for f in small_frames:
        chi = fm.fine_jankov(f)
        verdict, want = D.decide_lr2(chi, 5), reference_scan_decide_lr2(chi, 5)
        assert type(verdict) is type(want)
        if isinstance(want, D.Refuted):
            assert verdict.model.frame == want.model.frame
            _assert_refutation_checks(verdict, chi)
    assert len(calls) == 10, len(calls)


def test_a_point_query_walks_its_formula_once_and_builds_one_model(monkeypatch):
    walked, models = [], []
    walk, model = fm._walk, S.Model

    def counted_model(frame, valuation):
        models.append(valuation)
        return model(frame, valuation)

    monkeypatch.setattr(fm, "_walk", lambda phi: walked.append(phi) or walk(phi))
    monkeypatch.setattr(S, "Model", counted_model)
    monkeypatch.setattr(D, "Model", counted_model)
    for text in ("[]p -> q", "~(<>p | (q -> []~p))", "(p & <>~q) -> []~p"):
        phi = fm.parse(text)
        walked.clear()
        models.clear()
        verdict = D.decide_lr2(phi, 4)
        assert type(verdict) is D.Refuted and verdict.model.frame.size == 1
        assert verdict.world not in S.extension(verdict.model, phi)
        # compiling, the variable names and the re-check share one walk,
        # and the one Model is the verdict's
        assert len(walked) == 1 and walked[0] is phi
        assert len(models) == 1 and verdict.model.valuation is models[0]
        assert D.decide_lr2(phi, 4) == verdict and len(walked) == 1
