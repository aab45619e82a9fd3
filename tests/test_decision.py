import random

import pytest

from conftest import (perfbench_decide_queries, random_formula, reference_decide_lr2,
                      reference_scan_decide_lr2)
from roachkit import _tableau
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


# decide_lr2 settles the axioms' instances without a search, so the axioms'
# validity on 2-roaches is checked here by the scan without that shortcut,
# or by the frame-formula contract: no 2-roach admits F1, F2 or F3


def test_mckinsey_has_no_small_countermodel():
    assert reference_scan_decide_lr2(fm.axiom("ma"), 4) == D.NoCountermodelUpTo(4)


def test_own_axioms_have_no_small_countermodels():
    for chi in D.lr2_axioms()[1:]:
        assert reference_scan_decide_lr2(chi, 4) == D.NoCountermodelUpTo(4)


@pytest.mark.parametrize("index", [0, 1, 2, 3], ids=["ma", "chi_F1", "chi_F2", "chi_F3"])
def test_own_axioms_have_no_countermodel_up_to_the_ceiling(index):
    assert D.DECISION_CEILING == 8
    if index == 0:
        assert reference_scan_decide_lr2(fm.axiom("ma"), 8) == D.NoCountermodelUpTo(8)
    else:
        config = R.builtin(R.FORBIDDEN_NAMES[index - 1])
        roaches = [g for n in range(1, 9) for g in F.enumerate_frames(n, "2-roach", ceiling=8)]
        assert len(roaches) == 1596
        assert all(M.is_permissible(config, g) is None for g in roaches)
    assert D.decide_lr2(D.lr2_axioms()[index], 8) == D.NoCountermodelUpTo(8)


def _substitute(phi, sub):
    """``phi`` with each variable ``name`` replaced by ``sub[name]``, one
    object at all of its occurrences."""
    done = {}
    for f in fm.postorder(phi):
        kind = type(f)
        done[id(f)] = sub[f.name] if kind is fm.Var else kind(
            *(done[id(getattr(f, name))] for name in kind.__match_args__))
    return done[id(phi)]


def _is_settled_as_an_axiom(phi):
    config = fm.jankov_frame(phi)
    if config is not None:
        return any(config.up == f.up for f in D._forbidden_frames())
    return D._axiom_instance(phi)


def _axiom_instances(rng):
    """``(phi, bound)``: seeded substitution instances of each axiom.  Per
    axiom, random formulas over p and q substituted once each (so every
    occurrence shares one object) and once reparsed (so no two occurrences
    are one object), a random formula substituted for every variable at
    once, and the variables renamed: reversed, and onto fresh names."""
    out = []
    for schema in D.lr2_axioms():
        names = fm.variables(schema)
        bound = 4 if len(names) == 1 else 3
        subs = [{v: random_formula(rng, rng.randint(1, 3), ["p", "q"]) for v in names}
                for _ in range(3)]
        one = random_formula(rng, 2, ["p", "q"])
        subs += [{v: one for v in names},
                 dict(zip(names, map(fm.Var, reversed(names)))),
                 {v: fm.Var(f"x{i}") for i, v in enumerate(names)}]
        for sub in subs:
            phi = _substitute(schema, sub)
            out += [(phi, bound), (fm.parse(fm.render(phi)), bound)]
    return out


def test_seeded_axiom_instances_are_matched_and_agree_with_the_scan():
    rng = random.Random(43)
    instances = _axiom_instances(rng)
    assert len(instances) == 48
    shared = 0
    for phi, bound in instances:
        assert D._axiom_instance(phi), phi
        verdict = D.decide_lr2(phi, bound)
        assert verdict == D.NoCountermodelUpTo(bound)
        assert repr(verdict) == repr(reference_scan_decide_lr2(phi, bound)), phi
        shared += len(fm.postorder(phi)) < len(fm.postorder(fm.parse(fm.render(phi))))
    assert shared > 0  # some instances share subtrees that their reparses do not


def _changed_clauses(chi):
    """Copies of the frame formula ``chi`` = (p_r & [](c_1 & ...)) -> ~p_r,
    each with one clause changed: an exclusion p_u -> ~p_w made p_u -> ~p_u,
    a reachability p_u -> <>p_w made p_u -> ~<>p_w, and a diamond made a
    box."""
    clauses, stack = [], [chi.left.right.operand]
    while stack:
        node = stack.pop()
        if isinstance(node, fm.And):
            stack += (node.right, node.left)
        else:
            clauses.append(node)

    def rebuilt(i, clause):
        parts = clauses[:i] + [clause] + clauses[i + 1:]
        return fm.Implies(fm.And(chi.left.left, fm.Box(fm.conj(parts))), chi.right)

    assert rebuilt(0, clauses[0]) == chi
    exclusion = 1
    reach = next(i for i, c in enumerate(clauses) if isinstance(c.right, fm.Diamond)
                 and c.right.operand != c.left)
    return [rebuilt(exclusion, fm.Implies(clauses[exclusion].left, fm.Not(clauses[exclusion].left))),
            rebuilt(reach, fm.Implies(clauses[reach].left, fm.Not(clauses[reach].right))),
            rebuilt(reach, fm.Implies(clauses[reach].left, fm.Box(clauses[reach].right.operand)))]


def test_non_instances_are_not_matched():
    rng = random.Random(47)
    a, b = (random_formula(rng, 3, ["p", "q"]) for _ in range(2))
    s4_instances = [fm.Implies(fm.Box(a), a), fm.Implies(fm.Box(a), fm.Box(fm.Box(a))),
                    fm.Implies(fm.Box(fm.Implies(a, b)), fm.Implies(fm.Box(a), fm.Box(b))),
                    fm.Implies(a, fm.Diamond(a)), fm.Implies(a, fm.Implies(b, a))]
    # T and F compile to different slots, and operands are paired in order
    near = [fm.parse("[]<>T -> <>[]F"), fm.parse("[]<>(p & q) -> <>[](q & p)")]
    for phi in [fm.axiom("ga"), fm.parse("[]<>p -> <>[]q"), *near, *s4_instances]:
        assert not D._axiom_instance(phi), phi
        assert not _is_settled_as_an_axiom(phi), phi
    changed = [phi for chi in D.lr2_axioms()[1:] for phi in _changed_clauses(chi)]
    assert len(changed) == 9
    for phi in changed:
        assert not D._axiom_instance(phi), phi
        assert not _is_settled_as_an_axiom(phi), phi
        assert repr(D.decide_lr2(phi, 4)) == repr(reference_scan_decide_lr2(phi, 4)), phi


def test_instances_with_constants_are_matched_and_agree_with_the_scan():
    # random_formula yields T and F only over no variables, so the seeded
    # instances hold no arity-0 op
    sub = {"p0": fm.Top(), "p1": fm.Not(fm.Var("q")), "p2": fm.Var("p2"), "p3": fm.Var("p3")}
    chi = _substitute(D.lr2_axioms()[1], sub)
    for phi in [fm.parse("[]<>T -> <>[]T"), fm.parse("[]<>~F -> <>[]~F"), chi]:
        assert D._axiom_instance(phi), fm.render(phi)
        verdict = D.decide_lr2(phi, 4)
        assert verdict == D.NoCountermodelUpTo(4)
        assert repr(verdict) == repr(reference_scan_decide_lr2(phi, 4)), fm.render(phi)


def test_a_matched_query_scans_only_the_one_world_frame(monkeypatch):
    sizes, scanned = [], []
    enumerate_frames, find_refutation = D.enumerate_frames, D.find_refutation

    def unreached(*_):
        raise AssertionError("searched past the one-world frame")

    monkeypatch.setattr(D, "enumerate_frames",
                        lambda size, *a, **k: sizes.append(size) or enumerate_frames(size, *a, **k))
    monkeypatch.setattr(D, "find_refutation",
                        lambda frame, phi: scanned.append(frame.size) or find_refutation(frame, phi))
    monkeypatch.setattr(D._tableau, "s4_valid", unreached)
    renamed = _substitute(D.lr2_axioms()[1], {f"p{i}": fm.Var(f"x{i}") for i in range(4)})
    cases = [(fm.parse("[]<>(p & <>q) -> <>[](p & <>q)"), [1]), (D.lr2_axioms()[0], [1]),
             (renamed, [1]), *((chi, []) for chi in D.lr2_axioms()[1:])]
    for phi, scans in cases:
        sizes.clear()
        scanned.clear()
        # (four variables on eight worlds would exceed the scan's budget)
        assert D.decide_lr2(phi, 6) == D.NoCountermodelUpTo(6)
        # frame formulas skip the one-world frame by permissibility
        assert (sizes, scanned) == ([1], scans), phi


def test_a_deep_mckinsey_instance_is_matched_without_recursion():
    # p := []^5000 q, built twice so that the two occurrences share no node
    deep = []
    for _ in range(2):
        phi = fm.Var("q")
        for _ in range(5000):
            phi = fm.Box(phi)
        deep.append(phi)
    phi = fm.Implies(fm.Box(fm.Diamond(deep[0])), fm.Diamond(fm.Box(deep[1])))
    assert D._axiom_instance(phi)
    assert D.decide_lr2(phi, 8) == D.NoCountermodelUpTo(8)


def test_an_over_budget_mckinsey_instance_still_raises():
    # fourteen variables fit the scan's budget on one world, not on two
    a = fm.conj([fm.Var(f"p{i}") for i in range(14)])
    phi = fm.Implies(fm.Box(fm.Diamond(a)), fm.Diamond(fm.Box(a)))
    assert D._axiom_instance(phi)
    with pytest.raises(BudgetExceededError):
        D.decide_lr2(phi, 2)


def test_clean_perfbench_queries_are_settled_after_the_one_world_scan(monkeypatch):
    # each of the 40 clean decide queries per seed is an axiom instance or
    # an S4 theorem; 6 and 7 of the 10 instances have no closed tableau
    queries = perfbench_decide_queries(monkeypatch)
    sizes, enumerate_frames = [], D.enumerate_frames
    monkeypatch.setattr(D, "enumerate_frames",
                        lambda size, *a, **k: sizes.append(size) or enumerate_frames(size, *a, **k))
    tallies = []
    for part in (queries[:164], queries[164:]):
        tally = {"matched": 0, "matched, no tableau": 0, "tableau": 0}
        for phi, bound in part:
            sizes.clear()
            verdict = D.decide_lr2(phi, bound)
            if not isinstance(verdict, D.NoCountermodelUpTo):
                continue
            assert sizes == [1], phi
            if _is_settled_as_an_axiom(phi):
                tally["matched"] += 1
                tally["matched, no tableau"] += not _tableau.s4_valid(phi)
            else:
                assert _tableau.s4_valid(phi), phi
                tally["tableau"] += 1
        tallies.append(tally)
    assert tallies == [{"matched": 10, "matched, no tableau": 6, "tableau": 30},
                       {"matched": 10, "matched, no tableau": 7, "tableau": 30}]


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


def test_search_past_the_first_frame_of_a_size_matches_the_scan():
    # decide_lr2 against the plain scan of every 2-roach in enumeration
    # order.  Seeded formulas of 0-4 variables, and the negated type of the
    # root of a random model on a 2-roach, which is refuted on the frames
    # with a world like it: often not the first of their size.
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


def test_decide_scans_each_two_roach_once_in_enumeration_order(monkeypatch):
    # every frame decide_lr2 scans goes through find_refutation, one call
    # per frame: a clean search scans each 2-roach up to the bound, and a
    # refuted one the 2-roaches before the verdict's frame and that frame
    scanned = []
    one = D.find_refutation
    monkeypatch.setattr(D, "find_refutation",
                        lambda frame, phi: scanned.append(frame) or one(frame, phi))
    roaches = [f for n in range(1, 6) for f in F.enumerate_frames(n, "2-roach")]
    # McKinsey as a disjunction: valid on 2-roaches, but neither an S4
    # theorem nor an instance of an axiom, so nothing settles it early
    clean = fm.parse("<>[]p | ~[]<>p")
    assert not D._axiom_instance(clean) and not _tableau.s4_valid(clean)
    assert D.decide_lr2(clean, 5) == D.NoCountermodelUpTo(5)
    assert scanned == roaches
    past_first = 0
    for phi, bound in ((fm.axiom("ga"), 3), (fm.axiom("bd", 2), 4), (fm.axiom("bd", 3), 5),
                       (fm.parse("<>p & <>~p -> [](p | q)"), 5)):
        scanned.clear()
        verdict = D.decide_lr2(phi, bound)
        assert isinstance(verdict, D.Refuted), phi
        assert scanned == roaches[:roaches.index(verdict.model.frame) + 1], phi
        past_first += verdict.model.frame != next(F.enumerate_frames(verdict.model.frame.size,
                                                                      "2-roach"))
    assert past_first >= 1


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
    size, so F is an image of the first refuting 2-roach itself.  A host
    that is not a 2-roach may refute chi_F1, chi_F2 or chi_F3, so the
    check that settles those axioms on 2-roaches is switched off."""
    hosts = [g for n in range(1, 6) for g in F.enumerate_frames(n, "rooted")]
    monkeypatch.setattr(D, "_forbidden_frames", lambda: ())
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


def test_an_over_budget_frame_formula_searches_each_two_roach_once(monkeypatch):
    # the countermodel is read off the map the permissibility check found,
    # so the refuting frame is not searched a second time
    chain6 = R.builtin("chain", 6)
    hosts, is_permissible = [], M.is_permissible
    monkeypatch.setattr(M, "is_permissible",
                        lambda config, host: hosts.append(host) or is_permissible(config, host))
    verdict = D.decide_lr2(fm.fine_jankov(chain6), 6)
    assert len(hosts) == len({(h.size, h.up) for h in hosts}) == 68
    assert hosts[-1] is verdict.model.frame
    assert F.are_isomorphic(verdict.model.frame, chain6)
    assert verdict.world == 0
    assert verdict.model.valuation == {f"p{w}": {w} for w in range(6)}


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
