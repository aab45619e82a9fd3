"""Randomized stress tests for the quotient, unraveling, and classifier
paths beyond their worked examples."""

import random

from conftest import collapse, is_partial_order
from roachkit import construct as C
from roachkit import frames as F
from roachkit import morphisms as M
from roachkit import ordinals as O


def _random_upset(rng, frame):
    seed = rng.sample(range(frame.size), rng.randint(1, frame.size))
    return set().union(*(F.worlds_of(frame.up[w]) for w in seed))


def test_collapse_random_upsets():
    rng = random.Random(321)
    frames = [f for n in range(3, 6) for f in F.enumerate_frames(n)]
    done = 0
    while done < 300:
        frame = rng.choice(frames)
        first = _random_upset(rng, frame)
        second = _random_upset(rng, frame) - first
        blocks = [b for b in (first, second) if b]
        # the leftover of an upset minus an upset is an upset again
        if any(not set(F.worlds_of(frame.up[w])) <= b for b in blocks for w in b):
            continue
        quotient, pm = collapse(frame, blocks)
        assert M.check_p_morphism(pm, require_onto=True) is None
        assert quotient.size == frame.size - sum(len(b) - 1 for b in blocks)
        done += 1


def test_collapse_random_same_successor_antichains():
    rng = random.Random(654)
    frames = [f for n in range(3, 7) for f in F.enumerate_frames(n)]
    done = 0
    attempts = 0
    while done < 200 and attempts < 20000:
        attempts += 1
        frame = rng.choice(frames)
        cmasks = F.cluster_masks(frame)
        groups = {}
        for w in frame.worlds():
            if cmasks[w] == 1 << w:
                groups.setdefault(frame.up[w] & ~(1 << w), []).append(w)
        mergeable = [ws for ws in groups.values() if len(ws) >= 2]
        if not mergeable:
            continue
        block = set(rng.choice(mergeable))
        quotient, pm = collapse(frame, [block])
        assert M.check_p_morphism(pm, require_onto=True) is None
        done += 1
    assert done == 200


def test_unravel_every_rooted_six_world_frame():
    for f in F.enumerate_frames(6, "rooted"):
        result = C.unravel_to_quasi_tree(f, node_budget=100000)
        assert F.is_quasi_tree(result.tree, (1 << result.tree.size) - 1)
        assert M.check_p_morphism(result.morphism, require_onto=True) is None
        if is_partial_order(f):
            assert is_partial_order(result.tree)
        if F.is_quasi_tree(f, (1 << f.size) - 1):
            assert F.are_isomorphic(result.tree, f)


def test_classifier_total_on_random_ordinals():
    rng = random.Random(987)

    def random_ordinal(depth):
        n_terms = rng.randint(1, 4)
        exponents = set()
        while len(exponents) < n_terms:
            if depth > 0 and rng.random() < 0.35:
                exponents.add(random_ordinal(depth - 1))
            else:
                exponents.add(O.from_int(rng.randint(0, 6)))
        return O.Ordinal(tuple((e, rng.randint(1, 9))
                               for e in sorted(exponents, reverse=True)))

    for _ in range(2000):
        gamma = random_ordinal(2)
        if gamma.is_zero():
            continue
        logic = O.classify_beta_logic(gamma)
        alpha1 = gamma.least_exponent()
        if alpha1.is_zero():
            assert logic.kind in ("S4Grz", "S4GrzN")
        elif alpha1.is_finite():
            assert logic.kind in ("LN", "Meet")
            # round trip through the rendered text agrees
            assert O.classify_beta_logic(O.parse_ordinal(str(gamma))) == logic
        else:
            assert logic.kind == "ConjecturedLInf"
