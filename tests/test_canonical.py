"""Canonical keys and enumeration order: exactness against the naive oracle,
stability of the enumeration, and cost on twin-heavy frames."""

import hashlib
import itertools
import json
import math
import random
import time

import pytest

from conftest import (
    is_partial_order,
    naive_canonical_key,
    random_frames,
    reference_canonical_key,
    reference_compositions,
    reference_posets,
    reference_preorder_classes,
    relabel,
)
from roachkit import frames as F
from roachkit import roach as R

# SHA-256 of json.dumps([(f.size, f.up) for n in 1..6 for f in
# enumerate_frames(n)]): every class representative and its position.
# decide_lr2 tries frames in this order, so a change here changes verdicts.
ENUMERATION_SHA256 = "3b5e37f8d54ecf2157eb6d798a03b12c4d32211571b4febc1247c5b5f9bf9558"


def fresh_key(frame):
    """canonical_key computed now, not read from the cache."""
    return F.canonical_key.__wrapped__(frame)


def star(maxima):
    """A root below an antichain of ``maxima`` worlds."""
    return F.normalize_frame([(0, m) for m in range(1, maxima + 1)], maxima + 1)


def cluster(size):
    return F.normalize_frame([(u, (u + 1) % size) for u in range(size)], size)


@pytest.mark.parametrize("n", range(1, 7))
def test_canonical_key_matches_oracle_on_every_class(n):
    for f in F.enumerate_frames(n):
        assert fresh_key(f) == naive_canonical_key(f)


def test_canonical_key_matches_oracle_on_seven_world_sample():
    sample = random.Random(7).sample(list(F.enumerate_frames(7, ceiling=7)), 300)
    for f in sample:
        assert fresh_key(f) == naive_canonical_key(f)


def test_canonical_key_invariant_under_random_relabeling():
    rng = random.Random(11)
    classes = [f for n in range(2, 7) for f in F.enumerate_frames(n)]
    for _ in range(1500):
        f = rng.choice(classes)
        perm = list(range(f.size))
        rng.shuffle(perm)
        g = relabel(f, perm)
        assert fresh_key(g) == F.canonical_key(f) == naive_canonical_key(g)


def test_canonical_key_on_clusters_and_twin_antichains():
    rng = random.Random(3)
    shapes = [
        # root cluster {0,1} below three twin maxima
        F.normalize_frame([(0, 1), (1, 0), (0, 2), (0, 3), (0, 4)], 5),
        # two incomparable 2-clusters with the same neighbours: swapping the
        # clusters is an automorphism but no two worlds are twins
        F.normalize_frame([(1, 2), (2, 1), (3, 4), (4, 3), (0, 1), (0, 3), (1, 5), (3, 5)], 6),
        # a 3-cluster and a twin pair above a root, below a common top
        F.normalize_frame([(0, 1), (1, 2), (2, 3), (3, 1), (0, 4), (0, 5), (1, 6), (4, 6), (5, 6)], 7),
        # twin antichains at two depths with distinct neighbours
        F.normalize_frame([(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)], 7),
    ]
    for _ in range(40):
        # random cluster sizes over a random small poset
        poset = rng.choice(F._posets(rng.randint(2, 4)))
        sizes = tuple(rng.randint(1, 3) for _ in range(poset.size))
        shapes.append(F._expand(poset, sizes))
    for f in shapes:
        expected = naive_canonical_key(f)
        for _ in range(5):
            perm = list(range(f.size))
            rng.shuffle(perm)
            assert fresh_key(relabel(f, perm)) == expected


def test_canonical_key_matches_reference_on_poset_candidates():
    # every frame _posets keys on its way to 7 elements, and the rest of
    # each parent's downsets
    candidates = [F._extend_poset(p, d) for k in range(1, 7) for p in F._posets(k) for d in F._downsets(p)]
    assert len(candidates) == 6377
    for f in candidates:
        assert fresh_key(f) == reference_canonical_key(f) == naive_canonical_key(f)


def test_canonical_key_matches_reference_on_expansion_candidates():
    # every cluster blow-up _preorder_classes keys on its way to 7 worlds
    candidates = [F._expand(poset, sizes) for n in range(2, 8) for k in range(1, n)
                  for poset in F._posets(k) for sizes in F._twin_least_compositions(poset, n)]
    assert len(candidates) == 3112
    assert all(max(F.cluster_masks(f), key=int.bit_count).bit_count() > 1 for f in candidates)
    for f in candidates:
        assert fresh_key(f) == reference_canonical_key(f)


def with_twins(frame, rng, extra):
    """``frame`` with ``extra`` added worlds, each with the strict upset and
    downset of a random original world, and seeing it back half the time:
    twin antichains and clusters."""
    edges = [pair for pair in frame.pairs() if pair[0] != pair[1]]
    n = frame.size
    for new in range(n, n + extra):
        w = rng.randrange(frame.size)
        edges += [(new, v) for u, v in edges if u == w] + [(u, new) for u, v in edges if v == w]
        if rng.random() < 0.5:
            edges += [(w, new), (new, w)]
    return F.normalize_frame(edges, n + extra)


def relabelings_bound(frame):
    """The relabelings the naive key tries for the first invariant's
    groups, an upper bound on those of the refined groups."""
    depth, down, cluster = F.depth_vector(frame), F.down_masks(frame), F.cluster_masks(frame)
    keys = [(depth[w], frame.up[w].bit_count(), down[w].bit_count(), cluster[w].bit_count())
            for w in frame.worlds()]
    return math.prod(math.factorial(keys.count(key)) for key in set(keys))


def test_canonical_key_matches_reference_on_random_large_frames():
    rng = random.Random(17)
    bases = [f for n in range(3, 6) for f in F.enumerate_frames(n)] + random_frames(19, 100, 7, rooted=True)
    frames = []
    for _ in range(300):
        base = rng.choice(bases)
        frames.append(with_twins(base, rng, rng.randint(8, 12) - base.size))
    assert {f.size for f in frames} == set(range(8, 13))
    naive_checked = 0
    for f in frames:
        perm = list(range(f.size))
        rng.shuffle(perm)
        expected = reference_canonical_key(f)
        assert fresh_key(f) == fresh_key(relabel(f, perm)) == expected
        if relabelings_bound(f) <= 2000:
            naive_checked += 1
            assert naive_canonical_key(f) == expected
    assert naive_checked >= 100


def test_fast_path_respects_twin_classes():
    # a, b and e (worlds 1, 2, 3) share depth and sizes, so one group of the
    # first invariant holds them, but b and e are twins and a is not: a sees
    # c (4), which two worlds see, while b and e see d (5), which three see.
    # Round one splits a from b and e, so a key that skips refinement
    # without checking that each group is a single twin class is wrong.
    f = F.normalize_frame([(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 5)], 6)
    expected = naive_canonical_key(f)
    for perm in itertools.permutations(range(6)):
        g = relabel(f, perm)
        assert fresh_key(g) == reference_canonical_key(g) == expected


def test_closed_frames_pass_the_frame_check(monkeypatch):
    # every frame the enumeration builds without the check, rebuilt with it
    built = []

    def recording(size, up):
        built.append((size, up))
        return closed(size, up)

    closed = F._closed_frame
    monkeypatch.setattr(F, "_closed_frame", recording)
    monkeypatch.setattr(R, "_closed_frame", recording)
    for n in range(1, 7):
        F._posets.__wrapped__(n)
        F._preorder_classes.__wrapped__(n)
        before = len(built)
        F._rooted_classes.__wrapped__(n)
        assert len(built) - before == 1 + sum(len(F._preorder_classes(m)) for m in range(1, n))
        before = len(built)
        R.two_roach_classes(n)
        assert n < 3 or len(built) > before
    assert {size for size, _ in built} == set(range(1, 7))
    for size, up in built:
        assert F.Frame(size, up).up == up


def test_enumeration_order_is_pinned():
    data = [(f.size, f.up) for n in range(1, 7) for f in F.enumerate_frames(n)]
    assert hashlib.sha256(json.dumps(data).encode()).hexdigest() == ENUMERATION_SHA256


@pytest.mark.parametrize("k,expected", [(1, 1), (2, 2), (3, 5), (4, 16), (5, 63), (6, 318)])
def test_poset_class_counts(k, expected):
    # OEIS A000112
    assert len(F._posets(k)) == expected
    assert all(is_partial_order(p) for p in F._posets(k))


@pytest.mark.parametrize("frame", [star(12), cluster(10)], ids=["star12", "cluster10"])
def test_twin_symmetry_costs_nothing(frame):
    # both frames have 12! or 10! invariant-respecting relabelings, all of
    # them automorphisms made of twin swaps
    start = time.perf_counter()
    key = fresh_key(frame)
    assert time.perf_counter() - start < 1.0
    perm = list(range(frame.size))
    random.Random(5).shuffle(perm)
    start = time.perf_counter()
    assert fresh_key(relabel(frame, perm)) == key
    assert time.perf_counter() - start < 1.0


def test_orbit_enumeration_matches_dict_dedupe():
    # the same representatives in the same order as trying every downset
    # and every composition and deduping the candidates by key
    for k in range(1, 8):
        assert [(p.size, p.up) for p in F._posets(k)] == [(p.size, p.up) for p in reference_posets(k)]
    for n in range(1, 8):
        assert ([(f.size, f.up) for f in F._preorder_classes(n)]
                == [(f.size, f.up) for f in reference_preorder_classes(n)])


def test_twin_filters_reach_every_class_first():
    # per poset, the growths over the kept downsets and the expansions by
    # the kept compositions reach the classes that all of them reach, each
    # first at the same downset or composition
    def firsts(poset, choices, build):
        reps = {}
        for choice in choices:
            reps.setdefault(F.canonical_key(build(poset, choice)), choice)
        return list(reps.items())

    dropped = [0, 0]
    for k in range(1, 7):
        for poset in F._posets(k):
            every = [m for m in range(1 << k) if F.downset_mask(poset, m) == m]
            kept = F._twin_least_downsets(poset)
            assert firsts(poset, kept, F._extend_poset) == firsts(poset, every, F._extend_poset), poset
            dropped[0] += len(every) - len(kept)
            for n in range(k, 8):
                every = list(reference_compositions(n, k))
                kept = list(F._twin_least_compositions(poset, n))
                assert firsts(poset, kept, F._expand) == firsts(poset, every, F._expand), (poset, n)
                dropped[1] += len(every) - len(kept)
    assert min(dropped) > 0, dropped
