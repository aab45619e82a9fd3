import gc
import json
import random
import weakref
from functools import lru_cache

import pytest

from conftest import (
    is_partial_order,
    naive_canonical_key,
    naive_depths,
    naive_preorder_classes,
    random_frames,
    reference_clusters_and_skeleton,
    reference_filter,
    reference_pairs,
    reference_quasi_tree,
    reference_worlds_of,
)
from roachkit import formulas as fm
from roachkit import frames as F
from roachkit import roach as R
from roachkit.errors import CeilingExceededError, FrameFormatError
from roachkit.roach import builtin


def test_normalize_closes_single_edge():
    f = F.normalize_frame([(0, 1)], 2)
    assert set(f.pairs()) == {(0, 0), (1, 1), (0, 1)}


def test_normalize_forces_transitivity():
    f = F.normalize_frame([(0, 1), (1, 2)], 3)
    assert f.le(0, 2)


def test_normalize_reflexive_singleton():
    assert F.normalize_frame([], 1).pairs() == [(0, 0)]


def test_normalize_idempotent_on_closed_relations():
    for n in range(1, 5):
        for f in F.enumerate_frames(n):
            again = F.normalize_frame(f.pairs(), f.size)
            assert again.up == f.up


def test_normalize_rejects_out_of_range():
    with pytest.raises(FrameFormatError):
        F.normalize_frame([(0, 3)], 2)


def test_strict_mode_rejects_unclosed():
    with pytest.raises(FrameFormatError):
        F.normalize_frame([(0, 1), (1, 2)], 3, strict=True)
    f = F.normalize_frame([(0, 1), (1, 2), (0, 2)], 3, strict=True)
    assert f.le(0, 2)


def reachable(pairs, u):
    """Worlds reachable from ``u`` along ``pairs``, ``u`` included (BFS)."""
    seen, todo = {u}, [u]
    while todo:
        v = todo.pop()
        for a, b in pairs:
            if a == v and b not in seen:
                seen.add(b)
                todo.append(b)
    return seen


def test_normalize_matches_reachability_on_random_relations():
    rng = random.Random(5)
    cyclic = 0
    for _ in range(300):
        n = rng.randint(1, 10)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))]
        expected = {(u, w) for u in range(n) for w in reachable(pairs, u)}
        f = F.normalize_frame(pairs, n)
        assert set(f.pairs()) == expected
        cyclic += not is_partial_order(f)
        if expected == set(pairs) | {(w, w) for w in range(n)}:
            assert F.normalize_frame(pairs, n, strict=True) == f
        else:
            with pytest.raises(FrameFormatError, match="strict"):
                F.normalize_frame(pairs, n, strict=True)
    assert cyclic > 100


def test_upset_of_root_of_t2():
    t2 = builtin("T", 2)
    assert F.worlds_of(t2.up[0]) == (0, 1, 2, 3)


def test_downset_of_empty_seed():
    assert F.downset_mask(builtin("F3"), 0) == 0


def test_f3_upset_of_v1():
    f3 = builtin("F3")
    assert F.worlds_of(f3.up[1]) == (1, 3, 4)


def test_downset_mask_idempotent_and_extensive():
    for n in range(1, 5):
        for f in F.enumerate_frames(n):
            full = (1 << f.size) - 1
            for seed in range(1 << f.size):
                down = F.downset_mask(f, seed)
                assert seed & ~down == 0
                assert F.downset_mask(f, down) == down
                # the complement of a downset is an upset
                assert all(f.up[w] & down == 0 for w in F.worlds_of(full & ~down))


def test_up_masks_are_extensive_and_closed():
    for n in range(1, 5):
        for f in F.enumerate_frames(n):
            for w in range(f.size):
                assert f.up[w] >> w & 1
                assert all(f.up[v] & ~f.up[w] == 0 for v in F.worlds_of(f.up[w]))


def test_clusters_of_f2():
    partition, skeleton, pi = F.clusters_and_skeleton(builtin("F2"))
    assert sorted(map(sorted, partition)) == [[0, 1], [2], [3]]
    assert skeleton.size == 3
    assert is_partial_order(skeleton)
    assert pi[0] == pi[1]


def test_skeleton_of_poset_is_identity():
    f = builtin("F3")
    partition, skeleton, pi = F.clusters_and_skeleton(f)
    assert skeleton.size == f.size
    assert F.are_isomorphic(skeleton, f)
    assert sorted(pi) == list(range(f.size))


def test_skeleton_of_point():
    partition, skeleton, pi = F.clusters_and_skeleton(builtin("point"))
    assert skeleton.size == 1 and pi == (0,)


def test_depth_of_t_n_roots():
    for n in range(1, 5):
        assert F.depth_vector(builtin("T", n))[0] == n + 1


def test_depth_examples():
    assert F.depth_vector(builtin("point"))[0] == 1
    assert F.depth_vector(builtin("F3"))[0] == 3


@pytest.mark.parametrize("n", range(1, 7))
def test_order_views_match_definitions(n):
    for f in F.enumerate_frames(n):
        worlds = f.worlds()
        assert F.depth_vector(f) == tuple(naive_depths(f))
        assert F.down_masks(f) == tuple(
            sum(1 << u for u in worlds if f.le(u, w)) for w in worlds)
        assert F.cluster_masks(f) == tuple(
            sum(1 << v for v in worlds if f.le(w, v) and f.le(v, w)) for w in worlds)


def test_order_queries_match_pairwise_references():
    classes = [f for n in range(1, 7) for f in F.enumerate_frames(n)]
    randoms = random_frames(11, 300, 12) + random_frames(12, 300, 12, rooted=True)
    for f in classes + randoms:
        assert F.is_quasi_tree(f, (1 << f.size) - 1) == reference_quasi_tree(f)
        assert F.clusters_and_skeleton(f) == reference_clusters_and_skeleton(f)
        assert f.pairs() == reference_pairs(f)
    # the random frames reach past 6 worlds, have clusters, and hold
    # quasi-trees with and without clusters as well as rooted non-quasi-trees
    flags = [(F.classify_frame(f).rooted, F.is_quasi_tree(f, (1 << f.size) - 1), is_partial_order(f))
             for f in randoms if f.size > 6]
    assert sum(not poset for _, _, poset in flags) > 150
    assert sum(quasi and poset for _, quasi, poset in flags) > 25
    assert sum(quasi and not poset for _, quasi, poset in flags) > 80
    assert sum(rooted and not quasi for rooted, quasi, _ in flags) > 40


def test_is_quasi_tree_matches_the_pairwise_reference_on_every_downset():
    for n in range(1, 6):
        for f in F.enumerate_frames(n, "all"):
            for d in range(1 << n):
                if F.downset_mask(f, d) != d:
                    continue
                expected = d == 0 or reference_quasi_tree(F.subframe(f, F.worlds_of(d))[0])
                assert F.is_quasi_tree(f, d) == expected, (f, d)


def test_derived_values_are_freed_with_their_frame():
    f = F.normalize_frame([(0, 1), (1, 0), (0, 2)], 3)
    for view in (F.down_masks, F.cluster_masks, F.depth_vector, F.classify_frame,
                 F.canonical_key, fm.fine_jankov):
        view(f)
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None


def test_worlds_of_matches_bit_peeling():
    for mask in range(1 << 12):
        assert F.worlds_of(mask) == reference_worlds_of(mask)
    rng = random.Random(4096)
    masks = []
    for _ in range(300):
        bits = rng.randint(9, 4096)
        masks.append(rng.getrandbits(bits) | 1 << (bits - 1))
        # whole zero bytes between members, and members only at the top
        masks.append(sum(1 << w for w in rng.sample(range(bits), rng.randint(1, 12))))
        masks.append(rng.getrandbits(rng.randint(1, 16)) << (bits - 1))
        masks.append(((1 << rng.randint(1, 64)) - 1) << rng.randrange(bits))
    assert any(b"\0" in m.to_bytes((m.bit_length() + 7) // 8, "little") for m in masks)
    for mask in masks:
        assert F.worlds_of(mask) == reference_worlds_of(mask)


def test_order_views_share_one_pass(monkeypatch):
    order_data = F._order_data
    calls = []

    def counted(up):
        calls.append(up)
        return order_data(up)

    monkeypatch.setattr(F, "_order_data", counted)
    f = F.normalize_frame([(0, 1), (1, 0), (0, 2), (2, 3), (2, 4)], 5)
    for view in (F.down_masks, F.cluster_masks, F.depth_vector, F.classify_frame):
        view(f)
        view(f)
    assert calls == [f.up]


def test_expand_with_unit_clusters_is_the_poset_itself():
    for k in range(1, 6):
        for p in F._posets(k):
            assert F._expand(p, (1,) * p.size) is p


def test_depth_monotone_and_cluster_constant():
    for n in range(1, 6):
        for f in F.enumerate_frames(n):
            d = F.depth_vector(f)
            for u in f.worlds():
                for w in f.worlds():
                    if f.le(u, w) and not f.le(w, u):
                        assert d[u] > d[w]
                    if f.le(u, w) and f.le(w, u):
                        assert d[u] == d[w]


def test_classify_f1():
    flags = F.classify_frame(builtin("F1"))
    assert flags.rooted and flags.s41 and not flags.s412
    assert is_partial_order(builtin("F1"))
    assert set(flags.max_points) == {2, 3}


def test_classify_g():
    flags = F.classify_frame(builtin("G"))
    assert flags.rooted and flags.roots == (0, 1)
    assert flags.s41 and not flags.s412
    assert not is_partial_order(builtin("G"))


def test_classify_point_all_flags():
    point = builtin("point")
    flags = F.classify_frame(point)
    assert all([flags.rooted, is_partial_order(point), F.is_quasi_tree(point, 1),
                flags.s41, flags.s412])


def test_classify_chain_is_tree():
    chain = builtin("chain", 4)
    assert is_partial_order(chain) and F.is_quasi_tree(chain, 0b1111)


def test_classify_fork_not_quasi_tree_reversed():
    # two incomparable points above a root: downsets are chains, still a tree
    two_fork = builtin("two_fork")
    assert is_partial_order(two_fork) and F.is_quasi_tree(two_fork, 0b111)
    # diamond: two incomparable middles below a common top is not a quasi-tree
    diamond = F.normalize_frame([(0, 1), (0, 2), (1, 3), (2, 3)], 4)
    assert not F.is_quasi_tree(diamond, 0b1111)
    # below the top, a root under two incomparable worlds; and the empty downset
    assert F.is_quasi_tree(diamond, 0b0111) and F.is_quasi_tree(diamond, 0)


def test_generated_subframe_of_f3():
    f3 = builtin("F3")
    sub, embedding = F.generated_subframe(f3, 1)
    assert sub.size == 3
    assert embedding == (1, 3, 4)
    assert F.are_isomorphic(sub, builtin("two_fork"))


def test_generated_subframe_at_max_is_point():
    sub, _ = F.generated_subframe(builtin("F1"), 2)
    assert sub.size == 1


def test_generated_subframe_at_root_is_whole():
    f = builtin("F2")
    sub, _ = F.generated_subframe(f, 0)
    assert F.are_isomorphic(sub, f)


def test_subframe_rejects_out_of_range_worlds():
    f1 = builtin("F1")
    for worlds, bad in (([-1], -1), ([4], 4), ([0, 2, 4], 4), ([-3, 1], -3)):
        with pytest.raises(FrameFormatError, match=f"world {bad} out of range"):
            F.subframe(f1, worlds)


def test_subframe_restricts_the_order():
    # initial runs 0..m-1, which keep every index, and arbitrary world sets
    rng = random.Random(23)
    for f in random_frames(29, 60, 9):
        sets = [range(m) for m in range(1, f.size + 1)]
        sets += [rng.sample(range(f.size), rng.randint(1, f.size)) for _ in range(5)]
        for worlds in sets:
            sub, emb = F.subframe(f, worlds)
            assert emb == tuple(sorted(set(worlds)))
            assert all(sub.le(i, j) == f.le(emb[i], emb[j]) for i in sub.worlds() for j in sub.worlds())


def test_generated_subframe_embedding_preserves_order():
    for n in range(1, 5):
        for f in F.enumerate_frames(n):
            for w in f.worlds():
                sub, emb = F.generated_subframe(f, w)
                for i in sub.worlds():
                    for j in sub.worlds():
                        assert sub.le(i, j) == f.le(emb[i], emb[j])


def test_isomorphism_examples():
    assert F.are_isomorphic(builtin("F1"), builtin("T", 2))
    assert not F.are_isomorphic(builtin("F1"), builtin("F2"))
    f = builtin("F3")
    assert F.are_isomorphic(f, f)


def test_isomorphism_invariant_under_relabeling():
    import itertools
    f = builtin("F3")
    for perm in itertools.permutations(range(f.size)):
        up = [0] * f.size
        for u in f.worlds():
            for w in f.worlds():
                if f.le(u, w):
                    up[perm[u]] |= 1 << perm[w]
        assert F.are_isomorphic(f, F.Frame(f.size, tuple(up)))


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 3), (3, 9), (4, 33), (5, 139), (6, 718)])
def test_enumeration_class_counts(n, expected):
    assert len(list(F.enumerate_frames(n))) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_matches_naive_oracle(n):
    oracle = naive_preorder_classes(n)
    assert len(oracle) == len(list(F.enumerate_frames(n)))
    for filt in ("rooted", "s41-rooted", "2-roach", "willow"):
        expected = sorted(naive_canonical_key(f) for f in oracle if reference_filter(filt)(f))
        assert [naive_canonical_key(f) for f in F.enumerate_frames(n, filt)] == expected


@pytest.mark.parametrize("n", range(1, 8))
def test_built_filters_give_the_filtered_all_classes(n):
    # frame for frame and in order, what filtering every class on n worlds
    # gives; the decomposition puts the root cluster first, as the poset
    # growth does
    classes = list(F.enumerate_frames(n, ceiling=7))
    for filt in ("rooted", "s41-rooted", "willow"):
        expected = [(f.size, f.up) for f in classes if reference_filter(filt)(f)]
        assert [(f.size, f.up) for f in F.enumerate_frames(n, filt, ceiling=7)] == expected


# OEIS A001930: preorder classes on 1, 2, ... worlds
A001930 = (1, 3, 9, 33, 139, 718, 4535, 35979)


@pytest.mark.parametrize("n", range(1, 9))
def test_rooted_class_counts(n):
    # one class per root cluster size c < n and class on the other n - c
    # worlds, and the single cluster
    frames = list(F.enumerate_frames(n, "rooted", ceiling=8))
    assert len(frames) == 1 + sum(A001930[:n - 1])
    assert all(F.classify_frame(f).rooted for f in frames)
    keys = [F.canonical_key(f) for f in frames]
    assert keys == sorted(set(keys))


def test_rooted_classes_and_2_roaches_come_from_smaller_classes(monkeypatch):
    # the rooted classes on n worlds build no preorder class on n worlds,
    # and the 2-roaches none on n - 1 or n
    expected = {n: ([(f.size, f.up) for f in F.enumerate_frames(n, "rooted", ceiling=7)],
                    [(f.size, f.up) for f in R.two_roach_classes(n)]) for n in range(2, 8)}
    real = F._preorder_classes
    limit = [0]

    def guarded(m):
        assert m < limit[0], f"built the preorder classes on {m} worlds"
        return real(m)

    for n in range(2, 8):
        # fresh caches, so every class list is built under the guard
        builder = lru_cache(maxsize=None)(F._rooted_classes.__wrapped__)
        for module in (F, R):
            monkeypatch.setattr(module, "_preorder_classes", guarded)
            monkeypatch.setattr(module, "_rooted_classes", builder)
        monkeypatch.setattr(F, "_enumerate_cached", lru_cache(maxsize=None)(F._enumerate_cached.__wrapped__))
        limit[0] = n
        rooted = [(f.size, f.up) for f in F.enumerate_frames(n, "rooted", ceiling=7)]
        limit[0] = n - 1
        assert (rooted, [(f.size, f.up) for f in R.two_roach_classes(n)]) == expected[n]


def test_unknown_filter_name_raises():
    with pytest.raises(ValueError, match="unknown filter 'trees'"):
        list(F.enumerate_frames(3, "trees"))


def test_enumeration_yields_distinct_classes():
    for n in range(1, 7):
        keys = [F.canonical_key(f) for f in F.enumerate_frames(n)]
        assert len(keys) == len(set(keys))


def test_enumeration_rooted_s41_contains_f1():
    frames = list(F.enumerate_frames(4, "s41-rooted"))
    assert any(F.are_isomorphic(f, builtin("F1")) for f in frames)


def test_enumeration_ceiling():
    with pytest.raises(CeilingExceededError):
        list(F.enumerate_frames(7))
    assert len(list(F.enumerate_frames(2, ceiling=2))) == 3


def test_frame_json_round_trip():
    for f in [builtin("F3"), builtin("G"), builtin("chain", 3)]:
        again = F.frame_from_json(json.dumps(F.frame_to_dict(f)))
        assert again.up == f.up
        assert F.are_isomorphic(again, f)


def test_frame_json_applies_closure_unless_strict():
    f = F.frame_from_json('{"size": 3, "le": [[0, 1], [1, 2]]}')
    assert f.le(0, 2)
    with pytest.raises(FrameFormatError):
        F.frame_from_json('{"size": 3, "le": [[0, 1], [1, 2]], "strict": true}')


def test_frame_json_strict_field_must_be_a_boolean():
    open_chain = '{"size": 3, "le": [[0, 1], [1, 2]], "strict": %s}'
    assert F.frame_from_json(open_chain % "false").le(0, 2)
    with pytest.raises(FrameFormatError, match="strict"):
        F.frame_from_json(open_chain % "true")
    closed = '{"size": 3, "le": [[0, 1], [1, 2], [0, 2]], "strict": %s}'
    assert F.frame_from_json(closed % "true").le(0, 2)
    for value in ('"false"', '"no"', "0", "[]", "null", "1", '"true"'):
        for text in (open_chain, closed):
            with pytest.raises(FrameFormatError, match='"strict" must be'):
                F.frame_from_json(text % value)


def test_frame_json_bad_payloads():
    with pytest.raises(FrameFormatError):
        F.frame_from_json("not json")
    with pytest.raises(FrameFormatError):
        F.frame_from_json('{"size": 2}')
    with pytest.raises(FrameFormatError):
        F.frame_from_json('{"size": 2, "le": [[0]]}')
    with pytest.raises(FrameFormatError):
        F.frame_from_json('{"size": 2, "le": [[0, "x"]]}')
    with pytest.raises(FrameFormatError):
        F.frame_from_json('{"size": true, "le": []}')


def test_frame_json_size_is_capped():
    from roachkit import construct

    assert F.MAX_FRAME_WORLDS == construct.DEFAULT_NODE_BUDGET == 4096
    assert F.frame_from_json('{"size": %d, "le": []}' % F.MAX_FRAME_WORLDS).size == 4096
    for size in (F.MAX_FRAME_WORLDS + 1, 3000000, 10 ** 30):
        with pytest.raises(FrameFormatError, match="above the limit"):
            F.frame_from_json('{"size": %d, "le": []}' % size)


def test_frame_json_labels_must_be_a_list_of_size_strings():
    f = F.frame_from_json('{"size": 2, "le": [[0, 1]], "labels": ["r", "m"]}')
    assert f.labels == ("r", "m")
    assert F.frame_from_json('{"size": 2, "le": [[0, 1]], "labels": null}').labels is None
    for labels in ('5', '"ab"', '["r"]', '["r", "m", "x"]', '["r", 1]', '{"0": "r", "1": "m"}', '[]'):
        with pytest.raises(FrameFormatError):
            F.frame_from_json('{"size": 2, "le": [[0, 1]], "labels": %s}' % labels)
