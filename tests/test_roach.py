import hashlib
import json
import random
from collections import Counter

import pytest

from conftest import (
    reference_2_roach_filter,
    reference_expand,
    reference_is_2_roach,
    reference_is_willow_tree,
    reference_minimal_forbidden_witness,
    relabel,
)
from roachkit import frames as F
from roachkit import morphisms as M
from roachkit import roach as R
from roachkit.errors import PreconditionError


def test_builtin_t2_isomorphic_to_f1():
    assert F.are_isomorphic(R.builtin("T", 2), R.builtin("F1"))


def test_builtin_point():
    assert R.builtin("point").pairs() == [(0, 0)]


def test_builtin_f3_depths():
    f3 = R.builtin("F3")
    assert F.depth_vector(f3)[:3] == (3, 2, 2)


def test_builtin_g_is_f2():
    assert R.builtin("G") == R.builtin("F2")


def test_builtin_shapes():
    fork = R.builtin("two_fork")
    assert F.classify_frame(fork).max_points == (1, 2)
    chain = R.builtin("chain", 4)
    assert F.frame_depth(chain) == 4
    t3 = R.builtin("T", 3)
    assert t3.size == 5 and F.frame_depth(t3) == 4


def test_builtin_bad_parameters():
    with pytest.raises(PreconditionError):
        R.builtin("T", 0)
    with pytest.raises(PreconditionError):
        R.builtin("chain")
    with pytest.raises(PreconditionError):
        R.builtin("octopus")


class _Built(Exception):
    pass


def test_builtin_refuses_sizes_above_the_frame_limit(monkeypatch):
    def build(*args, **kwargs):
        raise _Built

    # no frame is built: a 4,096-world chain takes seconds to close
    monkeypatch.setattr(R, "normalize_frame", build)
    cap = F.MAX_FRAME_WORLDS
    for name, n in (("chain", cap), ("T", cap - 2)):  # at the limit
        with pytest.raises(_Built):
            R.builtin(name, n)
    for name, n in (("chain", cap + 1), ("T", cap - 1), ("chain", 999999), ("T", 99999999)):
        with pytest.raises(PreconditionError, match=f"<= {cap - 2 if name == 'T' else cap}"):
            R.builtin(name, n)


def test_splitting_certificate_point():
    cert = R.splitting_certificate(R.builtin("point"), 1)
    assert cert is not None and cert.s == 0
    assert R.verify_splitting(R.builtin("point"), cert)


def test_splitting_certificate_f1():
    f1 = R.builtin("F1")
    assert R.splitting_certificate(f1, 2) is None
    cert = R.splitting_certificate(f1, 3)
    assert cert is not None and cert.s == 0
    assert R.verify_splitting(f1, cert)


def test_verify_splitting_rejects_malformed_certificates():
    f1 = R.builtin("F1")
    cert = R.splitting_certificate(f1, 3)
    assert R.verify_splitting(f1, cert)
    for bad in (R.SplittingCertificate(cert.s, 3, cert.t + (0,)),  # t too long
                R.SplittingCertificate(cert.s, 3, cert.t[:-1]),  # t too short
                R.SplittingCertificate(-3, 3, cert.t),  # would index from the end
                R.SplittingCertificate(f1.size, 3, cert.t)):  # no such world
        assert R.verify_splitting(f1, bad) is False, bad


def test_splitting_certificate_g_never():
    g = R.builtin("G")
    for n in range(1, 6):
        assert R.splitting_certificate(g, n) is None


def test_splitting_certificate_rejects_bad_input():
    antichain = F.normalize_frame([], 2)
    with pytest.raises(PreconditionError):
        R.splitting_certificate(antichain, 2)
    no_max = F.normalize_frame([(0, 1), (1, 0)], 2)  # a lone proper cluster
    with pytest.raises(PreconditionError):
        R.splitting_certificate(no_max, 2)


def test_is_2_roach_two_fork():
    cert = R.is_2_roach(R.builtin("two_fork"))
    assert cert is not None and cert.s == 0
    assert R.verify_splitting(R.builtin("two_fork"), cert)


def test_is_2_roach_rejects_forbidden_frames():
    for name in ("F1", "F2", "F3"):
        assert R.is_2_roach(R.builtin(name)) is None


def test_is_2_roach_agrees_with_certificate_search():
    for n in range(1, 6):
        for f in F.enumerate_frames(n, "s41-rooted"):
            assert (R.is_2_roach(f) is None) == (R.splitting_certificate(f, 2) is None)


def test_is_2_roach_matches_the_characterization_through_seven_worlds():
    # the bound-2 certificate search gives the recursive characterization's
    # certificate, and is_willow_tree needs no 2-roach gate, on every class
    # and on shuffled relabelings, where the index order of candidates moves
    classes = [f for n in range(1, 8) for f in F.enumerate_frames(n, "s41-rooted", ceiling=7)]
    assert len(classes) == 811
    rng = random.Random(2308)
    relabeled = []
    for f in rng.choices(classes, k=320):
        perm = list(range(f.size))
        rng.shuffle(perm)
        relabeled.append(relabel(f, perm))
    for f in classes + relabeled:
        assert R.is_2_roach(f) == reference_is_2_roach(f), f
        assert R.is_willow_tree(f) == reference_is_willow_tree(f), f
    # the willow test also on every 2-roach of 8 worlds
    roaches = F.enumerate_frames(8, "2-roach", ceiling=8)
    assert all(R.is_willow_tree(f) == reference_is_willow_tree(f) for f in roaches)


def test_roach_hierarchy_is_monotone():
    for n in range(1, 6):
        for f in F.enumerate_frames(n, "s41-rooted"):
            member = [R.splitting_certificate(f, bound) is not None for bound in range(1, 6)]
            assert member == sorted(member)  # once a roach, always a roach


def test_one_roaches_are_exactly_s412():
    for n in range(1, 6):
        for f in F.enumerate_frames(n, "s41-rooted"):
            assert (R.splitting_certificate(f, 1) is not None) == F.classify_frame(f).s412


def test_t_k_first_appears_at_bound_k_plus_one():
    for k in (2, 3, 4):
        t = R.builtin("T", k)
        assert R.splitting_certificate(t, k) is None
        cert = R.splitting_certificate(t, k + 1)
        assert cert is not None and cert.s == 0


def test_splitting_point_two_fork():
    two_fork = R.builtin("two_fork")
    assert not F.classify_frame(two_fork).s412
    assert [s for s, _ in R.splitting_points(two_fork, 2)] == [R.is_2_roach(two_fork).s] == [0]


def test_splitting_point_lemma_preconditions():
    # the uniqueness lemma needs a 2-roach with two maximal points: chain3
    # has one maximum and two depth-2 splitting points, F3 is no 2-roach
    chain3 = R.builtin("chain", 3)
    assert F.classify_frame(chain3).s412
    assert [s for s, _ in R.splitting_points(chain3, 2)] == [1, 2]
    f3 = R.builtin("F3")
    assert R.is_2_roach(f3) is None
    assert list(R.splitting_points(f3, 2)) == []


def test_splitting_points_not_unique_with_single_maximum():
    # with one maximal point, both the maximum and a singleton-cluster
    # depth-2 point qualify; uniqueness only holds outside that case
    chain3 = R.builtin("chain", 3)
    assert [s for s, _ in R.splitting_points(chain3, 2)] == [1, 2]
    assert [s for s, _ in R.splitting_points(chain3, 1)] == [2]


def test_splitting_point_willow_with_body():
    # a willow tree with one body point below the splitting point
    f = F.normalize_frame([(0, 1), (1, 2), (1, 3)], 4)
    assert R.is_2_roach(f).s == 1
    # uniqueness: no other world passes the splitting conditions at depth 2
    assert [s for s, _ in R.splitting_points(f, 2)] == [1]


def test_splitting_point_unique_outside_s412():
    # with at least two maximal points a 2-roach has exactly one depth-2
    # splitting point, the one its certificate names
    checked = 0
    for n in range(1, 8):
        for f in F.enumerate_frames(n, "2-roach", ceiling=7):
            if F.classify_frame(f).s412:
                continue
            assert [s for s, _ in R.splitting_points(f, 2)] == [R.is_2_roach(f).s]
            checked += 1
    assert checked == 94


def test_is_willow_tree_two_fork():
    # the splitting point is the root, so nothing lies outside its upset
    cert = R.is_willow_tree(R.builtin("two_fork"))
    assert cert is not None and R.builtin("two_fork").up[cert.s] == 0b111


def test_is_willow_tree_chain():
    assert R.is_willow_tree(R.builtin("chain", 3)) is not None


def test_is_willow_tree_v_body():
    # body {r < a, r < b}, splitting point above both, two maxima
    f = F.normalize_frame([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5)], 6)
    assert R.is_2_roach(f) is not None
    cert = R.is_willow_tree(f)
    assert cert is not None
    assert F.worlds_of(0b111111 & ~f.up[cert.s]) == (0, 1, 2)


def test_is_willow_tree_diamond_body_fails():
    # body is a diamond (two incomparable middles), so no splitting point
    # leaves a quasi-tree behind
    f = F.normalize_frame([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5)], 6)
    assert R.is_2_roach(f) is not None
    assert R.is_willow_tree(f) is None


def test_willow_trees_are_2_roaches():
    for n in range(1, 6):
        willows = {F.canonical_key(f) for f in F.enumerate_frames(n, "willow")}
        roaches = {F.canonical_key(f) for f in F.enumerate_frames(n, "2-roach")}
        assert willows <= roaches


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 1), (3, 3), (4, 7), (5, 19), (6, 64), (7, 255)])
def test_generated_2_roaches_are_the_filtered_classes(n, expected):
    filtered = [f for f in F.enumerate_frames(n, "all", ceiling=7) if reference_2_roach_filter(f)]
    generated = list(F.enumerate_frames(n, "2-roach", ceiling=7))
    assert [F.canonical_key(f) for f in generated] == [F.canonical_key(f) for f in filtered]
    assert len(generated) == expected
    if n <= 4:
        # the representatives, and so decide's countermodels, are unchanged
        assert [f.up for f in generated] == [f.up for f in filtered]


# SHA-256 of json.dumps([(f.size, f.up) for n in 1..8 for f in
# two_roach_classes(n)]): every representative and its position.
# decide_lr2 scans these frames in this order, so a change here changes
# its countermodels.
TWO_ROACH_SHA256 = "1d23c9f32271685f32b715514fb10585fc0656ddd6f7da215b7c6e9ab82bdbce"


def test_two_roach_representatives_are_pinned():
    data = [(f.size, f.up) for n in range(1, 9) for f in R.two_roach_classes(n)]
    assert hashlib.sha256(json.dumps(data).encode()).hexdigest() == TWO_ROACH_SHA256


def test_minimal_witness_identity_cases():
    for name in ("F1", "F2", "F3"):
        f = R.builtin(name)
        witness = R.minimal_forbidden_witness(f)
        assert witness.which == name
        assert witness.generator == 0
        assert witness.morphism.mapping == tuple(f.worlds())


def test_minimal_witness_for_g_is_f2():
    witness = R.minimal_forbidden_witness(R.builtin("G"))
    assert witness.which == "F2"
    assert witness.generator == 0


def test_minimal_witness_rejects_2_roaches():
    with pytest.raises(PreconditionError):
        R.minimal_forbidden_witness(R.builtin("two_fork"))


def test_minimal_witness_deep_tall_case():
    # depth-4 frame with a single fat point would go criss-cross; force the
    # tall-two-fork branch with a lone deep fork
    f = F.normalize_frame([(0, 1), (1, 2), (2, 3), (1, 4)], 5)  # chain + side max
    witness = R.minimal_forbidden_witness(f)
    assert witness.which == "F1"
    assert M.check_p_morphism(witness.morphism, require_onto=True) is None


def test_minimal_witness_criss_cross_with_clusters():
    # two fat depth-2 points in one proper cluster -> F2
    f = F.normalize_frame([(0, 1), (1, 2), (2, 1), (1, 3), (1, 4)], 5)
    assert R.is_2_roach(f) is None
    witness = R.minimal_forbidden_witness(f)
    assert witness.which == "F2"
    assert M.check_p_morphism(witness.morphism, require_onto=True) is None


def test_minimal_witness_every_small_frame():
    for n in range(1, 6):
        for f in F.enumerate_frames(n, "s41-rooted"):
            if R.is_2_roach(f) is not None:
                continue
            witness = R.minimal_forbidden_witness(f)
            sub, emb = F.generated_subframe(f, witness.generator)
            assert witness.morphism.source == sub
            assert witness.embedding == emb
            assert witness.morphism.target == R.builtin(witness.which)
            assert M.check_p_morphism(witness.morphism, require_onto=True) is None


def _witness_branch(frame):
    """The case of ``minimal_forbidden_witness`` a non-2-roach falls in."""
    max_mask = F.mask_of(F.classify_frame(frame).max_points)
    depths = F.depth_vector(frame)
    fat = [w for w in frame.worlds()
           if depths[w] == 2 and (frame.up[w] & max_mask).bit_count() >= 2]
    if len(fat) >= 2:
        shared = any(F.cluster_masks(frame)[fat[0]] >> w & 1 for w in fat[1:])
        return "F2 shared cluster" if shared else "F3"
    if not fat:
        return "F1 no fat point"
    if frame.up[fat[0]] & max_mask == max_mask:
        return "F1 fat point sees every maximum"
    return "F1 one fat point"


def _random_rooted_s41(rng, n):
    """A random rooted S4.1 frame on ``n`` worlds: a random poset below a
    root, its non-maximal points blown up into clusters, shuffled."""
    k = rng.randint(max(3, n // 2), n)
    p = rng.uniform(0.15, 0.5)
    pairs = [(0, j) for j in range(1, k)]
    pairs += [(i, j) for i in range(1, k) for j in range(i + 1, k) if rng.random() < p]
    poset = F.normalize_frame(pairs, k)
    inner = [w for w in poset.worlds() if w not in F.classify_frame(poset).max_points]
    sizes = [1] * k
    for _ in range(n - k):
        sizes[rng.choice(inner)] += 1
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(reference_expand(poset, sizes), perm)


def test_minimal_witness_matches_the_quotient_chain():
    # the direct maps equal the ones the quotient chain builds, on every
    # non-2-roach class through seven worlds, on relabelings of them (which
    # move the least worlds every case picks) and on larger random frames
    classes = [f for n in range(1, 8) for f in F.enumerate_frames(n, "s41-rooted", ceiling=7)
               if R.is_2_roach(f) is None]
    assert len(classes) == 461
    branches = Counter(map(_witness_branch, classes))
    assert len(branches) == 5 and min(branches.values()) >= 15, branches
    rng = random.Random(2308)
    relabeled = []
    for f in rng.choices(classes, k=600):
        perm = list(range(f.size))
        rng.shuffle(perm)
        relabeled.append(relabel(f, perm))
    larger = []
    while len(larger) < 600:
        f = _random_rooted_s41(rng, rng.randint(8, 14))
        if R.is_2_roach(f) is None:
            larger.append(f)
    for f in classes + relabeled + larger:
        got, want = R.minimal_forbidden_witness(f), reference_minimal_forbidden_witness(f)
        assert (got.which, got.generator, got.embedding, got.morphism.mapping) == (
            want.which, want.generator, want.embedding, want.morphism.mapping), f


def test_forbidden_configuration_census():
    # recognizer and search-based permissibility agree on every rooted
    # S4.1 frame with at most 4 worlds (the 5-world census runs in the
    # acceptance suite)
    configs = [R.builtin(name) for name in R.FORBIDDEN_NAMES]
    for n in range(1, 5):
        for f in F.enumerate_frames(n, "s41-rooted"):
            recognized = R.is_2_roach(f) is not None
            permissible = any(M.is_permissible(c, f) is not None for c in configs)
            assert recognized == (not permissible)


def test_point_generated_subframes_of_2_roaches():
    for n in range(1, 6):
        for f in F.enumerate_frames(n, "2-roach"):
            for w in f.worlds():
                sub, _ = F.generated_subframe(f, w)
                assert R.is_2_roach(sub) is not None


def test_t_n_separates_consecutive_roach_classes():
    # T(n) is forbidden for every n-roach but permissible for some
    # (n+1)-roach, namely itself; checked at desk scale for n = 1, 2
    for n in (1, 2):
        t = R.builtin("T", n)
        for size in range(1, 6):
            for f in F.enumerate_frames(size, "s41-rooted"):
                if R.splitting_certificate(f, n) is not None:
                    assert M.is_permissible(t, f) is None
        assert R.splitting_certificate(t, n + 1) is not None
        assert M.is_permissible(t, t) is not None


def test_n_roach_generated_subframe_closure():
    # closure of every roach class under point-generated subframes
    for size in range(1, 6):
        for f in F.enumerate_frames(size, "s41-rooted"):
            for bound in range(1, 5):
                if R.splitting_certificate(f, bound) is None:
                    continue
                for w in f.worlds():
                    sub, _ = F.generated_subframe(f, w)
                    assert R.splitting_certificate(sub, bound) is not None


def test_3_roaches_are_not_closed_under_onto_images():
    # G is a 3-roach and maps onto M, which has no depth-3 splitting point:
    # G's worlds 3 and 4 both go to M's world 3, so up(2) and up(1) no
    # longer meet in the upset of one world
    g = F.normalize_frame([(0, w) for w in range(1, 8)] + [
        (1, 3), (1, 5), (1, 6), (1, 7), (2, 4), (2, 5), (2, 6), (3, 6), (4, 6), (5, 6)], 8)
    m = F.normalize_frame([(0, w) for w in range(1, 7)] + [
        (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 5), (2, 6), (3, 6), (5, 6)], 7)
    cert = R.splitting_certificate(g, 3)
    assert cert is not None and cert.s == 1 and R.verify_splitting(g, cert)
    assert R.splitting_certificate(m, 3) is None
    for frame in (g, m):
        flags = F.classify_frame(frame)
        assert flags.rooted and flags.s41
    onto = M.PMorphism(g, m, (0, 1, 2, 3, 3, 5, 6, 4))
    assert M.check_p_morphism(onto, require_onto=True) is None
