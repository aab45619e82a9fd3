import itertools
import random

import pytest

from conftest import (
    CollapseError,
    collapse,
    naive_depths,
    naive_onto_p_morphisms,
    reference_is_permissible,
    reference_onto_p_morphism,
    skeleton_morphism,
)
from roachkit import frames as F
from roachkit import morphisms as M
from roachkit.errors import PreconditionError
from roachkit.roach import builtin


def test_identity_is_p_morphism():
    for name in ("F1", "F2", "F3", "point"):
        pm = M.identity_morphism(builtin(name))
        assert M.check_p_morphism(pm, require_onto=True) is None


def test_skeleton_map_is_onto_p_morphism():
    for n in range(1, 7):
        for f in F.enumerate_frames(n):
            pm = skeleton_morphism(f)
            assert M.check_p_morphism(pm, require_onto=True) is None


def test_constant_map_from_fork_to_point():
    pm = M.PMorphism(builtin("two_fork"), builtin("point"), (0, 0, 0))
    assert M.check_p_morphism(pm, require_onto=True) is None


def test_check_reports_forth_violation():
    chain2 = builtin("chain", 2)
    antichain_image = M.PMorphism(chain2, F.normalize_frame([], 2), (0, 1))
    violation = M.check_p_morphism(antichain_image)
    assert violation is not None and violation.kind == "forth"
    assert violation.witness == (0, 1)


def test_check_reports_back_violation():
    chain2 = builtin("chain", 2)
    pm = M.PMorphism(builtin("point"), chain2, (0,))
    violation = M.check_p_morphism(pm)
    assert violation is not None and violation.kind == "back"


def test_check_reports_onto_violation():
    chain2 = builtin("chain", 2)
    pm = M.PMorphism(chain2, chain2, (1, 1))
    assert M.check_p_morphism(pm) is None
    violation = M.check_p_morphism(pm, require_onto=True)
    assert violation is not None and violation.kind == "onto"


def test_find_t2_onto_f1_is_isomorphism():
    pm = M.find_onto_p_morphism(builtin("T", 2), builtin("F1"))
    assert pm is not None
    assert sorted(pm.mapping) == [0, 1, 2, 3]
    assert M.check_p_morphism(pm, require_onto=True) is None


def test_find_cannot_map_point_onto_chain():
    assert M.find_onto_p_morphism(builtin("point"), builtin("chain", 2)) is None


def test_find_crisscross_host_onto_f3():
    # root below two depth-2 points that each see both maxima
    host = F.normalize_frame([(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4)], 5)
    pm = M.find_onto_p_morphism(host, builtin("F3"))
    assert pm is not None
    assert M.check_p_morphism(pm, require_onto=True) is None


def test_find_returns_lexicographically_least_map():
    source, target = builtin("G"), builtin("two_fork")
    pm = M.find_onto_p_morphism(source, target)
    oracle = naive_onto_p_morphisms(source, target)
    assert oracle and pm.mapping == min(oracle)


def test_find_agrees_with_naive_oracle():
    sources = [f for n in range(1, 5) for f in F.enumerate_frames(n)]
    targets = [g for n in range(1, 4) for g in F.enumerate_frames(n)]
    for source in sources:
        for target in targets:
            oracle = naive_onto_p_morphisms(source, target)
            pm = M.find_onto_p_morphism(source, target)
            assert (pm is not None) == bool(oracle)
            if pm is not None:
                assert pm.mapping == min(oracle)


def _upset_profile(frame):
    """Per world, by definition: depth, upset size, number of clusters in
    the upset, and whether the world sees every world."""
    n = frame.size
    depths = naive_depths(frame)
    profile = []
    for w in range(n):
        upset = [v for v in range(n) if frame.le(w, v)]
        clusters = {frozenset(u for u in range(n) if frame.le(u, v) and frame.le(v, u)) for v in upset}
        profile.append((depths[w], len(upset), len(clusters), len(upset) == n))
    return profile


def test_onto_p_morphisms_respect_the_pruning_lemmas():
    # every onto p-morphism meets the four conditions the search prunes by:
    # depth, upset size and upset cluster count do not grow, and a world
    # seeing everything maps to a world seeing everything
    sources = [f for n in range(1, 5) for f in F.enumerate_frames(n)]
    targets = [g for n in range(1, 4) for g in F.enumerate_frames(n)]
    checked = 0
    for source in sources:
        src = _upset_profile(source)
        for target in targets:
            tgt = _upset_profile(target)
            for mapping in naive_onto_p_morphisms(source, target):
                for w, v in enumerate(mapping):
                    assert tgt[v][0] <= src[w][0]
                    assert tgt[v][1] <= src[w][1]
                    assert tgt[v][2] <= src[w][2]
                    assert tgt[v][3] or not src[w][3]
                checked += 1
    assert checked == 513


def _shuffled_rooted_frame(rng, n):
    """A rooted frame on n worlds with random upward pairs, an occasional
    two-world cluster, and labels shuffled so that the root is not first."""
    pairs = [(0, j) for j in range(1, n)]
    pairs += [(i, j) for i in range(1, n) for j in range(i + 1, n) if rng.random() < 0.3]
    if rng.random() < 0.3:
        i = rng.randrange(1, n - 1)
        pairs += [(i, i + 1), (i + 1, i)]
    perm = list(range(n))
    rng.shuffle(perm)
    return F.normalize_frame([(perm[u], perm[w]) for u, w in pairs], n)


def _assert_same_as_reference(source, target):
    expected = reference_onto_p_morphism(source, target)
    pm = M.find_onto_p_morphism(source, target)
    assert (pm.mapping if pm is not None else None) == expected
    _assert_maxima_first_agrees(source, target, expected is not None)


def _assert_maxima_first_agrees(source, target, exists):
    pm = M.find_onto_p_morphism(source, target, least=False)
    assert (pm is not None) == exists
    if pm is not None:
        assert (pm.source, pm.target) == (source, target)
        assert M.check_p_morphism(pm, require_onto=True) is None


def test_maxima_first_search_agrees_with_reference_on_small_pairs():
    sources = [f for n in range(1, 6) for f in F.enumerate_frames(n)]
    targets = [g for n in range(1, 5) for g in F.enumerate_frames(n, "rooted")]
    found = 0
    for source in sources:
        for target in targets:
            exists = reference_onto_p_morphism(source, target) is not None
            _assert_maxima_first_agrees(source, target, exists)
            found += exists
    assert (len(sources) * len(targets), found) == (4070, 750)


@pytest.mark.parametrize("kind", ["s41-rooted", "2-roach"])
def test_permissible_matches_reference(kind):
    # the same generator, embedding and least map as searching every
    # generator for its least map alone
    configs = [builtin(name) for name in ("F1", "F2", "F3")]
    top = {"s41-rooted": 7, "2-roach": 8}[kind]
    hosts = [f for n in range(1, top + 1) for f in F.enumerate_frames(n, kind, ceiling=top)]
    found = 0
    for host in hosts:
        for config in configs:
            witness = M.is_permissible(config, host)
            assert witness == reference_is_permissible(config, host)
            found += witness is not None
    if kind == "2-roach":
        assert found == 0  # no 2-roach admits F1, F2 or F3
    else:
        assert 0 < found < 3 * len(hosts)


def test_find_matches_reference_on_census_subframes():
    configs = [builtin(name) for name in ("F1", "F2", "F3")]
    searched = 0
    for n in range(1, 7):
        for frame in F.enumerate_frames(n, "s41-rooted"):
            for g in frame.worlds():
                sub, _ = F.generated_subframe(frame, g)
                for config in configs:
                    _assert_same_as_reference(sub, config)
                    searched += 1
    assert searched == 2895


def test_find_matches_reference_on_shuffled_large_frames():
    rng = random.Random(20231)
    configs = [builtin(name) for name in ("F1", "F2", "F3")]
    found = moved_roots = 0
    for i in range(48):
        frame = _shuffled_rooted_frame(rng, 8 + i % 3)
        moved_roots += frame.up[0] != (1 << frame.size) - 1
        for config in configs:
            _assert_same_as_reference(frame, config)
            found += M.find_onto_p_morphism(frame, config) is not None
    assert moved_roots > 24
    assert 0 < found < 3 * 48


def compose(first, second):
    """The map that applies ``first``, then ``second``."""
    return M.PMorphism(first.source, second.target, tuple(second.mapping[v] for v in first.mapping))


def test_composition_of_verified_morphisms_verifies():
    big = [f for f in F.enumerate_frames(4, "rooted")]
    mids = [f for n in (2, 3) for f in F.enumerate_frames(n, "rooted")]
    smalls = [f for n in (1, 2) for f in F.enumerate_frames(n, "rooted")]
    composed = 0
    for a in big:
        for b in mids:
            first = M.find_onto_p_morphism(a, b)
            if first is None:
                continue
            for c in smalls:
                second = M.find_onto_p_morphism(b, c)
                if second is None:
                    continue
                both = compose(first, second)
                assert M.check_p_morphism(both, require_onto=True) is None
                composed += 1
    assert composed > 20


def test_upset_images_and_preimages():
    source, target = builtin("T", 2), builtin("F1")
    pm = M.find_onto_p_morphism(source, target)

    def is_upset(frame, mask):
        return all(frame.up[w] & ~mask == 0 for w in F.worlds_of(mask))

    for mask in range(1 << source.size):
        if is_upset(source, mask):
            image = F.mask_of(pm.mapping[w] for w in F.worlds_of(mask))
            assert is_upset(target, image)
    for mask in range(1 << target.size):
        if is_upset(target, mask):
            preimage = F.mask_of(w for w in source.worlds() if mask >> pm.mapping[w] & 1)
            assert is_upset(source, preimage)


def test_permissible_self():
    f1 = builtin("F1")
    found = M.is_permissible(f1, f1)
    assert found is not None and found.generator == 0
    assert found.morphism.mapping == (0, 1, 2, 3)


def test_permissible_needs_rooted_config():
    with pytest.raises(PreconditionError):
        M.is_permissible(F.normalize_frame([], 2), builtin("F1"))


def test_permissible_on_hosts_above_the_search_ceiling():
    # generators are tried smallest upset first, so a witness below the
    # ceiling is found before any larger upset is reached
    host = F.normalize_frame([(0, w) for w in range(1, 12)] + [(1, 2), (1, 3)], 12)
    found = M.is_permissible(builtin("two_fork"), host)
    assert (found.generator, found.embedding, found.morphism.mapping) == (1, (1, 2, 3), (0, 1, 2))
    assert found.morphism.source == F.generated_subframe(host, 1)[0]
    assert M.is_permissible(builtin("chain", 11), builtin("F1")) is None
    # with no witness below it, the first generator above the ceiling raises
    above = f"frames above SEARCH_CEILING = {M.SEARCH_CEILING} worlds are not searched"
    for config, host in ((builtin("two_fork"), builtin("chain", 12)),
                         (builtin("F1"), host),
                         (builtin("chain", 11), builtin("chain", 12))):
        with pytest.raises(PreconditionError, match=above):
            M.is_permissible(config, host)


def test_f1_not_permissible_in_small_2_roaches():
    f1 = builtin("F1")
    for n in range(1, 6):
        for host in F.enumerate_frames(n, "2-roach"):
            assert M.is_permissible(f1, host) is None


def test_t2_in_t3_only_via_the_root():
    t2, t3 = builtin("T", 2), builtin("T", 3)
    found = M.is_permissible(t2, t3)
    assert found is not None and found.generator == 0
    for g in range(1, t3.size):
        sub, _ = F.generated_subframe(t3, g)
        assert M.find_onto_p_morphism(sub, t2) is None


def test_collapse_f2_maxima():
    f2 = builtin("F2")
    quotient, pm = collapse(f2, [{2, 3}])
    assert quotient.size == 3
    assert M.check_p_morphism(pm, require_onto=True) is None
    # a two-cluster root below a single maximum
    expected = F.normalize_frame([(0, 1), (1, 0), (0, 2)], 3)
    assert F.are_isomorphic(quotient, expected)


def test_collapse_singletons_is_isomorphic_copy():
    f3 = builtin("F3")
    quotient, pm = collapse(f3, [{w} for w in f3.worlds()])
    assert F.are_isomorphic(quotient, f3)
    assert M.check_p_morphism(pm, require_onto=True) is None


def test_collapse_fork_maxima_gives_chain():
    quotient, pm = collapse(builtin("two_fork"), [{1, 2}])
    assert F.are_isomorphic(quotient, builtin("chain", 2))
    assert M.check_p_morphism(pm, require_onto=True) is None


def test_collapse_same_successor_antichain():
    # two depth-2 points with equal strict upsets merge even though the set
    # is not an upset
    host = F.normalize_frame([(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4)], 5)
    quotient, pm = collapse(host, [{1, 2}])
    assert quotient.size == 4
    assert M.check_p_morphism(pm, require_onto=True) is None


def test_collapse_rejects_bad_block():
    f1 = builtin("F1")
    with pytest.raises(CollapseError) as info:
        collapse(f1, [{0, 2}])  # neither an upset nor same-successor singletons
    assert "block 0" in str(info.value)
    with pytest.raises(CollapseError):
        collapse(f1, [{0}, {0, 1}])  # overlap
    with pytest.raises(CollapseError):
        collapse(builtin("F2"), [{0}])  # r1 sits in a proper cluster


def test_collapse_image_count_matches_naive_image_search():
    # every quotient by maximal-point subsets is found by the onto search too
    f = builtin("F3")
    maxima = [3, 4]
    for k in range(1, 3):
        for block in itertools.combinations(maxima, k):
            quotient, _ = collapse(f, [set(block)])
            assert M.find_onto_p_morphism(f, quotient) is not None
