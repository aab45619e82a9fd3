import sys

import pytest

from conftest import (
    is_partial_order,
    random_frames,
    reference_roach_to_willow,
    reference_unravel_to_quasi_tree,
)
from roachkit import construct as C
from roachkit import formulas as fm
from roachkit import frames as F
from roachkit import morphisms as M
from roachkit import roach as R
from roachkit import semantics as S
from roachkit.errors import BudgetExceededError, PreconditionError, RoachkitError


def test_unravel_tree_is_fixed_point():
    for name, arg in [("chain", 3), ("two_fork", None), ("T", 2), ("point", None)]:
        f = R.builtin(name, arg)
        result = C.unravel_to_quasi_tree(f)
        assert F.are_isomorphic(result.tree, f)
        assert M.check_p_morphism(result.morphism, require_onto=True) is None


def test_unravel_quasi_tree_with_clusters_is_fixed_point():
    # a two-cluster root below one maximum is already a quasi-tree
    f = F.normalize_frame([(0, 1), (1, 0), (0, 2)], 3)
    assert F.is_quasi_tree(f, 0b111)
    result = C.unravel_to_quasi_tree(f)
    assert F.are_isomorphic(result.tree, f)


def test_unravel_f3():
    result = C.unravel_to_quasi_tree(R.builtin("F3"))
    assert result.tree.size == 7  # both maxima duplicated under each middle
    assert is_partial_order(result.tree) and F.is_quasi_tree(result.tree, (1 << 7) - 1)
    assert F.frame_depth(result.tree) == 3
    assert M.check_p_morphism(result.morphism, require_onto=True) is None


def test_unravel_point():
    result = C.unravel_to_quasi_tree(R.builtin("point"))
    assert result.tree.size == 1


def test_unravel_poset_gives_tree():
    for n in range(1, 6):
        for f in F.enumerate_frames(n, "rooted"):
            result = C.unravel_to_quasi_tree(f)
            assert F.is_quasi_tree(result.tree, (1 << result.tree.size) - 1)
            if is_partial_order(f):
                assert is_partial_order(result.tree)
            assert M.check_p_morphism(result.morphism, require_onto=True) is None


def _outcome(construction, frame, budget):
    try:
        result = construction(frame, node_budget=budget)
    except RoachkitError as exc:
        return type(exc), str(exc)
    return result.tree, result.morphism.mapping


BUDGETS = (1, 3, 6, C.DEFAULT_NODE_BUDGET)


def test_unravel_and_willow_match_path_references():
    rooted = [f for n in range(1, 7) for f in F.enumerate_frames(n, "rooted")]
    rooted += random_frames(13, 300, 12, rooted=True)
    outcomes = []
    for f in rooted + list(R.two_roach_classes(7)):
        for budget in BUDGETS:
            got = _outcome(C.unravel_to_quasi_tree, f, budget)
            assert got == _outcome(reference_unravel_to_quasi_tree, f, budget)
            outcomes.append(got[0])
            got = _outcome(C.roach_to_willow, f, budget)
            assert got == _outcome(reference_roach_to_willow, f, budget)
            outcomes.append(got[0])
    # of 6,480 outcomes: budget errors, frames that are not 2-roaches, and
    # trees larger than 8 worlds
    assert outcomes.count(BudgetExceededError) > 1500
    assert outcomes.count(PreconditionError) > 1000
    assert sum(isinstance(x, F.Frame) and x.size > 8 for x in outcomes) > 300


def test_unravel_does_not_recurse():
    chain = F.normalize_frame([(w, w + 1) for w in range(399)], 400)
    depth, caller = 0, sys._getframe()
    while caller is not None:
        depth, caller = depth + 1, caller.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        result = C.unravel_to_quasi_tree(chain)
    finally:
        sys.setrecursionlimit(limit)
    assert result.tree == chain
    assert result.morphism.mapping == tuple(range(400))


def test_unravel_needs_rooted():
    with pytest.raises(PreconditionError):
        C.unravel_to_quasi_tree(F.normalize_frame([], 2))


def test_unravel_node_budget():
    with pytest.raises(BudgetExceededError):
        C.unravel_to_quasi_tree(R.builtin("F3"), node_budget=3)


def test_unravel_preserves_validity_downward():
    # validity on the unravelled tree implies validity on the image
    axioms = [fm.axiom("ma"), fm.axiom("ga"), fm.axiom("bd", 2), fm.axiom("bd", 3)]
    for n in range(1, 5):
        for f in F.enumerate_frames(n, "rooted"):
            result = C.unravel_to_quasi_tree(f)
            for phi in axioms:
                if S.frame_validates(result.tree, phi):
                    assert S.frame_validates(f, phi)


def test_willow_of_two_fork_is_itself():
    fork = R.builtin("two_fork")
    result = C.roach_to_willow(fork)
    assert result.tree == fork
    assert result.morphism.mapping == (0, 1, 2)


def test_willow_idempotent_on_willow_trees():
    for n in range(1, 6):
        for f in F.enumerate_frames(n, "willow"):
            result = C.roach_to_willow(f)
            assert result.tree == f
            assert result.morphism.mapping == tuple(f.worlds())


def test_willow_poset_input_gives_poset_tree():
    # partially ordered 2-roach whose body needs unraveling
    f = F.normalize_frame([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5)], 6)
    assert is_partial_order(f)
    assert R.is_willow_tree(f) is None
    result = C.roach_to_willow(f)
    assert is_partial_order(result.tree)
    assert R.is_willow_tree(result.tree) is not None
    assert M.check_p_morphism(result.morphism, require_onto=True) is None


def test_willow_diamond_body():
    # body is a diamond poset: the unraveling must split the top of the
    # diamond into two branches
    f = F.normalize_frame([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6)], 7)
    cert = R.is_2_roach(f)
    assert cert is not None and cert.s == 4
    result = C.roach_to_willow(f)
    assert result.tree.size == 8  # diamond top duplicated, antennae kept
    assert R.is_willow_tree(result.tree) is not None
    assert M.check_p_morphism(result.morphism, require_onto=True) is None


def test_willow_morphism_is_identity_on_antennae():
    f = F.normalize_frame([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6)], 7)
    cert = R.is_2_roach(f)
    assert cert is not None
    result = C.roach_to_willow(f)
    s = cert.s
    antennae = set(F.worlds_of(f.up[s]))
    mapped = {result.morphism.mapping[w] for w in result.tree.worlds()
              if result.morphism.mapping[w] in antennae}
    assert mapped == antennae
    for w in result.tree.worlds():
        image = result.morphism.mapping[w]
        if image in antennae:
            # each antenna world has exactly one preimage, itself under the
            # recorded indexing
            preimages = [x for x in result.tree.worlds() if result.morphism.mapping[x] == image]
            assert len(preimages) == 1


def test_willow_needs_2_roach():
    with pytest.raises(PreconditionError):
        C.roach_to_willow(R.builtin("F3"))


def test_willow_exhaustive_small():
    for n in range(1, 6):
        for f in F.enumerate_frames(n, "2-roach"):
            result = C.roach_to_willow(f)
            assert R.is_willow_tree(result.tree) is not None
            assert M.check_p_morphism(result.morphism, require_onto=True) is None
            assert result.morphism.target == f


def test_skeleton_of_willow_tree_is_poset_willow_tree():
    for n in range(1, 7):
        for f in F.enumerate_frames(n, "willow"):
            _, skeleton, _ = F.clusters_and_skeleton(f)
            assert is_partial_order(skeleton)
            assert R.is_willow_tree(skeleton) is not None


def test_refutations_lift_to_willow_unravelings():
    # the willow tree mapping onto a countermodel is itself a countermodel
    axioms = [fm.axiom("ga"), fm.axiom("bd", 2), fm.axiom("bd", 3), fm.axiom("grz")]
    for n in range(1, 6):
        for f in F.enumerate_frames(n, "2-roach"):
            willow = C.roach_to_willow(f).tree
            for phi in axioms:
                if not S.frame_validates(f, phi):
                    assert not S.frame_validates(willow, phi)
