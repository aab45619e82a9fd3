"""Unraveling: quasi-trees from rooted frames, willow trees from 2-roaches.

The quasi-tree construction works at cluster level: nodes are cover-paths of
clusters from the root cluster, and each node carries a copy of its final
cluster.  A frame that is already a quasi-tree therefore unravels to an
isomorphic copy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceededError, PreconditionError
from .frames import (
    MAX_FRAME_WORLDS,
    Frame,
    classify_frame,
    clusters_and_skeleton,
    subframe,
    worlds_of,
)
from .morphisms import PMorphism, identity_morphism, verified_morphism
from . import roach as roach_mod

DEFAULT_NODE_BUDGET = MAX_FRAME_WORLDS


@dataclass(frozen=True)
class UnravelResult:
    tree: Frame
    morphism: PMorphism  # onto the input frame


def _cover_masks(skeleton: Frame) -> list[int]:
    """Per skeleton point, the points it covers: its strict successors that
    are no strict successor's strict successors."""
    strict = [mask & ~(1 << c) for c, mask in enumerate(skeleton.up)]
    covers = []
    for mask in strict:
        mediated = 0
        for e in worlds_of(mask):
            mediated |= strict[e]
        covers.append(mask & ~mediated)
    return covers


def unravel_to_quasi_tree(frame: Frame, node_budget: int = DEFAULT_NODE_BUDGET) -> UnravelResult:
    """A quasi-tree mapping onto the frame via a verified p-morphism.

    Partially ordered inputs yield trees.  Raises when the path count would
    exceed the node budget.
    """
    flags = classify_frame(frame)
    if not flags.rooted:
        raise PreconditionError("unraveling needs a rooted frame")
    partition, skeleton, pi = clusters_and_skeleton(frame)
    covers = _cover_masks(skeleton)
    root_cluster = pi[flags.roots[0]]

    paths: list[tuple[int, ...]] = []

    def grow(path: tuple[int, ...]):
        if len(paths) >= node_budget:
            raise BudgetExceededError(f"unraveling exceeds the node budget {node_budget}")
        paths.append(path)
        for d in worlds_of(covers[path[-1]]):
            grow(path + (d,))

    grow((root_cluster,))

    worlds = []  # (path index, original world)
    for idx, path in enumerate(paths):
        for w in partition[path[-1]]:
            worlds.append((idx, w))
    n = len(worlds)
    up = [0] * n
    for i, (pi_idx, _) in enumerate(worlds):
        p = paths[pi_idx]
        for j, (qi_idx, _) in enumerate(worlds):
            q = paths[qi_idx]
            if len(q) >= len(p) and q[: len(p)] == p:
                up[i] |= 1 << j
    tree = Frame(n, tuple(up))
    pm = verified_morphism(tree, frame, (w for _, w in worlds))
    if not classify_frame(tree).quasi_tree:
        raise AssertionError("unraveling did not produce a quasi-tree")
    return UnravelResult(tree, pm)


def roach_to_willow(frame: Frame, node_budget: int = DEFAULT_NODE_BUDGET) -> UnravelResult:
    """A willow tree mapping onto the given 2-roach.

    Willow trees return themselves with the identity map.  Otherwise the
    subframe outside the splitting point's upset is unravelled into a
    quasi-tree and the upset is grafted back on top, with the morphism the
    unraveling map extended by the identity.
    """
    cert = roach_mod.is_2_roach(frame)
    if cert is None:
        raise PreconditionError("input is not a 2-roach")
    if roach_mod.is_willow_tree(frame) is not None:
        return UnravelResult(frame, identity_morphism(frame))

    flags = classify_frame(frame)
    if flags.s412:
        s = flags.max_points[0]
    else:
        s = cert.s
    antennae = worlds_of(frame.up[s])
    body_mask = ((1 << frame.size) - 1) & ~frame.up[s]
    body_worlds = worlds_of(body_mask)
    body, body_embedding = subframe(frame, body_worlds)
    unravelled = unravel_to_quasi_tree(body, node_budget=node_budget)
    t = unravelled.tree
    t_map = unravelled.morphism.mapping  # tree world -> body world

    n = t.size + len(antennae)
    ant_pos = {w: t.size + i for i, w in enumerate(antennae)}
    up = []
    for x in range(t.size):
        mask = t.up[x]
        fx = body_embedding[t_map[x]]
        for w in antennae:
            if frame.le(fx, w):
                mask |= 1 << ant_pos[w]
        up.append(mask)
    for w in antennae:
        mask = 0
        for v in antennae:
            if frame.le(w, v):
                mask |= 1 << ant_pos[v]
        up.append(mask)
    willow = Frame(n, tuple(up))
    mapping = tuple(body_embedding[t_map[x]] for x in range(t.size)) + tuple(antennae)
    pm = verified_morphism(willow, frame, mapping)
    if roach_mod.is_willow_tree(willow) is None:
        raise AssertionError("willow construction did not produce a willow tree")
    return UnravelResult(willow, pm)
