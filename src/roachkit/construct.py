"""Unraveling: quasi-trees from rooted frames, willow trees from 2-roaches.

The quasi-tree construction works at cluster level: nodes are cover-paths of
clusters from the root cluster, each stored as a link to the path it extends
and its final cluster, and each node carries a copy of that cluster.  A frame
that is already a quasi-tree therefore unravels to an isomorphic copy.
"""

from __future__ import annotations

from ._record import record
from .errors import BudgetExceededError, PreconditionError
from .frames import (
    MAX_FRAME_WORLDS,
    Frame,
    classify_frame,
    clusters_and_skeleton,
    is_quasi_tree,
    mask_of,
    subframe,
    worlds_of,
)
from .morphisms import PMorphism, identity_morphism, verified_morphism
from . import roach as roach_mod

DEFAULT_NODE_BUDGET = MAX_FRAME_WORLDS


@record
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

    # nodes are (parent node, cluster) in depth-first preorder, so every
    # node comes before its descendants
    nodes: list[tuple[int, int]] = []
    stack = [(-1, pi[flags.roots[0]])]
    while stack:
        if len(nodes) >= node_budget:
            raise BudgetExceededError(f"unraveling exceeds the node budget {node_budget}")
        parent, c = stack.pop()
        stack.extend((len(nodes), d) for d in reversed(worlds_of(covers[c])))
        nodes.append((parent, c))

    mapping: list[int] = []  # tree world -> original world
    upsets = []  # per node, its cluster copy and every descendant's
    for _, c in nodes:
        upsets.append(((1 << len(partition[c])) - 1) << len(mapping))
        mapping.extend(partition[c])
    for i in range(len(nodes) - 1, 0, -1):
        upsets[nodes[i][0]] |= upsets[i]
    up = [upsets[i] for i, (_, c) in enumerate(nodes) for _ in partition[c]]
    tree = Frame(len(mapping), tuple(up))
    pm = verified_morphism(tree, frame, mapping)
    if not is_quasi_tree(tree, (1 << tree.size) - 1):
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

    ant_pos = {w: t.size + i for i, w in enumerate(antennae)}

    def lift(mask: int) -> int:  # antennae in a frame upset -> willow worlds
        return mask_of(ant_pos[w] for w in worlds_of(mask & frame.up[s]))

    mapping = tuple(body_embedding[t_map[x]] for x in range(t.size)) + antennae
    up = [t.up[x] | lift(frame.up[mapping[x]]) for x in range(t.size)]
    up += [lift(frame.up[w]) for w in antennae]
    willow = Frame(len(mapping), tuple(up))
    pm = verified_morphism(willow, frame, mapping)
    if roach_mod.is_willow_tree(willow) is None:
        raise AssertionError("willow construction did not produce a willow tree")
    return UnravelResult(willow, pm)
