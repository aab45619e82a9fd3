"""Built-in frames, roach and willow-tree recognizers with certificates, and
the constructive minimal-forbidden-configuration extractor.

An n-roach is a finite rooted frame (every world below some maximal point)
with a splitting point s of depth at most n whose upset is partially ordered
and meets every upset in a principal one.  ``is_2_roach`` is
``splitting_certificate`` at bound 2, which amounts to the recursive
characterization: since the upset of s meets the upset of every maximum, s
has exactly the maxima above it, and every world outside its downset sees a
unique maximal point.

``minimal_forbidden_witness`` writes its maps onto F1, F2 and F3 directly on
a point-generated subframe, each checked once.  The proof builds them through
quotients (collapsed groups of maxima, one-sided upsets, clusters); the maps
are the same, because each quotient orders its blocks by least member.
"""

from __future__ import annotations

import itertools

from ._record import record
from .errors import PreconditionError
from .frames import (
    MAX_FRAME_WORLDS,
    Frame,
    _classes,
    _closed_frame,
    _preorder_classes,
    _rooted_classes,
    classify_frame,
    cluster_masks,
    depth_vector,
    downset_mask,
    generated_subframe,
    is_quasi_tree,
    mask_of,
    normalize_frame,
    worlds_of,
)
from .morphisms import PMorphism, verified_morphism

FORBIDDEN_NAMES = ("F1", "F2", "F3")


def builtin(name: str, n: int | None = None) -> Frame:
    """Construct a named frame.

    F1: r < v < m1, r < m2 (the tall two-fork, same shape as T(2)).
    F2: a two-cluster root {r1, r2} below maxima m1, m2 (also called G).
    F3: r < v1, v2 where each vi sees both maxima m1, m2 (the crisscross).
    T(n): root below a chain w1 < ... < wn and below a lone maximal v.
    two_fork: root below two incomparable maxima.
    chain(k): a k-element chain.  point: one reflexive world.
    """
    if name == "F1":
        return normalize_frame([(0, 1), (1, 2), (0, 3)], 4, labels=("r", "v", "m1", "m2"))
    if name in ("F2", "G"):
        return normalize_frame(
            [(0, 1), (1, 0), (0, 2), (1, 3)], 4, labels=("r1", "r2", "m1", "m2")
        )
    if name == "F3":
        return normalize_frame(
            [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4)],
            5,
            labels=("r", "v1", "v2", "m1", "m2"),
        )
    if name == "T":
        if n is None or not 1 <= n <= MAX_FRAME_WORLDS - 2:
            raise PreconditionError(f"T needs a chain length 1 <= n <= {MAX_FRAME_WORLDS - 2}")
        pairs = [(0, 1)] + [(i, i + 1) for i in range(1, n)] + [(0, n + 1)]
        labels = ("r",) + tuple(f"w{i}" for i in range(1, n + 1)) + ("v",)
        return normalize_frame(pairs, n + 2, labels=labels)
    if name == "two_fork":
        return normalize_frame([(0, 1), (0, 2)], 3, labels=("r", "m1", "m2"))
    if name == "chain":
        if n is None or not 1 <= n <= MAX_FRAME_WORLDS:
            raise PreconditionError(f"chain needs a length 1 <= k <= {MAX_FRAME_WORLDS}")
        return normalize_frame([(i, i + 1) for i in range(n - 1)], n)
    if name == "point":
        return normalize_frame([], 1)
    raise PreconditionError(f"unknown builtin frame {name!r}")


@record
class SplittingCertificate:
    """Evidence that a frame is an n-roach: the splitting point ``s``, the
    depth bound, and for each world the point generating its upset's meet
    with the upset of ``s``."""

    s: int
    bound: int
    t: tuple[int, ...]


@record
class ForbiddenWitness:
    which: str
    generator: int
    embedding: tuple[int, ...]
    morphism: PMorphism


def _require_frame(frame: Frame) -> None:
    flags = classify_frame(frame)
    if not flags.rooted:
        raise PreconditionError("operation needs a rooted frame")
    if not flags.s41:
        raise PreconditionError("operation needs every world below a maximal point")


def _splitting_t_map(frame: Frame, s: int) -> tuple[int, ...] | None:
    """The t-map witnessing s as a splitting point, or None."""
    cmasks = cluster_masks(frame)
    up_s = frame.up[s]
    for w in worlds_of(up_s):
        if cmasks[w] & up_s != 1 << w:
            return None  # upset of s is not partially ordered
    t = []
    for w in frame.worlds():
        meet = frame.up[w] & up_s
        found = next((v for v in worlds_of(meet) if frame.up[v] == meet), None)
        if found is None:
            return None
        t.append(found)
    return tuple(t)


def splitting_points(frame: Frame, bound: int):
    """All worlds usable as splitting points within the depth bound,
    ascending, each with its t-map."""
    depths = depth_vector(frame)
    for s in frame.worlds():
        if depths[s] > bound:
            continue
        t = _splitting_t_map(frame, s)
        if t is not None:
            yield s, t


def splitting_certificate(frame: Frame, bound: int) -> SplittingCertificate | None:
    """Certificate that the frame is a ``bound``-roach, scanning candidate
    splitting points in index order; None when no point qualifies.

    At bound 2 the roaches are closed under onto p-morphic images; at
    bound 3 they are not.  The 8-world 3-roach with edges 0 < 1..7,
    1 < 3, 5, 6, 7, 2 < 4, 5, 6 and 3, 4, 5 < 6 has this certificate with
    s = 1, and the map (0, 1, 2, 3, 3, 5, 6, 4) takes it onto the 7-world
    frame with edges 0 < 1..6, 1 < 3, 4, 5, 6, 2 < 3, 5, 6 and 3, 5 < 6,
    which has no splitting point of depth at most 3: the images of worlds
    3 and 4 merge, so the upsets of 1 and 2 no longer meet in the upset of
    one world."""
    if bound < 1:
        raise PreconditionError("roach depth bound must be at least 1")
    _require_frame(frame)
    for s, t in splitting_points(frame, bound):
        return SplittingCertificate(s, bound, t)
    return None


def verify_splitting(frame: Frame, cert: SplittingCertificate) -> bool:
    """True when ``cert`` names a world of the frame within its depth bound
    and that world's t-map, which is unique, because a splitting point's
    upset is partially ordered."""
    if not 0 <= cert.s < frame.size or depth_vector(frame)[cert.s] > cert.bound:
        return False
    return cert.t == _splitting_t_map(frame, cert.s)


def is_2_roach(frame: Frame) -> SplittingCertificate | None:
    """Decide 2-roachness: the certificate ``splitting_certificate`` finds
    at bound 2.

    This is the recursive characterization's certificate.  A splitting
    point's upset meets the upset of every maximum in a principal, hence
    nonempty, upset, so it holds every maximum; being partially ordered and
    of depth at most 2, it is {s} + maxima.  Outside the downset of s each
    meet is then a set of maxima, principal exactly when it is a single
    maximum.  So s is the first world with upset {s} + maxima below which
    every other world sees one maximum, and t sends the downset of s to s
    and every other world to its maximum.
    """
    return splitting_certificate(frame, 2)


def two_roach_classes(n: int) -> tuple[Frame, ...]:
    """One 2-roach per isomorphism class on ``n`` worlds, in canonical-key
    order, built from the pieces of the characterization ``is_2_roach``
    decides instead of filtered from every preorder.

    With one maximal point the frame is a rooted preorder below a simple
    top.  With k >= 2 maxima there is a simple point s seeing exactly them,
    and its downset is either s alone (the k-fork) or a rooted preorder R
    below s.  Each maximum m_i has a tail: a possibly empty preorder whose
    worlds see m_i and no other maximum.  R sees the tails through an
    antitone map from its worlds to upsets of their union, and its root
    sees every tail world.  Candidates are laid out as R, s, the tails, the
    maxima, and the first candidate of each class is kept.  The rooted
    pieces come from ``frames._rooted_classes``, which builds them from
    smaller classes in turn, so no preorder class on more than n - 2 worlds
    is built.
    """
    if n == 1:
        return (Frame(1, (1,)),)
    return _classes(itertools.chain(_one_maximum(n), _several_maxima(n)))


def _one_maximum(n: int):
    top = 1 << (n - 1)
    for body in _rooted_classes(n - 1):
        yield _closed_frame(n, tuple(mask | top for mask in body.up) + (top,))


def _several_maxima(n: int):
    for k in range(2, n):
        rest = n - 1 - k  # worlds other than s and the maxima
        if rest == 0:
            yield Frame(n, ((1 << n) - 1,) + tuple(1 << m for m in range(1, n)))
        for below in range(1, rest + 1):
            t = rest - below
            # a tail is given by its upset masks; () is the empty tail
            tails = [()] + [f.up for m in range(1, t + 1) for f in _preorder_classes(m)]
            for body in _rooted_classes(below):
                for chosen in itertools.combinations_with_replacement(tails, k):
                    if sum(map(len, chosen)) == t:
                        yield from _with_tails(body, chosen)


def _with_tails(body: Frame, tails: tuple[tuple[int, ...], ...]):
    """Every frame with ``body`` below s, one tail per maximum, and an
    antitone map sending the body's root to all of the tails."""
    b, t, k = body.size, sum(map(len, tails)), len(tails)
    s, first_max = b, b + 1 + t
    n = first_max + k
    maxima = ((1 << k) - 1) << first_max
    up = [0] * b + [(1 << s) | maxima]
    for i, tail in enumerate(tails):
        offset = len(up)
        up.extend((mask << offset) | (1 << (first_max + i)) for mask in tail)
    up.extend(1 << m for m in range(first_max, n))
    tail_mask = ((1 << t) - 1) << (s + 1)
    upsets = [mask for mask in (sub << (s + 1) for sub in range(1 << t))
              if all(not up[x] & tail_mask & ~mask for x in worlds_of(mask))]
    full = (1 << b) - 1
    free = [w for w in range(b) if body.up[w] != full]
    for choice in itertools.product(upsets, repeat=len(free)):
        seen = [tail_mask] * b
        for w, mask in zip(free, choice):
            seen[w] = mask
        if any(seen[v] & ~seen[w] for w in free for v in worlds_of(body.up[w])):
            continue
        for w in range(b):
            up[w] = body.up[w] | (1 << s) | maxima | seen[w]
        yield _closed_frame(n, tuple(up))


def is_willow_tree(frame: Frame) -> SplittingCertificate | None:
    """A 2-roach is a willow tree when, for some splitting point, the
    subframe outside its upset is a quasi-tree (or empty).  That subframe
    is a downset, so it is tested on the frame's own masks."""
    _require_frame(frame)
    full = (1 << frame.size) - 1
    for s, t in splitting_points(frame, 2):
        if is_quasi_tree(frame, full & ~frame.up[s]):
            return SplittingCertificate(s, 2, t)
    return None


# ---------------------------------------------------------------------------
# constructive extraction of a minimal forbidden configuration


def _witness(frame: Frame, which: str, g: int, cases) -> ForbiddenWitness:
    """The verified map from the subframe generated at g onto the forbidden
    frame ``which``, sending each world to the target world labelled by the
    first ``(mask, label)`` case whose mask holds it; the mask -1 holds
    every world."""
    target = builtin(which)
    sub, embedding = generated_subframe(frame, g)
    mapping = [target.labels.index(next(label for mask, label in cases if mask >> x & 1))
               for x in embedding]
    return ForbiddenWitness(which, g, embedding, verified_morphism(sub, target, mapping))


def _quasi_maximal_in(frame: Frame, region_mask: int) -> int:
    """Least world of the region whose strict successors leave the region."""
    cmasks = cluster_masks(frame)
    for q in worlds_of(region_mask):
        if frame.up[q] & region_mask & ~cmasks[q] == 0:
            return q
    raise AssertionError("nonempty region of a finite frame has a quasi-maximal point")


def _crisscross(frame: Frame, a: int, b: int, max_mask: int) -> ForbiddenWitness:
    """a and b have depth 2 in distinct clusters and both see two or more
    maxima: a map onto F3.

    The maxima split into two groups that a and b both see.  The worlds that
    see one group only go to m1 or m2, the side with the smaller least world
    to m1.  ``tops`` are the maximal clusters of the worlds seeing both
    groups, other than a's, and q is quasi-maximal below a and a top: q's
    cluster goes to r, the rest of the downset of a to v1, the rest to v2.
    """
    common = frame.up[a] & frame.up[b] & max_mask
    if common:
        group1 = common & -common
    else:
        m_a, m_b = frame.up[a] & max_mask, frame.up[b] & max_mask
        group1 = (m_a & -m_a) | (m_b & -m_b)
    sees1 = downset_mask(frame, group1)
    sees2 = downset_mask(frame, max_mask & ~group1)
    both = sees1 & sees2
    cmasks = cluster_masks(frame)
    tops = mask_of(w for w in worlds_of(both & ~cmasks[a]) if not frame.up[w] & both & ~cmasks[w])
    below_a = downset_mask(frame, 1 << a)
    q = _quasi_maximal_in(frame, below_a & downset_mask(frame, tops))
    side1, side2 = sorted((sees1 & ~sees2, sees2 & ~sees1), key=lambda side: side & -side)
    cases = [(side1, "m1"), (side2, "m2"), (cmasks[q], "r"), (below_a, "v1"), (-1, "v2")]
    return _witness(frame, "F3", q, cases)


def _tall_two_fork(frame: Frame, groups: list[int], region: int,
                   max_mask: int) -> ForbiddenWitness:
    """A map onto F1 from the quasi-maximal world q of ``region``, whose
    worlds see two of the groups of maxima.

    The least world y strictly above q's cluster that is not a maximum sees
    one group only: its maxima go to m1, the other worlds that see it to v,
    q's cluster to r, and everything else to m2.
    """
    q = _quasi_maximal_in(frame, region)
    cq = cluster_masks(frame)[q]
    others = frame.up[q] & ~(cq | max_mask)
    y = (others & -others).bit_length() - 1
    group = next(g for g in groups if frame.up[y] & g)
    cases = [(group, "m1"), (cq, "r"), (downset_mask(frame, group), "v"), (-1, "m2")]
    return _witness(frame, "F1", q, cases)


def minimal_forbidden_witness(frame: Frame) -> ForbiddenWitness:
    """For a rooted S4.1 frame that is not a 2-roach, produce a verified
    onto p-morphism from a point-generated subframe onto one of F1, F2, F3.

    Mirrors the constructive case split.  Two depth-2 points seeing several
    maxima give F2 when they share a cluster and F3 otherwise.  At most one
    such point gives F1, the tall two fork, at a world seeing two groups of
    maxima: each maximum is a group when the point sees every maximum, and
    otherwise the maxima it sees (or the least maximum) and the rest.

    Each map is written directly on the generated subframe.  The proof
    reaches it through quotients (the groups of maxima, then for F3 the
    one-sided upsets, the clusters and the other depth-2 points) and pulls
    the last map back; that gives the same maps, because every quotient
    orders its blocks by least member, so index order and least worlds carry
    over.
    """
    _require_frame(frame)
    if is_2_roach(frame) is not None:
        raise PreconditionError("frame is a 2-roach; no forbidden configuration exists")
    max_mask = mask_of(classify_frame(frame).max_points)
    depths = depth_vector(frame)
    fat = [w for w in frame.worlds()
           if depths[w] == 2 and (frame.up[w] & max_mask).bit_count() >= 2]

    if len(fat) >= 2:
        a = fat[0]
        cmask_a = cluster_masks(frame)[a]
        if not any((cmask_a >> w) & 1 for w in fat[1:]):
            return _crisscross(frame, a, fat[1], max_mask)
        m_a = frame.up[a] & max_mask
        cases = [(1 << a, "r1"), (cmask_a, "r2"), (m_a & -m_a, "m1"), (-1, "m2")]
        return _witness(frame, "F2", a, cases)

    if fat and frame.up[fat[0]] & max_mask == max_mask:
        # q lies outside the downset of the fat point
        below_s = downset_mask(frame, 1 << fat[0])
        region = mask_of(w for w in frame.worlds()
                         if not (below_s >> w) & 1 and (frame.up[w] & max_mask).bit_count() >= 2)
        return _tall_two_fork(frame, [1 << m for m in worlds_of(max_mask)], region, max_mask)

    group1 = frame.up[fat[0]] & max_mask if fat else max_mask & -max_mask
    group2 = max_mask & ~group1
    region = downset_mask(frame, group1) & downset_mask(frame, group2)
    return _tall_two_fork(frame, [group1, group2], region, max_mask)
