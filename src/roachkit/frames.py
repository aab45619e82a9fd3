"""Finite quasi-ordered frames: construction, order queries, and enumeration.

Worlds are dense integer indices ``0..size-1``; display labels are cosmetic.
The accessibility relation is stored as one upset bitmask per world, which
keeps order queries, canonicalization, and exhaustive enumeration cheap at
the sizes this library targets (single-digit world counts).
"""

from __future__ import annotations

import itertools
import json
import operator
from functools import lru_cache, wraps

from ._record import record
from .errors import CeilingExceededError, FrameFormatError

ENUMERATION_CEILING = 6

# Largest ``size`` that frame JSON may declare.  Reading a frame allocates a
# bitmask of up to ``size`` bits per world, so an unchecked size can exhaust
# memory before any edge is read.  The default unraveling budget
# (``construct.DEFAULT_NODE_BUDGET``) is this same number.
MAX_FRAME_WORLDS = 4096

FILTER_NAMES = ("all", "rooted", "s41-rooted", "2-roach", "willow")


@record
class Frame:
    """A finite reflexive-transitive frame.

    ``up[w]`` is the bitmask of worlds reachable from ``w``, including ``w``
    itself.  Instances are validated on construction, so every ``Frame`` in
    circulation is a genuine preorder.
    """

    size: int
    up: tuple[int, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.size < 1:
            raise FrameFormatError("a frame needs at least one world")
        if len(self.up) != self.size:
            raise FrameFormatError("up-mask count does not match size")
        full = (1 << self.size) - 1
        for w, mask in enumerate(self.up):
            if mask & ~full:
                raise FrameFormatError(f"world {w} reaches out-of-range worlds")
            if not (mask >> w) & 1:
                raise FrameFormatError(f"relation is not reflexive at world {w}")
        for w, mask in enumerate(self.up):
            if _union(self.up, mask) != mask:
                raise FrameFormatError(f"relation is not transitive at world {w}")
        if self.labels is not None and len(self.labels) != self.size:
            raise FrameFormatError("label count does not match size")

    def le(self, u: int, w: int) -> bool:
        return bool((self.up[u] >> w) & 1)

    def worlds(self) -> range:
        return range(self.size)

    def label(self, w: int) -> str:
        return self.labels[w] if self.labels else str(w)

    def pairs(self) -> list[tuple[int, int]]:
        """All related pairs (u, w) with u <= w."""
        return [(u, w) for u in self.worlds() for w in worlds_of(self.up[u])]

    def __repr__(self):
        edges = [(u, w) for u, w in self.pairs() if u != w]
        return f"Frame(size={self.size}, edges={edges})"


def _closed_frame(size: int, up: tuple[int, ...]) -> Frame:
    """A frame built without ``Frame``'s check, for the enumeration's
    candidates, whose upsets are reflexive and transitive by construction.
    Frames from outside the library always go through ``Frame(...)``."""
    frame = object.__new__(Frame)
    for name, value in (("size", size), ("up", up), ("labels", None)):
        object.__setattr__(frame, name, value)
    return frame


def _closure(up: list[int]) -> tuple[int, ...]:
    """Transitive closure in one Warshall pass: after step ``k``, every
    upset that holds world ``k`` holds ``k``'s upset too."""
    for k in range(len(up)):
        bit, row = 1 << k, up[k]
        if row != bit:  # a world that sees only itself adds nothing
            up = [mask | row if mask & bit else mask for mask in up]
    return tuple(up)


def normalize_frame(pairs, size, labels=None, strict=False) -> Frame:
    """Build a frame from generator edges, closing under reflexivity and
    transitivity.  With ``strict=True`` the input must already be closed.
    """
    up = [1 << w for w in range(size)]
    for u, w in pairs:
        if not (0 <= u < size and 0 <= w < size):
            raise FrameFormatError(f"edge ({u}, {w}) out of range for size {size}")
        up[u] |= 1 << w
    closed = _closure(up)
    if strict and tuple(up) != closed:
        raise FrameFormatError("relation is not reflexive-transitive closed (strict mode)")
    return Frame(size, closed, tuple(labels) if labels else None)


def _per_frame(fn):
    """Memoize ``fn(frame)`` in the frame's own ``__dict__``, so the value is
    computed once per frame object and freed with it."""
    slot = "_" + fn.__name__

    @wraps(fn)
    def memo(frame):
        if slot not in frame.__dict__:
            frame.__dict__[slot] = fn(frame)
        return frame.__dict__[slot]
    return memo


def _order_data(up: tuple[int, ...]):
    """One pass over the upsets: per world, its successors (as a world
    list), its down mask, its cluster mask and its depth, the longest
    strictly ascending chain of clusters from it.

    The three mask views, ``down_masks``, ``cluster_masks`` and
    ``depth_vector``, are kept on the frame by ``_order_views``, so they
    cost one pass per frame between them.  The successor lists are not
    kept: they take about 1 KB per frame, and the enumeration candidates
    that ``canonical_key`` passes here are looked at once.  A caller that
    needs predecessor lists reads them off the down masks with
    ``worlds_of``.

    An upset of a frame can be passed as the frame's upsets with every
    world outside it given the empty mask: an upset holds its members'
    upsets, so its members get exactly their data in the frame, and the
    pass walks the related pairs of the upset alone.  The
    permissibility search (``morphisms.is_permissible``) passes a big
    host's searchable part this way.
    """
    n = len(up)
    succ = [worlds_of(mask) for mask in up]
    down = [0] * n
    for u in range(n):
        bit = 1 << u
        for w in succ[u]:
            down[w] |= bit
    cluster = list(map(operator.and_, up, down))
    # a strict successor has a smaller upset, so it is finished first
    depth = [0] * n
    for w in sorted(range(n), key=[mask.bit_count() for mask in up].__getitem__):
        c, best = cluster[w], 0
        for v in succ[w]:
            if depth[v] > best and not (c >> v) & 1:
                best = depth[v]
        depth[w] = best + 1
    return succ, down, cluster, depth


@_per_frame
def _order_views(frame: Frame) -> tuple[tuple[int, ...], ...]:
    """``(down_masks, cluster_masks, depth_vector)`` from one order pass."""
    _, down, cluster, depth = _order_data(frame.up)
    return tuple(down), tuple(cluster), tuple(depth)


def down_masks(frame: Frame) -> tuple[int, ...]:
    return _order_views(frame)[0]


def mask_of(worlds) -> int:
    m = 0
    for w in worlds:
        m |= 1 << w
    return m


# the worlds of each byte value, ascending
_BYTE_WORLDS = tuple(tuple(w for w in range(8) if (b >> w) & 1) for b in range(256))


def worlds_of(mask: int) -> tuple[int, ...]:
    """The worlds in ``mask``, ascending, read a byte at a time."""
    if not mask >> 8:
        return _BYTE_WORLDS[mask]
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    rest = data.lstrip(b"\0")  # the low zero bytes hold no world
    return tuple([8 * i + w for i, byte in enumerate(rest, len(data) - len(rest)) if byte
                  for w in _BYTE_WORLDS[byte]])


def _union(masks, seed_mask: int) -> int:
    """The union of ``masks[w]`` over the worlds ``w`` in ``seed_mask``."""
    acc = 0
    for w in worlds_of(seed_mask):
        acc |= masks[w]
    return acc


def downset_mask(frame: Frame, seed_mask: int) -> int:
    return _union(down_masks(frame), seed_mask)


def cluster_masks(frame: Frame) -> tuple[int, ...]:
    """Per-world bitmask of its cluster (mutual-reachability class)."""
    return _order_views(frame)[1]


def clusters_and_skeleton(frame: Frame):
    """Partition into clusters plus the induced partial order on them.

    Returns ``(partition, skeleton, pi)`` where ``partition`` lists clusters
    as sorted world tuples (ordered by least member), ``skeleton`` is the
    quotient frame, and ``pi[w]`` is the cluster index of world ``w``.
    """
    cmasks = cluster_masks(frame)
    seen = {}
    partition = []
    pi = [0] * frame.size
    for w in frame.worlds():
        m = cmasks[w]
        if m not in seen:
            seen[m] = len(partition)
            partition.append(worlds_of(m))
        pi[w] = seen[m]
    up = tuple(mask_of(pi[w] for w in worlds_of(frame.up[members[0]])) for members in partition)
    skeleton = Frame(len(partition), up)
    return partition, skeleton, tuple(pi)


def depth_vector(frame: Frame) -> tuple[int, ...]:
    """Depth of each world: longest strictly ascending chain of clusters."""
    return _order_views(frame)[2]


def frame_depth(frame: Frame) -> int:
    """Depth of the frame: the depth at a root (max depth if non-rooted)."""
    return max(depth_vector(frame))


@record
class FrameFlags:
    rooted: bool
    roots: tuple[int, ...]
    s41: bool
    s412: bool
    max_points: tuple[int, ...]


@_per_frame
def classify_frame(frame: Frame) -> FrameFlags:
    """Flags read off the upsets alone; no order pass."""
    full = (1 << frame.size) - 1
    roots = tuple(w for w in frame.worlds() if frame.up[w] == full)
    max_points = tuple(w for w in frame.worlds() if frame.up[w] == 1 << w)
    max_mask = mask_of(max_points)
    s41 = all(frame.up[w] & max_mask for w in frame.worlds())
    return FrameFlags(
        rooted=bool(roots),
        roots=roots,
        s41=s41,
        s412=s41 and len(max_points) == 1,
        max_points=max_points,
    )


def is_quasi_tree(frame: Frame, region: int) -> bool:
    """Whether the subframe on ``region``, a downset of ``frame``, is empty
    or a quasi-tree: some world of it sees all of it, and each member's
    down mask is a chain.  A downset holds each member's whole downset, so
    the frame's own down masks serve the subframe unchanged."""
    up, down = frame.up, down_masks(frame)
    members = worlds_of(region)
    rooted = not members or any(not region & ~up[w] for w in members)
    # down[w] is a chain when each of its members sees, or is seen by, all of it
    return rooted and all(
        not down[w] & ~(up[u] | down[u]) for w in members for u in worlds_of(down[w]))


def subframe(frame: Frame, worlds) -> tuple[Frame, tuple[int, ...]]:
    """Restriction of the order to an arbitrary world set.

    Returns the restricted frame plus the embedding new-index -> old-index.
    """
    embedding = tuple(sorted(set(worlds)))
    if not embedding:
        raise FrameFormatError("cannot take an empty subframe")
    for w in (embedding[0], embedding[-1]):
        if not 0 <= w < frame.size:
            raise FrameFormatError(f"world {w} out of range")
    m = len(embedding)
    if embedding[-1] == m - 1:  # the initial run 0..m-1 keeps every index
        inside = (1 << m) - 1
        up = [mask & inside for mask in frame.up[:m]]
    else:
        pos = {old: new for new, old in enumerate(embedding)}
        up = [mask_of(pos[v] for v in worlds_of(frame.up[old]) if v in pos) for old in embedding]
    labels = tuple(frame.label(old) for old in embedding) if frame.labels else None
    return Frame(m, tuple(up), labels), embedding


def generated_subframe(frame: Frame, w: int) -> tuple[Frame, tuple[int, ...]]:
    """Point-generated subframe on the upset of ``w``."""
    if not 0 <= w < frame.size:
        raise FrameFormatError(f"world {w} out of range")
    return subframe(frame, worlds_of(frame.up[w]))


def _ranks(keys: list) -> list[int]:
    """Replace comparable keys by their positions among the distinct keys."""
    position = {key: i for i, key in enumerate(sorted(set(keys)))}
    return [position[key] for key in keys]


def _twin_keys(up, down, cluster) -> list[tuple[int, int, int]]:
    """Per world, a key that exactly its twins share: its cluster mates, and
    the incomparable worlds with its upset and downset once each drops
    itself.  A world strictly below another never shares it, as its upset
    without itself does not drop the other.  Swapping two twins is an
    automorphism."""
    return [(u ^ c, d ^ c, c if c & (c - 1) else 0) for u, d, c in zip(up, down, cluster)]


def _twin_placements(classes: list, slots: list):
    """Every placement of the twin classes on the slots, one per multiset
    arrangement: each class takes its slots in increasing order, members in
    index order.  Yields ``(world, slot)`` pairs."""
    if not classes:
        yield ()
        return
    first, rest = classes[0], classes[1:]
    for chosen in itertools.combinations(slots, len(first)):
        remaining = [s for s in slots if s not in chosen]
        for tail in _twin_placements(rest, remaining):
            yield tuple(zip(first, chosen)) + tail


@_per_frame
def canonical_key(frame: Frame):
    """Isomorphism-invariant key: ``(size, code)`` where ``code`` is the least
    relation encoding (bit ``perm[u] * size + perm[w]`` for each ``u <= w``)
    over all relabelings ``perm`` that place the worlds group by group, in
    the order of an invariant refined twice by neighbour multisets.

    Twins, two worlds of a group with the same up and down sets outside the
    pair (cluster mates, same-neighbour antichains), are never permuted among
    themselves: swapping them is an automorphism and leaves every encoding
    unchanged.  For the same reason twins get equal ranks in every
    refinement round, and a round keeps the order of the ranks it refines.
    So when every group of the first invariant is a single twin class no
    round can split one, and both are skipped; otherwise refinement stops
    once a round leaves the class count unchanged, as every later round
    would too.  When every group is a single twin class there is one
    relabeling, a stable sort of the worlds by rank, and it is encoded
    directly.  Symmetry that is not twin symmetry is still tried
    exhaustively, so the cost can grow factorially on such frames.
    """
    n = frame.size
    up = frame.up
    succ, down, cluster, depth = _order_data(up)
    b = n + 1  # every part of the first invariant lies in 0..n
    invariant = [((d * b + len(ws)) * b + dm.bit_count()) * b + c.bit_count()
                 for d, ws, dm, c in zip(depth, succ, down, cluster)]
    twin = _twin_keys(up, down, cluster)
    twin_count = len(set(twin))
    rank, count = invariant, len(set(invariant))
    if count != twin_count:
        rank = _ranks(invariant)
        pred = [worlds_of(mask) for mask in down]
        for _ in range(2):
            at = rank.__getitem__
            rank = _ranks([(rank[w], tuple(sorted(map(at, succ[w]))), tuple(sorted(map(at, pred[w]))))
                           for w in range(n)])
            before, count = count, max(rank) + 1
            if count in (before, n):
                break
    # the groups in rank order, each in index order
    perm = [0] * n
    for slot, w in enumerate(sorted(range(n), key=rank.__getitem__)):
        perm[w] = slot
    if count == twin_count:
        return (n, _encode(succ, perm))
    groups = [[] for _ in range(count)]
    for w in range(n):
        groups[rank[w]].append(w)
    choices = []
    offset = 0
    for group in groups:
        slots = list(range(offset, offset + len(group)))
        offset += len(group)
        twins = {}
        for w in group:
            twins.setdefault(twin[w], []).append(w)
        if len(twins) > 1:
            choices.append(list(_twin_placements(list(twins.values()), slots)))
    best = None
    for placements in itertools.product(*choices):
        for placed in placements:
            for w, slot in placed:
                perm[w] = slot
        enc = _encode(succ, perm)
        if best is None or enc < best:
            best = enc
    return (n, best)


def _encode(succ, perm) -> int:
    """The relation encoding under ``perm``: bit ``perm[u] * n + perm[w]``
    for each ``u <= w``."""
    n = len(perm)
    enc = 0
    for u, ws in enumerate(succ):
        row = perm[u] * n
        for w in ws:
            enc |= 1 << (row + perm[w])
    return enc


def are_isomorphic(f: Frame, g: Frame) -> bool:
    if f.size != g.size:
        return False
    return canonical_key(f) == canonical_key(g)


def _extend_poset(frame: Frame, downset_mask_: int) -> Frame:
    """Add a fresh maximal element sitting above exactly one downset."""
    n = frame.size
    top = 1 << n
    return _closed_frame(n + 1, (*[mask | top if (downset_mask_ >> w) & 1 else mask
                                   for w, mask in enumerate(frame.up)], top))


def _downsets(frame: Frame) -> list[int]:
    """Every downset of ``frame`` as a mask, in increasing order.  A mask's
    downward closure is that of the mask without its lowest world, joined
    with that world's down mask."""
    down = down_masks(frame)
    closure = [0] * (1 << frame.size)
    found = [0]
    for mask in range(1, 1 << frame.size):
        low = mask & -mask
        closure[mask] = closure[mask ^ low] | down[low.bit_length() - 1]
        if closure[mask] == mask:
            found.append(mask)
    return found


def _twin_pairs(poset: Frame) -> list[tuple[int, int]]:
    """Each world of ``poset`` that has a higher twin, with the next one.
    Swapping two twins is an automorphism of ``poset``."""
    pairs = []
    last = {}
    for w, key in enumerate(_twin_keys(poset.up, down_masks(poset), cluster_masks(poset))):
        if key in last:
            pairs.append((last[key], w))
        last[key] = w
    return pairs


def _twin_least_downsets(poset: Frame) -> list[int]:
    """The downsets of ``poset`` that hold no twin without every lower twin,
    in increasing order.  Swapping a held twin for a lower one left out
    gives a smaller downset, and an isomorphic growth over it."""
    bits = [(1 << lower, 1 << higher) for lower, higher in _twin_pairs(poset)]
    return [d for d in _downsets(poset)
            if all(d & lower or not d & higher for lower, higher in bits)]


def _classes(frames) -> tuple[Frame, ...]:
    """The first of ``frames`` in each isomorphism class, in canonical-key
    order."""
    reps = {}
    for frame in frames:
        reps.setdefault(canonical_key(frame), frame)
    return tuple(reps[key] for key in sorted(reps))


@lru_cache(maxsize=None)
def _posets(k: int) -> tuple[Frame, ...]:
    """All partial orders on k elements, one per isomorphism class, in
    canonical order.  Each class on k - 1 elements grows by a new maximal
    element over each of its twin-least downsets, and the growths are
    deduped by key.  The class a parent and downset reach first is kept,
    as when every downset was tried."""
    if k == 1:
        return (Frame(1, (1,)),)
    return _classes(_extend_poset(parent, dmask)
                    for parent in _posets(k - 1) for dmask in _twin_least_downsets(parent))


def _compositions(total: int, parts: int):
    """The compositions of ``total`` into ``parts`` positive parts, in
    lexicographic order: one per choice of ``parts - 1`` cut points."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        bounds = (0, *cuts, total)
        yield tuple(map(operator.sub, bounds[1:], bounds))


def _twin_least_compositions(poset: Frame, n: int):
    """The compositions of n into cluster sizes, one per element of
    ``poset``, that give no twin a larger size than a higher twin, in
    ``_compositions`` order.  Swapping the sizes of two such twins gives a
    composition that comes before, and an isomorphic expansion."""
    compositions = _compositions(n, poset.size)
    if poset.size in (1, n):  # a single composition
        return compositions
    pairs = _twin_pairs(poset)
    return [s for s in compositions if all(s[lower] <= s[higher] for lower, higher in pairs)]


def _expand(poset: Frame, sizes: tuple[int, ...]) -> Frame:
    """Blow each poset element up into a cluster of the given size.  With
    every size 1 this is ``poset`` itself, so values memoized on it serve."""
    if max(sizes) == 1:
        return poset
    blocks = []
    total = 0
    for s in sizes:
        blocks.append(((1 << s) - 1) << total)
        total += s
    up = []
    for mask, s in zip(poset.up, sizes):
        up.extend([sum(map(blocks.__getitem__, worlds_of(mask)))] * s)
    return _closed_frame(total, tuple(up))


@lru_cache(maxsize=None)
def _preorder_classes(n: int) -> tuple[Frame, ...]:
    """All preorders on n worlds, one per isomorphism class, in canonical
    order.  A class is its skeleton, a poset class P, with a cluster size
    per element of P.  So each poset is expanded by its twin-least
    compositions of n into cluster sizes, and the expansions are deduped by
    key.  Each class is kept as first reached, at the least composition of
    its orbit under the automorphisms of P."""
    return _classes(_expand(poset, sizes) for k in range(1, n + 1) for poset in _posets(k)
                    for sizes in _twin_least_compositions(poset, n))


@lru_cache(maxsize=None)
def _rooted_classes(n: int) -> tuple[Frame, ...]:
    """All rooted preorders on n worlds, one per isomorphism class, in
    canonical order.  A rooted frame is its root cluster, the c worlds that
    see every world, over a preorder on the other n - c worlds, and both
    parts are unique.  So each class is a cluster on worlds 0..c-1 over one
    class of ``_preorder_classes(n - c)``, or the single n-world cluster,
    and no preorder on n worlds is built."""
    full = (1 << n) - 1
    classes = [_closed_frame(n, (full,) * c + tuple(mask << c for mask in rest.up))
               for c in range(1, n) for rest in _preorder_classes(n - c)]
    classes.append(_closed_frame(n, (full,) * n))
    return _classes(classes)


@lru_cache(maxsize=None)
def _enumerate_cached(n: int, filter_name: str) -> tuple[Frame, ...]:
    from . import roach

    if filter_name == "all":
        return _preorder_classes(n)
    if filter_name == "rooted":
        return _rooted_classes(n)
    if filter_name == "s41-rooted":
        return tuple(f for f in _rooted_classes(n) if classify_frame(f).s41)
    if filter_name == "willow":
        s41 = _enumerate_cached(n, "s41-rooted")
        return tuple(f for f in s41 if roach.is_willow_tree(f) is not None)
    if filter_name == "2-roach":
        return roach.two_roach_classes(n)
    raise ValueError(f"unknown filter {filter_name!r}; expected one of {FILTER_NAMES}")


def enumerate_frames(n: int, filter_name: str = "all", ceiling: int = ENUMERATION_CEILING):
    """Yield one representative per isomorphism class of preorders on ``n``
    worlds satisfying the named filter, in canonical order.

    The ``all`` classes come from ``_preorder_classes``: each poset class
    is expanded by its twin-least cluster-size compositions, the posets
    themselves grow over twin-least downsets, and the canonical key alone
    dedupes both.

    The other filters are built from classes on fewer worlds, not
    filtered from the ``all`` classes on ``n``, so they reach one world
    further.  The ``rooted`` classes put a root cluster over each class on
    fewer worlds (``_rooted_classes``); ``s41-rooted`` keeps their S4.1
    frames, and ``willow`` the willow trees among those.  The ``2-roach``
    classes are generated from their pieces (``roach.two_roach_classes``).
    Each filter gives the classes that filtering the ``all`` ones would, in
    the same order; for ``2-roach`` at ``n >= 5`` a representative may be
    labelled differently from the one the ``all`` enumeration holds for
    its class."""
    if n < 1:
        raise CeilingExceededError("frame size must be at least 1")
    if n > ceiling:
        raise CeilingExceededError(f"size {n} exceeds the enumeration ceiling {ceiling}")
    yield from _enumerate_cached(n, filter_name)


def frame_to_dict(frame: Frame) -> dict:
    """The frame-JSON object: ``size``, every related pair ``le``, and
    ``labels`` when the frame has them."""
    data = {"size": frame.size, "le": [[u, w] for u, w in frame.pairs()]}
    if frame.labels:
        data["labels"] = list(frame.labels)
    return data


def frame_from_json(text: str, strict: bool = False) -> Frame:
    """The frame of a frame-JSON object.  The relation must already be
    closed when ``strict`` is set or the object's ``"strict"`` field is
    true; otherwise ``le`` lists generator edges."""
    # besides malformed text, json.loads raises ValueError for an integer past
    # int's digit limit and RecursionError for deep nesting
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FrameFormatError(f"invalid frame JSON: {exc}") from None
    if not isinstance(data, dict) or "size" not in data or "le" not in data:
        raise FrameFormatError('frame JSON needs "size" and "le" fields')
    size = data["size"]
    if not isinstance(size, int) or isinstance(size, bool):
        raise FrameFormatError('"size" must be an integer')
    if size > MAX_FRAME_WORLDS:
        raise FrameFormatError(f'"size" {size} is above the limit of {MAX_FRAME_WORLDS} worlds')
    if not isinstance(data["le"], list):
        raise FrameFormatError('"le" must be a list of [u, w] pairs')
    pairs = []
    for entry in data["le"]:
        if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in entry)):
            raise FrameFormatError(f'"le" entries must be [u, w] pairs, got {entry!r}')
        pairs.append(tuple(entry))
    labels = data.get("labels")
    if labels is not None and (not isinstance(labels, list) or len(labels) != size
                               or not all(isinstance(x, str) for x in labels)):
        raise FrameFormatError(f'"labels" must be a list of {size} strings')
    # a JSON escape such as "\ud800" reads as a lone surrogate, which no
    # UTF-8 output can print
    try:
        "".join(labels or ()).encode()
    except UnicodeEncodeError:
        raise FrameFormatError('"labels" must not hold lone surrogates') from None
    strict_field = data.get("strict", False)
    if not isinstance(strict_field, bool):
        raise FrameFormatError(f'"strict" must be true or false, got {strict_field!r}')
    return normalize_frame(pairs, size, labels=labels, strict=strict or strict_field)
