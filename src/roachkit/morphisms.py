"""p-morphism verification and search, and permissibility testing."""

from __future__ import annotations

from ._record import record
from .errors import PreconditionError
from .frames import (Frame, _order_data, _order_views, classify_frame, generated_subframe, mask_of,
                     worlds_of)

# the onto-p-morphism search refuses larger source and target frames
SEARCH_CEILING = 10
_ABOVE_CEILING = f"frames above SEARCH_CEILING = {SEARCH_CEILING} worlds are not searched"


@record
class PMorphism:
    source: Frame
    target: Frame
    mapping: tuple[int, ...]


@record
class Violation:
    """A failed p-morphism condition, naming the offending worlds."""

    kind: str  # "total", "range", "forth", "back", "onto"
    witness: tuple

    def __str__(self):
        return f"{self.kind} condition fails at {self.witness}"


def check_p_morphism(pm: PMorphism, require_onto: bool = False) -> Violation | None:
    """None when the map is a p-morphism (and onto, when required);
    otherwise the first violation found."""
    src, tgt, mapping = pm.source, pm.target, pm.mapping
    if len(mapping) != src.size:
        return Violation("total", (len(mapping), src.size))
    for w, v in enumerate(mapping):
        if not 0 <= v < tgt.size:
            return Violation("range", (w, v))
    for u in src.worlds():
        for w in worlds_of(src.up[u]):
            if not tgt.le(mapping[u], mapping[w]):
                return Violation("forth", (u, w))
    for w in src.worlds():
        image_up = mask_of(mapping[u] for u in worlds_of(src.up[w]))
        if tgt.up[mapping[w]] & ~image_up:
            missing = tgt.up[mapping[w]] & ~image_up
            v = (missing & -missing).bit_length() - 1
            return Violation("back", (w, v))
    if require_onto:
        covered = mask_of(mapping)
        if covered != (1 << tgt.size) - 1:
            missing = ((1 << tgt.size) - 1) & ~covered
            return Violation("onto", ((missing & -missing).bit_length() - 1,))
    return None


def verified_morphism(source: Frame, target: Frame, mapping) -> PMorphism:
    """The onto p-morphism given by ``mapping``, checked.  The constructions
    that call this build maps that are onto p-morphisms by proof, so a
    failure is a bug in the construction, not an input error, and raises
    AssertionError."""
    pm = PMorphism(source, target, tuple(mapping))
    violation = check_p_morphism(pm, require_onto=True)
    if violation is not None:
        raise AssertionError(f"constructed map failed verification: {violation}")
    return pm


def identity_morphism(frame: Frame) -> PMorphism:
    return PMorphism(frame, frame, tuple(frame.worlds()))


def _cluster_counts(up: tuple[int, ...], cluster: tuple[int, ...] | list[int]) -> list[int]:
    """Per world, the number of clusters in its upset."""
    leaders = 0
    for w, c in enumerate(cluster):
        if c & -c == 1 << w:
            leaders |= 1 << w
    return [(mask & leaders).bit_count() for mask in up]


def _region_search(source: Frame, target: Frame, part: int):
    """The search of ``find_onto_p_morphism`` from upsets of ``source``
    onto ``target``, set up once.  ``search(region, least)`` searches the
    subframe on ``region``, an upset within ``part``, in ``source``'s own
    world indices, and returns the map as a tuple over the worlds of
    ``region``, ascending, or None.

    ``part`` is an upset of ``source`` holding every region searched.  Its
    order data are the frame's memoized views when it is the whole frame,
    and otherwise come from one order pass over its own upsets; a region's
    views are these restricted to it.  Each world of ``part`` gets its
    candidate values here, once, and a region whose root cluster has none
    is not searched.
    """
    up_s, up_t, m = source.up, target.up, target.size
    if part == (1 << source.size) - 1:
        succ_s = list(map(worlds_of, up_s))
        down_s, cluster_s, depth_s = _order_views(source)
    else:
        succ_s, down_s, cluster_s, depth_s = _order_data(
            tuple(mask if part >> w & 1 else 0 for w, mask in enumerate(up_s)))
    down_t, cluster_t, depth_t = _order_views(target)
    profile_t = list(zip(depth_t, map(int.bit_count, up_t), _cluster_counts(up_t, cluster_t)))
    full_t = (1 << m) - 1
    tops_t = mask_of(v for v in range(m) if up_t[v] == full_t)
    sizes_s = list(map(len, succ_s))
    clusters_s = _cluster_counts(up_s, cluster_s)
    domain, empty = [0] * source.size, 0
    for w in worlds_of(part):
        for v, (depth_v, size_v, clusters_v) in enumerate(profile_t):
            if depth_v <= depth_s[w] and size_v <= sizes_s[w] and clusters_v <= clusters_s[w]:
                domain[w] |= 1 << v
        if not domain[w]:
            empty |= 1 << w

    def search(region: int, least: bool) -> tuple[int, ...] | None:
        worlds = worlds_of(region)
        n = len(worlds)
        roots = [w for w in worlds if up_s[w] == region]
        if n < m or region & empty or roots and not domain[roots[0]] & tops_t:
            return None
        order = worlds if least else sorted(worlds, key=sizes_s.__getitem__)
        # forth: f(order[pos]) lies above f(u) for each earlier u below it, and
        # below f(u) for each earlier u above it; back checks run at the step
        # that assigns the last world of an upset
        start, below, above, completed_at, earlier = [], [], [], [], 0
        for w in order:
            start.append(domain[w] & tops_t if up_s[w] == region else domain[w])
            below.append(worlds_of(down_s[w] & earlier))
            above.append(worlds_of(up_s[w] & earlier))
            earlier |= 1 << w
            completed_at.append([u for u in worlds_of(down_s[w] & region)
                                 if not up_s[u] & ~earlier])
        assignment = [-1] * source.size

        def back_ok(w: int) -> bool:
            image = 0
            for u in succ_s[w]:
                image |= 1 << assignment[u]
            return not (up_t[assignment[w]] & ~image)

        def assign(pos: int, used: int) -> bool:
            if pos == n:
                return used == full_t
            w = order[pos]
            candidates = start[pos]
            for u in below[pos]:
                candidates &= up_t[assignment[u]]
            for u in above[pos]:
                candidates &= down_t[assignment[u]]
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                assignment[w] = low.bit_length() - 1
                new_used = used | low
                if m - new_used.bit_count() <= n - pos - 1 and all(
                    back_ok(u) for u in completed_at[pos]
                ):
                    if assign(pos + 1, new_used):
                        return True
            assignment[w] = -1
            return False

        return tuple(map(assignment.__getitem__, worlds)) if assign(0, 0) else None

    return search


def find_onto_p_morphism(source: Frame, target: Frame, least: bool = True) -> PMorphism | None:
    """Exhaustive backtracking search for an onto p-morphism, with the
    whole of ``source`` as the region of ``_region_search``.

    With ``least`` set, source worlds are assigned in index order with
    target values tried ascending, so the first solution found is the
    lexicographically least map.  Otherwise they are assigned in order of
    upset size, maxima first (the fail-first order of Haralick & Elliott,
    1980): each world's upset is then assigned as soon as the world is, so
    the back condition prunes at once, and the map found is any onto
    p-morphism.  Either way None is returned only after the whole space is
    pruned away.

    Since f(up w) = up f(w) and strict chains lift, every onto p-morphism
    maps w to a value of no greater depth, upset size and upset cluster
    count, and a world seeing everything to a world seeing everything;
    values failing these are never tried.
    """
    if source.size > SEARCH_CEILING or target.size > SEARCH_CEILING:
        raise PreconditionError(_ABOVE_CEILING)
    full = (1 << source.size) - 1
    mapping = _region_search(source, target, full)(full, least)
    return None if mapping is None else PMorphism(source, target, mapping)


@record
class Permissibility:
    """Evidence that a configuration is permissible for a host frame: an
    onto p-morphism from the point-generated subframe at ``generator``."""

    generator: int
    embedding: tuple[int, ...]
    morphism: PMorphism


def is_permissible(config: Frame, host: Frame) -> Permissibility | None:
    """First (smallest-subframe, least-generator) witness that ``config`` is
    an onto p-morphic image of a point-generated subframe of ``host``, with
    the least such map.

    One ``_region_search`` serves every generator, searching its upset in
    the host's own world indices.  It is set up on the host's searchable
    part: the worlds whose upset has at most ``SEARCH_CEILING`` worlds, an
    upset that holds every generator's upset searched.  Each generator is
    tested maxima first, and only the first that passes is searched again
    for its least map and has its subframe built.  Generators are tried
    smallest upset first, so a generator above the ceiling raises
    PreconditionError only when every smaller one has failed.
    """
    if not classify_frame(config).rooted:
        raise PreconditionError("permissibility is defined for rooted configurations")
    sizes = [mask.bit_count() for mask in host.up]
    search = None
    for g in sorted(host.worlds(), key=sizes.__getitem__):
        if sizes[g] < config.size:
            continue
        if sizes[g] > SEARCH_CEILING:  # so a config above it stops here too
            raise PreconditionError(_ABOVE_CEILING)
        search = search or _region_search(
            host, config, mask_of(w for w, size in enumerate(sizes) if size <= SEARCH_CEILING))
        if search(host.up[g], False) is not None:
            sub, embedding = generated_subframe(host, g)
            return Permissibility(g, embedding, PMorphism(sub, config, search(host.up[g], True)))
    return None
