"""p-morphism verification and search, and permissibility testing."""

from __future__ import annotations

from ._record import record
from .errors import PreconditionError
from .frames import (Frame, _order_data, _order_views, classify_frame, generated_subframe, mask_of,
                     worlds_of)

# the onto-p-morphism search refuses larger source and target frames
SEARCH_CEILING = 10


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


def find_onto_p_morphism(source: Frame, target: Frame, least: bool = True) -> PMorphism | None:
    """Exhaustive backtracking search for an onto p-morphism.

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
        raise PreconditionError(
            f"frames above SEARCH_CEILING = {SEARCH_CEILING} worlds are not searched")
    n, m = source.size, target.size
    if n < m:
        return None
    up_s, up_t = source.up, target.up
    succ_s, down_s, cluster_s, depth_s = _order_data(up_s)
    down_t, cluster_t, depth_t = _order_views(target)
    full_s, full_t = (1 << n) - 1, (1 << m) - 1
    sizes_s = list(map(len, succ_s))
    profile_t = list(zip(depth_t, map(int.bit_count, up_t), _cluster_counts(up_t, cluster_t)))
    tops_t = mask_of(v for v in range(m) if up_t[v] == full_t)
    domain = []
    clusters_s = _cluster_counts(up_s, cluster_s)
    for w, (depth, size, clusters) in enumerate(zip(depth_s, sizes_s, clusters_s)):
        mask = 0
        for v, (depth_v, size_v, clusters_v) in enumerate(profile_t):
            if depth_v <= depth and size_v <= size and clusters_v <= clusters:
                mask |= 1 << v
        if up_s[w] == full_s:
            mask &= tops_t
        if not mask:
            return None
        domain.append(mask)
    order = range(n) if least else sorted(range(n), key=sizes_s.__getitem__)
    # forth: f(order[pos]) lies above f(u) for each earlier u below it, and
    # below f(u) for each earlier u above it; back checks run at the step
    # that assigns the last world of an upset
    below, above, completed_at, earlier = [], [], [], 0
    for w in order:
        below.append(worlds_of(down_s[w] & earlier))
        above.append(worlds_of(up_s[w] & earlier))
        earlier |= 1 << w
        completed_at.append([u for u in worlds_of(down_s[w]) if not up_s[u] & ~earlier])
    assignment = [-1] * n

    def back_ok(w: int) -> bool:
        image = 0
        for u in succ_s[w]:
            image |= 1 << assignment[u]
        return not (up_t[assignment[w]] & ~image)

    def assign(pos: int, used: int) -> bool:
        if pos == n:
            return used == full_t
        w = order[pos]
        candidates = domain[w]
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

    if assign(0, 0):
        return PMorphism(source, target, tuple(assignment))
    return None


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
    the least such map.  Each generator is tested by the maxima-first
    search, and only the first that passes is searched again for its least
    map."""
    if not classify_frame(config).rooted:
        raise PreconditionError("permissibility is defined for rooted configurations")
    order = sorted(host.worlds(), key=lambda g: (host.up[g].bit_count(), g))
    for g in order:
        if host.up[g].bit_count() < config.size:
            continue
        sub, embedding = generated_subframe(host, g)
        if find_onto_p_morphism(sub, config, least=False) is not None:
            return Permissibility(g, embedding, find_onto_p_morphism(sub, config))
    return None
