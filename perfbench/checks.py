"""Independent checks of roachkit's answers, on plain up-mask tuples.

These recompute what the benchmark verifies by the direct route (all
permutations, explicit forth/back conditions, longest chains) instead of
calling the code under measurement.
"""

from __future__ import annotations

import itertools

# preorders on n worlds up to isomorphism, n = 1..8 (OEIS A001930)
A001930 = (1, 3, 9, 33, 139, 718, 4535, 35979)


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def is_onto_p_morphism(src_up, tgt_up, mapping) -> bool:
    """Forth, back and onto conditions of a map between finite preorders."""
    n, m = len(src_up), len(tgt_up)
    if len(mapping) != n or any(not 0 <= v < m for v in mapping):
        return False
    for u in range(n):
        image = 0
        for w in bits(src_up[u]):
            image |= 1 << mapping[w]
        # forth: every successor maps into the image's upset; back: the
        # target upset of f(u) is covered by images of u's successors
        if image != tgt_up[mapping[u]]:
            return False
    return len(set(mapping)) == m


def canonical_code(up) -> tuple:
    """Least relation encoding over all relabelings."""
    n = len(up)
    best = None
    for perm in itertools.permutations(range(n)):
        code = 0
        for u in range(n):
            for w in bits(up[u]):
                code |= 1 << (perm[u] * n + perm[w])
        if best is None or code < best:
            best = code
    return n, best


def _final_clusters(up) -> set[int]:
    """Clusters (as masks) whose worlds see only their own cluster."""
    return {up[w] for w in range(len(up)) if all(up[v] == up[w] for v in bits(up[w]))}


def is_rooted(up) -> bool:
    full = (1 << len(up)) - 1
    return any(mask == full for mask in up)


def is_rooted_s41(up) -> bool:
    """Rooted, and every final cluster is a single world."""
    return is_rooted(up) and all(mask.bit_count() == 1 for mask in _final_clusters(up))


def is_2_roach_shape(up) -> bool:
    """Rooted S4.1 with some s whose upset is s plus the maxima, and every
    world outside the downset of s sees exactly one maximum."""
    if not is_rooted_s41(up):
        return False
    maxima = 0
    for mask in _final_clusters(up):
        maxima |= mask
    for s in range(len(up)):
        if up[s] != (1 << s) | maxima:
            continue
        if all((up[w] >> s) & 1 or (up[w] & maxima).bit_count() == 1 for w in range(len(up))):
            return True
    return False


def depth(up) -> int:
    """Length of the longest strictly ascending chain of clusters."""
    memo = {}

    def go(w):
        if w not in memo:
            above = [v for v in bits(up[w]) if not (up[v] >> w) & 1]
            memo[w] = 1 + max((go(v) for v in above), default=0)
        return memo[w]

    return max(go(w) for w in range(len(up)))


def expected_validity(up) -> tuple[bool, ...]:
    """Validity of bd(1..4), ma and ga on a finite rooted frame, from the
    frame conditions they correspond to."""
    d = depth(up)
    finals = _final_clusters(up)
    ma = all(mask.bit_count() == 1 for mask in finals)
    ga = len(finals) == 1
    return tuple(d <= k for k in range(1, 5)) + (ma, ga)


def extension_mask(up, phi, valuation) -> int:
    """Worlds (as a mask) where a roachkit formula holds on the frame with
    these up-masks, under a valuation {variable name: set of worlds};
    unassigned variables are empty.  Walks the formula's nodes by class
    name, so it shares no code with roachkit's evaluators."""
    n = len(up)
    full = (1 << n) - 1
    memo = {}

    def go(node) -> int:
        if node in memo:
            return memo[node]
        kind = type(node).__name__
        if kind == "Var":
            result = sum(1 << w for w in valuation.get(node.name, ()))
        elif kind == "Top":
            result = full
        elif kind == "Bot":
            result = 0
        elif kind == "Not":
            result = full & ~go(node.operand)
        elif kind == "And":
            result = go(node.left) & go(node.right)
        elif kind == "Or":
            result = go(node.left) | go(node.right)
        elif kind == "Implies":
            result = (full & ~go(node.left)) | go(node.right)
        elif kind == "Box":
            sub = go(node.operand)
            result = sum(1 << w for w in range(n) if up[w] & ~sub == 0)
        elif kind == "Diamond":
            sub = go(node.operand)
            result = sum(1 << w for w in range(n) if up[w] & sub)
        else:
            raise TypeError(f"not a formula: {node!r}")
        memo[node] = result
        return result

    return go(phi)


# formulas of the decide workload as tuples: ("var", i), ("not", a),
# ("and"|"or"|"imp", a, b), ("box"|"dia", a)

def holds_on_point(phi, assignment) -> bool:
    """Truth on the one-world reflexive frame, where box and diamond are the
    identity."""
    op = phi[0]
    if op == "var":
        return assignment[phi[1]]
    if op == "not":
        return not holds_on_point(phi[1], assignment)
    if op in ("box", "dia"):
        return holds_on_point(phi[1], assignment)
    a, b = holds_on_point(phi[1], assignment), holds_on_point(phi[2], assignment)
    if op == "and":
        return a and b
    if op == "or":
        return a or b
    return (not a) or b


def refutable_on_point(phi, k: int) -> bool:
    return any(not holds_on_point(phi, row) for row in itertools.product((False, True), repeat=k))
