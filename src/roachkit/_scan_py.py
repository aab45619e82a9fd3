"""Pure-Python validity scanner.

Valuations are packed along big-integer bit axes: for a frame with n worlds
and k variables, valuation index j assigns variable v true at world i exactly
when bit v*n+i of j is set.  Each subformula is evaluated once per world as a
chunk-sized bitvector over all valuation indices, so the inner loop runs on
CPython's C-speed big-int bitwise ops.

Chunks hold 2^16 valuations by default: an 8 KB int stays in cache, where
larger ones do not, and more, smaller chunks add interpreter overhead.  Bits
of the index below the chunk size vary inside a chunk and come from a
pattern table built by repeating a byte block; higher bits are constant
across a chunk.

An *item* is one subformula's bitvector at one world.  Its *support* is the
set of index bits it reads: bit v*n+i for variable v at world i, the union
of the operands' supports at the same world for a Boolean connective, and
the union over the upset of i for a box or diamond at i.  Its *level* is its
lowest support bit at or above the chunk size, counted from the chunk size;
an item with no such bit has no level and is the same in every chunk.  Going
from chunk c-1 to chunk c flips exactly the high index bits 0 .. tz(c)
(counted the same way), where tz(c) is the number of trailing zero bits of
c, so chunk c recomputes only the items of level at most tz(c) and keeps the
rest.  An item a consumer reads in a chunk where the item itself is not
recomputed must outlive its chunk: that happens exactly when some consumer
has a strictly lower level.  Every other item dies at the last use of its
subformula, as in a single chunk.  The analysis is built once per call, and
only when the scan spans more than one chunk.
"""

from __future__ import annotations

from ._program import OP_AND, OP_BOT, OP_BOX, OP_DIA, OP_IMP, OP_NOT, OP_OR, OP_TOP, OP_VAR

_pattern_cache: dict[int, list[int]] = {}


def _patterns(chunk_bits: int) -> list[int]:
    """Bit j of pattern t is bit t of j, for j below ``chunk_bits`` (a power
    of two).  Built from a repeated byte block, so no big-int division."""
    pats = _pattern_cache.get(chunk_bits)
    if pats is None:
        n_bytes = (chunk_bits + 7) // 8
        full = (1 << chunk_bits) - 1
        pats = []
        t = 0
        while (1 << t) < chunk_bits:
            if t < 3:
                block = (b"\xaa", b"\xcc", b"\xf0")[t]
            else:
                half = 1 << (t - 3)
                block = bytes(half) + b"\xff" * half
            pats.append(int.from_bytes(block * (n_bytes // len(block)), "little") & full)
            t += 1
        _pattern_cache[chunk_bits] = pats
    return pats


def _operands(op, a, b):
    """The distinct slots an instruction reads."""
    if op in (OP_NOT, OP_BOX, OP_DIA):
        return (a,)
    if op in (OP_AND, OP_OR, OP_IMP):
        return (a,) if a == b else (a, b)
    return ()


def _levels(ops, members, n_worlds, chunk_log2, high):
    """Level of every item, ``high`` for an item with no level, and whether
    each item must outlive its chunk."""
    levels = []
    for op, a, b in ops:
        if op == OP_VAR:
            first = a * n_worlds - chunk_log2
            lv = [first + i if first + i >= 0 else high for i in range(n_worlds)]
        elif op in (OP_TOP, OP_BOT):
            lv = [high] * n_worlds
        elif op == OP_NOT:
            lv = levels[a]
        elif op in (OP_AND, OP_OR, OP_IMP):
            lv = list(map(min, levels[a], levels[b]))
        else:
            src = levels[a]
            lv = [min(src[u] for u in members[i]) for i in range(n_worlds)]
        levels.append(lv)
    lowest_consumer = [[high] * n_worlds for _ in ops]
    for pc, (op, a, b) in enumerate(ops):
        mine = levels[pc]
        for s in _operands(op, a, b):
            low = lowest_consumer[s]
            for i in range(n_worlds):
                for u in members[i] if op in (OP_BOX, OP_DIA) else (i,):
                    if mine[i] < low[u]:
                        low[u] = mine[i]
    kept = [[c < own for c, own in zip(low, lv)] for low, lv in zip(lowest_consumer, levels)]
    return levels, kept


def find_refuting_index(up, n_worlds, program, chunk_log2=16):
    """Index of the least valuation refuting the program's formula on the
    frame, or -1 when the formula is valid."""
    kn = program.n_vars * n_worlds
    chunk_log2 = min(chunk_log2, kn)
    chunk_bits = 1 << chunk_log2
    full = (1 << chunk_bits) - 1
    pats = _patterns(chunk_bits)
    ops = program.ops
    last_use = program.last_use
    worlds = tuple(range(n_worlds))
    members = [tuple(u for u in worlds if (m >> u) & 1) for m in up]
    high = kn - chunk_log2  # index bits above the chunk
    levels = kept = None
    if high:
        levels, kept = _levels(ops, members, n_worlds, chunk_log2, high)

    # after each instruction, the items of its operands that die there: a
    # whole slot (None) or the worlds not kept for a later chunk
    drops = [[] for _ in ops]
    for s, pc in enumerate(last_use[:-1]):  # the result outlives the program
        gone = worlds if kept is None else tuple(u for u in worlds if not kept[s][u])
        if len(gone) == n_worlds:
            drops[pc].append((s, None))
        elif gone:
            drops[pc].append((s, gone))

    def plan(threshold):
        steps = []
        for pc, (op, a, b) in enumerate(ops):
            todo = worlds if levels is None else tuple(
                i for i in worlds if levels[pc][i] <= threshold)
            if todo:
                steps.append((op, pc, a, b, todo, drops[pc]))
        return steps

    # plans[t] runs in a chunk whose number has t trailing zeros; chunk 0
    # computes every item, which is plans[high]
    plans = [plan(t) for t in range(high + 1)]

    # every item lies in [0, full], so its complement is ``full ^ x``
    vals = [None] * len(ops)
    for c in range(1 << high):
        base = c << chunk_log2
        for op, pc, a, b, todo, drop in plans[(c & -c).bit_length() - 1 if c else high]:
            vec = vals[pc]
            if vec is None:
                vec = vals[pc] = [0] * n_worlds
            if op == OP_VAR:
                for i in todo:
                    t = a * n_worlds + i
                    if t < chunk_log2:
                        vec[i] = pats[t]
                    else:
                        vec[i] = full if (base >> t) & 1 else 0
            elif op == OP_TOP:
                for i in todo:
                    vec[i] = full
            elif op == OP_BOT:
                for i in todo:
                    vec[i] = 0
            elif op == OP_NOT:
                x = vals[a]
                for i in todo:
                    vec[i] = full ^ x[i]
            elif op == OP_AND:
                x, y = vals[a], vals[b]
                for i in todo:
                    vec[i] = x[i] & y[i]
            elif op == OP_OR:
                x, y = vals[a], vals[b]
                for i in todo:
                    vec[i] = x[i] | y[i]
            elif op == OP_IMP:
                x, y = vals[a], vals[b]
                for i in todo:
                    vec[i] = (full ^ x[i]) | y[i]
            elif op == OP_BOX:
                x = vals[a]
                for i in todo:
                    acc = full
                    for u in members[i]:
                        acc &= x[u]
                    vec[i] = acc
            else:  # OP_DIA
                x = vals[a]
                for i in todo:
                    acc = 0
                    for u in members[i]:
                        acc |= x[u]
                    vec[i] = acc
            for s, gone in drop:
                if gone is None:
                    vals[s] = None
                else:
                    dying = vals[s]
                    for u in gone:
                        dying[u] = None
        acc = full
        for x in vals[-1]:
            acc &= x
        if acc != full:
            missing = full ^ acc
            return base + ((missing & -missing).bit_length() - 1)
    return -1
