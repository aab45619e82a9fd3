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
"""

from __future__ import annotations

from ._program import OP_AND, OP_BOT, OP_BOX, OP_DIA, OP_IMP, OP_NOT, OP_OR, OP_TOP, OP_VAR

BACKEND_NAME = "pure"

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


def find_refuting_index(up, n_worlds, program, chunk_log2=16):
    """Index of the least valuation refuting the program's formula on the
    frame, or -1 when the formula is valid."""
    kn = program.n_vars * n_worlds
    total_bits = 1 << kn
    chunk_bits = min(total_bits, 1 << chunk_log2)
    full = (1 << chunk_bits) - 1
    pats = _patterns(chunk_bits)
    ops = program.ops
    last_use = program.last_use
    up_bits = [tuple((m >> i) & 1 for i in range(n_worlds)) for m in up]

    # every slot value lies in [0, full], so its complement is ``full ^ x``
    base = 0
    while base < total_bits:
        slots = {}
        for pc, (op, a, b) in enumerate(ops):
            if op == OP_VAR:
                vec = []
                for i in range(n_worlds):
                    t = a * n_worlds + i
                    if (1 << t) >= chunk_bits:
                        vec.append(full if (base >> t) & 1 else 0)
                    else:
                        vec.append(pats[t])
            elif op == OP_TOP:
                vec = [full] * n_worlds
            elif op == OP_BOT:
                vec = [0] * n_worlds
            elif op == OP_NOT:
                src = slots[a]
                vec = [full ^ src[i] for i in range(n_worlds)]
            elif op == OP_AND:
                x, y = slots[a], slots[b]
                vec = [x[i] & y[i] for i in range(n_worlds)]
            elif op == OP_OR:
                x, y = slots[a], slots[b]
                vec = [x[i] | y[i] for i in range(n_worlds)]
            elif op == OP_IMP:
                x, y = slots[a], slots[b]
                vec = [(full ^ x[i]) | y[i] for i in range(n_worlds)]
            elif op == OP_BOX:
                src = slots[a]
                vec = []
                for i in range(n_worlds):
                    acc = full
                    bits = up_bits[i]
                    for u in range(n_worlds):
                        if bits[u]:
                            acc &= src[u]
                    vec.append(acc)
            else:  # OP_DIA
                src = slots[a]
                vec = []
                for i in range(n_worlds):
                    acc = 0
                    bits = up_bits[i]
                    for u in range(n_worlds):
                        if bits[u]:
                            acc |= src[u]
                    vec.append(acc)
            slots[pc] = vec
            if op in (OP_NOT, OP_BOX, OP_DIA) and last_use[a] == pc:
                del slots[a]
            elif op in (OP_AND, OP_OR, OP_IMP):
                if last_use[a] == pc:
                    del slots[a]
                if b != a and last_use[b] == pc and b in slots:
                    del slots[b]
        result = slots[len(ops) - 1]
        acc = full
        for i in range(n_worlds):
            acc &= result[i]
        if acc != full:
            missing = full ^ acc
            return base + ((missing & -missing).bit_length() - 1)
        base += chunk_bits
    return -1
