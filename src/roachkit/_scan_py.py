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
has a strictly lower level.  A slot with such an item lives through the
whole scan; every other slot is freed whole after the instruction that reads
it last, as in a single chunk.  The analysis depends on the frame, so it is
built once per call, and only when the scan spans more than one chunk.

A scan that fits in one chunk computes every item and frees each slot after
the instruction that reads it last.  That plan depends on the world count
alone, not on the frame, so it is built on the first such scan of each count
and kept in the program's ``__dict__``, which is freed with the program: a
query that scans one formula on many frames plans it once per world count.
The slots each instruction reads last depend on the program alone; both
kinds of plan take them from one backward pass, also kept on the program.
Both kinds of plan run through the same loop.

Since that plan depends on the world count alone, frames of one size can
share a pass.  A *batch* of m >= 2 frames lays them side by side along the
index: frame p owns the block of bits p*B .. p*B+B-1, B = 2^b with b the
largest of k*n, 3 and the bits of n-1, so a block holds the frame's 2^(k*n)
valuations, a whole byte and a row of its up masks.  Bit t < k*n of an index
is bit t of its offset in the block, so the pattern table needs no change;
when B > 2^(k*n) the rest of a block repeats its first 2^(k*n) bits.  The
chunk is the 2^(b + bits of m-1) bits that hold the m blocks, one chunk per
batch, and ``batch_size`` keeps it at 2^16 bits, batching only frames of at
most 2^12 valuations (a larger frame's scan pays per valuation, not per
call).  A box at world i ANDs x[u] for each u in up(i) in every frame of the
batch, and ``x[u] | out[i][u]`` for each u in up(i) in only some of them,
``out[i][u]`` masking the blocks of the frames where u is not in up(i); the
diamond ORs ``x[u] & ~out[i][u]``.  A single frame is a batch whose every
member lies in every frame.  The least set bit of ``live & ~acc`` (``live``
masking the m blocks) is p*B + j: the least refuting frame p and its least
index j, the pair a frame-by-frame scan finds first, returned as
p * 2^(k*n) + j.  The out masks come from each world's rows packed one per
block, a shift and a mask per (i, u), and the tables of the latest batches
are kept while they hold at most 2^22 bits: a query scans each size in the
same batches as the one before it.
"""

from __future__ import annotations

from collections import OrderedDict

from ._program import OP_AND, OP_BOT, OP_BOX, OP_DIA, OP_IMP, OP_NOT, OP_OR, OP_TOP, OP_VAR
from .frames import worlds_of

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


def _dying(program):
    """The slots each instruction reads last, found in one backward pass and
    kept on the program.  The result slot is read after the program, so it
    dies at no instruction."""
    dying = program.__dict__.get("_dying")
    if dying is None:
        read, dying = [False] * len(program.ops), []
        for op, a, b in reversed(program.ops):
            dead = ()
            if op > OP_VAR:  # every other instruction reads slot a
                if not read[a]:
                    read[a] = True
                    dead = (a,)
                if OP_AND <= op <= OP_IMP and not read[b]:
                    read[b] = True
                    dead += (b,)
            dying.append(dead)
        dying = program.__dict__["_dying"] = dying[::-1]
    return dying


def _levels(ops, members, n_worlds, chunk_log2, high):
    """Level of every item, ``high`` for an item with no level, and whether
    each slot has an item that must outlive its chunk."""
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
    # a slot is kept when some consumer item has a lower level than an item
    # of the slot that it reads
    at_own_world = [(i,) for i in range(n_worlds)]
    kept = [False] * len(ops)
    for pc, (op, a, b) in enumerate(ops):
        mine = levels[pc]
        read = members if op in (OP_BOX, OP_DIA) else at_own_world
        for s in _operands(op, a, b):
            if not kept[s]:
                own = levels[s]
                kept[s] = any(mine[i] < own[u] for i in range(n_worlds) for u in read[i])
    return levels, kept


def _one_chunk_plan(program, n_worlds):
    """Steps of a scan that fits in one chunk: every item at every world,
    each slot freed after its last read.  They depend on the world count
    alone, so each count's plan is built once and kept on the program."""
    plans = program.__dict__.setdefault("_one_chunk_plans", {})
    steps = plans.get(n_worlds)
    if steps is None:
        worlds = tuple(range(n_worlds))
        steps = plans[n_worlds] = [
            (op, pc, a, b, worlds, dead)
            for pc, ((op, a, b), dead) in enumerate(zip(program.ops, _dying(program)))
        ]
    return steps


def _chunk_plans(program, members, n_worlds, chunk_log2, high):
    """plans[t] runs in a chunk whose number has t trailing zeros; chunk 0
    computes every item, which is plans[high]."""
    ops = program.ops
    worlds = tuple(range(n_worlds))
    levels, kept = _levels(ops, members, n_worlds, chunk_log2, high)
    # after each instruction, the slots it reads last that no later chunk reads
    drops = [[s for s in dead if not kept[s]] for dead in _dying(program)]

    def plan(threshold):
        steps = []
        for pc, (op, a, b) in enumerate(ops):
            todo = tuple(i for i in worlds if levels[pc][i] <= threshold)
            if todo:
                steps.append((op, pc, a, b, todo, drops[pc]))
        return steps

    return [plan(t) for t in range(high + 1)]


def batch_size(kn, n_worlds, chunk_log2=16):
    """How many frames of ``n_worlds`` worlds and ``kn`` index bits one
    chunk holds side by side.  A frame of more than 2^12 valuations is
    scanned alone: its scan pays mostly per valuation, not per call."""
    return 1 if kn > 12 else 1 << max(chunk_log2 - max(kn, 3, (n_worlds - 1).bit_length()), 0)


# The member tables of the latest batches, keyed by their frames' up masks
# and block size, the oldest evicted first while they hold more than 2^22
# mask bits (512 KB): a query scans the frames of each size in the same
# batches as the one before it, and a long run keeps only the latest few.
# As in ``semantics._programs``, an entry is one tuple and eviction one
# ``popitem`` call, and the sizes are summed over a copy of the values, so
# threads that share the tables never see them change mid-step.
_tables: OrderedDict = OrderedDict()


def _batch_members(ups, n_worlds, block_log2):
    """Per world i: the worlds in up(i) in every frame, and (u, out) for each
    u in up(i) in some frames only, where ``out`` masks the blocks of the
    frames where u is not in up(i); and the bits those masks hold."""
    entry = _tables.get((ups, block_log2))
    if entry is None:
        width = 1 << (block_log2 - 3)  # bytes per block
        comb = int.from_bytes((b"\x01" + bytes(width - 1)) * len(ups), "little")
        members, partial = [], []
        for i in range(n_worlds):
            # row i of frame p at bit p * 2^block_log2, and for each u a bit
            # there when up(i) of frame p lacks u
            rows = b"".join(up[i].to_bytes(width, "little") for up in ups)
            packed = int.from_bytes(rows, "little")
            outs = [comb ^ ((packed >> u) & comb) for u in range(n_worlds)]
            members.append([u for u, out in enumerate(outs) if not out])
            partial.append([(u, (out << (width << 3)) - out)
                            for u, out in enumerate(outs) if out and out != comb])
        held = sum(map(len, partial)) * len(ups) << block_log2
        entry = _tables[ups, block_log2] = (members, partial, held)
        while sum(held for _, _, held in list(_tables.values())) > 1 << 22:
            _tables.popitem(last=False)
    return entry


def find_refuting_index(up, n_worlds, program, chunk_log2=16):
    """Index of the least valuation refuting the program's formula on the
    frame, or -1 when the formula is valid."""
    return find_batch_refuting_index((up,), n_worlds, program, chunk_log2)


def find_batch_refuting_index(ups, n_worlds, program, chunk_log2=16):
    """Least ``p * 2^(k*n) + j`` such that valuation j refutes the program's
    formula on frame p of the batch, or -1 when it is valid on every frame.
    A single frame may span several chunks; a batch of more takes one chunk,
    larger than 2^chunk_log2 bits when it holds more than ``batch_size``."""
    kn = program.n_vars * n_worlds
    if len(ups) == 1:
        block_log2, chunk_log2, live = kn, min(chunk_log2, kn), -1
        members, partial = list(map(worlds_of, ups[0])), [()] * n_worlds
    else:
        block_log2 = max(kn, 3, (n_worlds - 1).bit_length())
        chunk_log2, live = block_log2 + (len(ups) - 1).bit_length(), (1 << (len(ups) << block_log2)) - 1
        members, partial, _ = _batch_members(tuple(ups), n_worlds, block_log2)
    chunk_bits = 1 << chunk_log2
    full = (1 << chunk_bits) - 1
    pats = _patterns(chunk_bits)
    ops = program.ops
    high = max(kn - chunk_log2, 0)  # index bits above the chunk
    if high:
        plans = _chunk_plans(program, members, n_worlds, chunk_log2, high)
    else:
        plans = [_one_chunk_plan(program, n_worlds)]

    # every item lies in [0, full], so its complement is ``full ^ x``
    vals = [None] * len(ops)
    for c in range(1 << high):
        base = c << chunk_log2
        for op, pc, a, b, todo, drop in plans[(c & -c).bit_length() - 1 if c else high]:
            vec = vals[pc]
            if vec is None:
                vec = vals[pc] = [0] * n_worlds
            # the most executed first, in the order of their counts over
            # the decide benchmark's scans (the constants come last)
            if op == OP_IMP:
                x, y = vals[a], vals[b]
                for i in todo:
                    vec[i] = (full ^ x[i]) | y[i]
            elif op == OP_BOX:
                x = vals[a]
                for i in todo:
                    acc = full
                    for u in members[i]:
                        acc &= x[u]
                    for u, out in partial[i]:
                        acc &= x[u] | out
                    vec[i] = acc
            elif op == OP_DIA:
                x = vals[a]
                for i in todo:
                    acc = 0
                    for u in members[i]:
                        acc |= x[u]
                    for u, out in partial[i]:
                        acc |= x[u] & ~out
                    vec[i] = acc
            elif op == OP_VAR:
                for i in todo:
                    t = a * n_worlds + i
                    if t < chunk_log2:
                        vec[i] = pats[t]
                    else:
                        vec[i] = full if (base >> t) & 1 else 0
            elif op == OP_OR:
                x, y = vals[a], vals[b]
                for i in todo:
                    vec[i] = x[i] | y[i]
            elif op == OP_AND:
                x, y = vals[a], vals[b]
                for i in todo:
                    vec[i] = x[i] & y[i]
            elif op == OP_NOT:
                x = vals[a]
                for i in todo:
                    vec[i] = full ^ x[i]
            elif op == OP_TOP:
                for i in todo:
                    vec[i] = full
            else:  # OP_BOT
                for i in todo:
                    vec[i] = 0
            for s in drop:
                vals[s] = None
        acc = full
        for x in vals[-1]:
            acc &= x
        missing = (full ^ acc) & live
        if missing:
            bit = base + ((missing & -missing).bit_length() - 1)
            return (bit >> block_log2 << kn) | (bit & ((1 << kn) - 1))
    return -1
