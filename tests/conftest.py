"""Shared naive oracles: these deliberately reimplement the expensive way
(full relation scans, all-maps enumeration, per-valuation loops) so the
library's answers are checked against independent code paths."""

import itertools
import random
from functools import lru_cache

import pytest

from roachkit import _program as P
from roachkit import construct as C
from roachkit import decision as D
from roachkit import formulas as fm
from roachkit import frames as F
from roachkit import ordinals as O
from roachkit import roach as R
from roachkit import semantics as S
from roachkit.errors import (
    BudgetExceededError,
    CeilingExceededError,
    FormulaSyntaxError,
    PreconditionError,
    RoachkitError,
)
from roachkit.frames import (
    Frame,
    canonical_key,
    classify_frame,
    cluster_masks,
    clusters_and_skeleton,
    depth_vector,
    downset_mask,
    generated_subframe,
    mask_of,
    worlds_of,
)
from roachkit.morphisms import PMorphism, check_p_morphism, identity_morphism, verified_morphism


def naive_preorder_classes(n):
    """Every preorder on n labeled worlds, one representative per class,
    found by scanning all off-diagonal bitmasks and deduping by explicit
    permutation action."""
    seen = set()
    reps = []
    offdiag = [(u, w) for u in range(n) for w in range(n) if u != w]
    for bits in range(1 << len(offdiag)):
        up = [1 << w for w in range(n)]
        for i, (u, w) in enumerate(offdiag):
            if (bits >> i) & 1:
                up[u] |= 1 << w
        transitive = True
        for u in range(n):
            acc = up[u]
            rest = up[u]
            while rest:
                v = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                acc |= up[v]
            if acc != up[u]:
                transitive = False
                break
        if not transitive:
            continue
        key = None
        for perm in itertools.permutations(range(n)):
            enc = 0
            for u in range(n):
                rest = up[u]
                while rest:
                    w = (rest & -rest).bit_length() - 1
                    rest &= rest - 1
                    enc |= 1 << (perm[u] * n + perm[w])
            if key is None or enc < key:
                key = enc
        if key not in seen:
            seen.add(key)
            reps.append(Frame(n, tuple(up)))
    return reps


@lru_cache(maxsize=None)
def reference_posets(k):
    """The poset classes by trying every downset of every parent and
    deduping all the candidates by canonical key, without automorphisms."""
    if k == 1:
        return (Frame(1, (1,)),)
    reps = {}
    for smaller in reference_posets(k - 1):
        for dmask in [m for m in range(1 << smaller.size) if F.downset_mask(smaller, m) == m]:
            candidate = F._extend_poset(smaller, dmask)
            reps.setdefault(canonical_key(candidate), candidate)
    return tuple(reps[key] for key in sorted(reps))


def reference_compositions(total, parts):
    """Compositions of ``total`` into ``parts`` positive parts, first part
    first, by recursion."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in reference_compositions(total - first, parts - 1):
            yield (first,) + rest


def reference_expand(poset, sizes):
    """Each poset element blown up into a cluster of the given size, by
    testing every pair of elements."""
    if max(sizes) == 1:
        return poset
    starts = []
    total = 0
    for s in sizes:
        starts.append(total)
        total += s
    up = []
    for i in range(poset.size):
        mask = 0
        for j in range(poset.size):
            if poset.le(i, j):
                mask |= ((1 << sizes[j]) - 1) << starts[j]
        up.extend([mask] * sizes[i])
    return Frame(total, tuple(up))


def reference_preorder_classes(n):
    """The preorder classes by expanding every poset class by every
    cluster-size composition and deduping all of them by canonical key."""
    reps = {}
    for k in range(1, n + 1):
        for poset in reference_posets(k):
            for sizes in reference_compositions(n, k):
                frame = reference_expand(poset, sizes)
                reps.setdefault(canonical_key(frame), frame)
    return tuple(reps[key] for key in sorted(reps))


def reference_logic_of_ordinal_space(gamma):
    """``logic_of_ordinal_space`` by stepping n up until w^n reaches gamma."""
    if not gamma < O.omega_power(O.OMEGA):
        return O.S4GRZ
    n = 1
    while O.omega_power(O.from_int(n)) < gamma:
        n += 1
    return O.s4grz_n(n)


class _ReferenceFormulaParser:
    """The character-level formula parser that ``formulas.parse`` replaced:
    it skips whitespace and matches each symbol with ``str.startswith``.
    Each parsing method returns ``(formula, height)``; ``depth`` counts the
    unary operators, parentheses and ``->`` right operands open around the
    position, a unary operator and the parenthesis right after it counting
    once."""

    PREFIX = (("~", fm.Not), ("[]", fm.Box), ("<>", fm.Diamond))
    VAR_START = "abcdefghijklmnopqrstuvwxyz"
    VAR_BODY = VAR_START + VAR_START.upper() + "0123456789_"

    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message):
        raise FormulaSyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def eat(self, token):
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def too_deep(self):
        self.error(f"formula nests deeper than {fm.MAX_NESTING} levels")

    def nested(self, parse_inner):
        self.depth += 1
        if self.depth > fm.MAX_NESTING:
            self.too_deep()
        result = parse_inner()
        self.depth -= 1
        return result

    def binary(self, cls, left, right):
        height = 1 + max(left[1], right[1])
        if self.depth + height > fm.MAX_NESTING:
            self.too_deep()
        return cls(left[0], right[0]), height

    def parse(self):
        phi, _ = self.implies()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("unexpected trailing input")
        return phi

    def implies(self):
        left = self.disjunction()
        if self.eat("->"):
            return self.binary(fm.Implies, left, self.nested(self.implies))
        return left

    def disjunction(self):
        left = self.conjunction()
        while self.eat("|"):
            left = self.binary(fm.Or, left, self.conjunction())
        return left

    def conjunction(self):
        left = self.unary()
        while True:
            self.skip_ws()
            if self.eat("&"):
                left = self.binary(fm.And, left, self.unary())
            else:
                return left

    def unary(self):
        self.skip_ws()
        for token, cls in self.PREFIX:
            if self.text.startswith(token, self.pos):
                self.pos += len(token)
                self.skip_ws()
                if self.text.startswith("(", self.pos):
                    phi, height = self.atom()
                else:
                    phi, height = self.nested(self.unary)
                return cls(phi), height + 1
        return self.atom()

    def atom(self):
        self.skip_ws()
        if self.eat("("):
            phi = self.nested(self.implies)
            if not self.eat(")"):
                self.error("expected ')'")
            return phi
        if self.pos >= len(self.text):
            self.error("unexpected end of input")
        ch = self.text[self.pos]
        if ch == "T":
            self.pos += 1
            return fm.TOP, 0
        if ch == "F":
            self.pos += 1
            return fm.BOT, 0
        if ch in self.VAR_START:
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos] in self.VAR_BODY:
                self.pos += 1
            return fm.Var(self.text[start : self.pos]), 0
        self.error(f"unexpected character {ch!r}")


def reference_parse(text):
    """``formulas.parse`` by the character-level parser it replaced."""
    return _ReferenceFormulaParser(text).parse()


class _ReferenceOrdinalParser:
    """The character-level ordinal parser that ``ordinals.parse_ordinal``
    replaced.  It reads naturals with ``str.isdigit``, so it takes any
    Unicode digit, and ``int`` fails on those that are not decimal."""

    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message):
        raise FormulaSyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def eat(self, token):
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def nat(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected a natural number")
        if self.pos - start > O.MAX_NAT_DIGITS:
            raise FormulaSyntaxError(f"natural number longer than {O.MAX_NAT_DIGITS} digits", start)
        return int(self.text[start : self.pos])

    def ordinal(self):
        total = self.term()
        while self.eat("+"):
            total = total + self.term()
        return total

    def term(self):
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos].isdigit():
            return O.from_int(self.nat())
        if not self.eat("w"):
            self.error("expected 'w' or a natural number")
        exp = O.ONE
        if self.eat("^"):
            self.skip_ws()
            if self.eat("("):
                self.depth += 1
                if self.depth > fm.MAX_NESTING:
                    self.error(f"ordinal nests deeper than {fm.MAX_NESTING} levels")
                exp = self.ordinal()
                self.depth -= 1
                if not self.eat(")"):
                    self.error("expected ')'")
            elif self.pos < len(self.text) and self.text[self.pos].isdigit():
                exp = O.from_int(self.nat())
            elif self.eat("w"):
                exp = O.OMEGA
            else:
                self.error("expected an exponent")
        coeff = 1
        if self.eat("*"):
            coeff = self.nat()
            if coeff < 1:
                self.error("coefficients must be positive")
        return O.omega_power(exp, coeff)

    def parse(self):
        value = self.ordinal()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("unexpected trailing input")
        return value


def reference_parse_ordinal(text):
    """``ordinals.parse_ordinal`` by the character-level parser it replaced."""
    return _ReferenceOrdinalParser(text).parse()


def naive_depths(frame):
    """Depth of every world by its definition: one more than the greatest
    depth of a strict successor (one that does not see the world back)."""
    n = frame.size
    depths = {}

    def depth(w):
        if w not in depths:
            strict = [v for v in range(n) if frame.le(w, v) and not frame.le(v, w)]
            depths[w] = 1 + max((depth(v) for v in strict), default=0)
        return depths[w]

    return [depth(w) for w in range(n)]


def naive_canonical_key(frame):
    """The canonical key by its definition: per-world invariants (depth,
    upset, downset and cluster sizes) refined twice by the sorted invariants
    of the upset and of the downset, then the least relation encoding over
    every relabeling that permutes each invariant group within its slots."""
    n = frame.size
    le = [[frame.le(u, w) for w in range(n)] for u in range(n)]
    depth = naive_depths(frame)
    keys = [(depth[w], sum(le[w]), sum(le[u][w] for u in range(n)),
             sum(le[w][v] and le[v][w] for v in range(n))) for w in range(n)]
    for _ in range(2):
        keys = [(keys[w], tuple(sorted(keys[v] for v in range(n) if le[w][v])),
                 tuple(sorted(keys[v] for v in range(n) if le[v][w]))) for w in range(n)]
    groups = [[w for w in range(n) if keys[w] == key] for key in sorted(set(keys))]
    offsets = [sum(len(g) for g in groups[:i]) for i in range(len(groups))]
    best = None
    for placements in itertools.product(*(itertools.permutations(g) for g in groups)):
        perm = [0] * n
        for offset, placed in zip(offsets, placements):
            for slot, w in enumerate(placed):
                perm[w] = offset + slot
        enc = 0
        for u in range(n):
            for w in range(n):
                if le[u][w]:
                    enc |= 1 << (perm[u] * n + perm[w])
        if best is None or enc < best:
            best = enc
    return (n, best)


def reference_canonical_key(frame):
    """``canonical_key`` as it was before its fast path: both refinement
    rounds always run, and every key goes through the placement product.
    Same definition, same value."""
    n = frame.size
    up = frame.up
    succ = [worlds_of(mask) for mask in up]
    down = F.down_masks(frame)
    pred = [worlds_of(mask) for mask in down]
    cluster = F.cluster_masks(frame)
    depth = depth_vector(frame)
    rank = F._ranks([(depth[w], len(succ[w]), len(pred[w]), cluster[w].bit_count()) for w in range(n)])
    for _ in range(2):
        at = rank.__getitem__
        rank = F._ranks([(rank[w], tuple(sorted(map(at, succ[w]))), tuple(sorted(map(at, pred[w]))))
                         for w in range(n)])
    count = max(rank) + 1
    groups = [[] for _ in range(count)]
    for w in range(n):
        groups[rank[w]].append(w)
    perm = [0] * n
    choices = []
    offset = 0
    for group in groups:
        twins = {}
        for w in group:
            c = cluster[w]
            twins.setdefault((up[w] ^ c, down[w] ^ c, c if c & (c - 1) else 0), []).append(w)
        slots = range(offset, offset + len(group))
        offset += len(group)
        if len(twins) == 1:
            for w, slot in zip(group, slots):
                perm[w] = slot
        else:
            choices.append(list(F._twin_placements(list(twins.values()), list(slots))))
    best = None
    for placements in itertools.product(*choices):
        for placed in placements:
            for w, slot in placed:
                perm[w] = slot
        enc = 0
        for u in range(n):
            row = perm[u] * n
            for w in succ[u]:
                enc |= 1 << (row + perm[w])
        if best is None or enc < best:
            best = enc
    return (n, best)


def naive_onto_p_morphisms(source, target):
    """All onto p-morphisms, by filtering every possible map."""
    found = []
    for mapping in itertools.product(range(target.size), repeat=source.size):
        if set(mapping) != set(range(target.size)):
            continue
        ok = True
        for u in range(source.size):
            for w in range(source.size):
                if source.le(u, w) and not target.le(mapping[u], mapping[w]):
                    ok = False
        for w in range(source.size):
            for v in range(target.size):
                if target.le(mapping[w], v):
                    if not any(source.le(w, u) and mapping[u] == v for u in range(source.size)):
                        ok = False
        if ok:
            found.append(mapping)
    return found


def reference_onto_p_morphism(source, target):
    """The unpruned backtracking search: source worlds in index order, every
    target value tried ascending with a per-value forth check against all
    earlier worlds.  Returns the least onto p-morphism as a tuple, or None."""
    n, m = source.size, target.size
    if n < m:
        return None
    up_s, up_t = source.up, target.up
    # worlds are assigned in index order, so the upset of w is fully assigned
    # exactly after its highest member's step; back checks run there
    completed_at = [[] for _ in range(n)]
    for w in range(n):
        completed_at[up_s[w].bit_length() - 1].append(w)
    assignment = [-1] * n

    def back_ok(w: int) -> bool:
        image = 0
        rest = up_s[w]
        while rest:
            u = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            image |= 1 << assignment[u]
        return not (up_t[assignment[w]] & ~image)

    def assign(pos: int, used: int) -> bool:
        if pos == n:
            return used == (1 << m) - 1
        for v in range(m):
            ok = True
            for u in range(pos):
                au = assignment[u]
                if (up_s[u] >> pos) & 1 and not (up_t[au] >> v) & 1:
                    ok = False
                    break
                if (up_s[pos] >> u) & 1 and not (up_t[v] >> au) & 1:
                    ok = False
                    break
            if not ok:
                continue
            assignment[pos] = v
            new_used = used | (1 << v)
            if m - new_used.bit_count() <= n - pos - 1 and all(
                back_ok(w) for w in completed_at[pos]
            ):
                if assign(pos + 1, new_used):
                    return True
            assignment[pos] = -1
        return False

    if assign(0, 0):
        return tuple(assignment)
    return None


def modal_depth(phi: fm.Formula) -> int:
    """The deepest nesting of boxes and diamonds, folded over ``postorder``."""
    depth = {}
    for node in fm.postorder(phi):
        match node:
            case fm.Var() | fm.Top() | fm.Bot():
                d = 0
            case fm.Not(operand=op):
                d = depth[id(op)]
            case fm.Box(operand=op) | fm.Diamond(operand=op):
                d = 1 + depth[id(op)]
            case fm.And(left=a, right=b) | fm.Or(left=a, right=b) | fm.Implies(left=a, right=b):
                d = max(depth[id(a)], depth[id(b)])
            case _:
                raise TypeError(f"not a formula: {node!r}")
        depth[id(node)] = d
    return depth[id(phi)]


def eliminate_diamonds(phi: fm.Formula) -> fm.Formula:
    """Rewrite every diamond as ~[]~ (explicit normalization; never applied
    silently by the parser or printer), folded over ``postorder``."""
    done = {}
    for node in fm.postorder(phi):
        match node:
            case fm.Diamond(operand=op):
                new = fm.Not(fm.Box(fm.Not(done[id(op)])))
            case fm.Not(operand=op) | fm.Box(operand=op):
                new = type(node)(done[id(op)])
            case fm.And(left=a, right=b) | fm.Or(left=a, right=b) | fm.Implies(left=a, right=b):
                new = type(node)(done[id(a)], done[id(b)])
            case _:
                new = node
        done[id(node)] = new
    return done[id(phi)]


def logic_leq(a: O.LogicId, b: O.LogicId) -> bool | None:
    """Declared containment (a included in b) for the fragment of the
    lattice the classifiers can emit; None when the order is not recorded.

    The recorded chain: S4.1 < L_inf < ... < L_2 < L_1 = S4.1.2.
    """
    def ln_rank(x: O.LogicId):
        if x.kind == "S412":
            return 1
        if x.kind == "LN":
            return x.n
        if x.kind == "LInf":
            return float("inf")
        if x.kind == "S41":
            return None  # below everything in the chain
        return "outside"

    ra, rb = ln_rank(a), ln_rank(b)
    if ra == "outside" or rb == "outside":
        return None
    if ra is None:
        return True
    if rb is None:
        return a.kind == "S41"
    return ra >= rb


def naive_extension(frame, valuation, phi):
    """The set of worlds where ``phi`` holds, by recursion on the formula
    straight from the definitions, with no masks and no shared walk: a box
    holds at the worlds whose whole upset lies in its operand's set, a
    diamond at those whose upset meets it.  Unassigned variables are false
    everywhere.  A shared subtree is evaluated once per occurrence."""
    worlds = set(frame.worlds())
    upset = {w: {v for v in worlds if frame.le(w, v)} for w in worlds}

    def holds(node):
        match node:
            case fm.Var(name=name):
                return worlds & set(valuation.get(name, ()))
            case fm.Top():
                return set(worlds)
            case fm.Bot():
                return set()
            case fm.Not(operand=a):
                return worlds - holds(a)
            case fm.And(left=a, right=b):
                return holds(a) & holds(b)
            case fm.Or(left=a, right=b):
                return holds(a) | holds(b)
            case fm.Implies(left=a, right=b):
                return (worlds - holds(a)) | holds(b)
            case fm.Box(operand=a):
                inside = holds(a)
                return {w for w in worlds if upset[w] <= inside}
            case fm.Diamond(operand=a):
                inside = holds(a)
                return {w for w in worlds if upset[w] & inside}
        raise TypeError(f"not a formula: {node!r}")

    return holds(phi)


def naive_frame_validates(frame, phi):
    """Validity by looping over every valuation one at a time."""
    names = fm.variables(phi)
    worlds = set(frame.worlds())
    for assignment in itertools.product(range(1 << frame.size), repeat=len(names)):
        valuation = {name: set(worlds_of(mask)) for name, mask in zip(names, assignment)}
        if naive_extension(frame, valuation, phi) != worlds:
            return False
    return True


def naive_least_refuting_index(frame, phi):
    """Least valuation index refuting the formula on the frame, trying the
    valuations one at a time in index order (variable v of the sorted names
    true at world i when bit v*n+i of the index is set), or -1."""
    names = fm.variables(phi)
    n = frame.size
    for index in range(1 << (len(names) * n)):
        valuation = {name: {i for i in range(n) if (index >> (v * n + i)) & 1}
                     for v, name in enumerate(names)}
        if naive_extension(frame, valuation, phi) != set(range(n)):
            return index
    return -1


def formula_with_repeats(rng, names, steps):
    """Each step combines earlier parts: the same object, or an equal copy."""
    pool = [fm.Var(name) for name in names] + [fm.TOP, fm.BOT]

    def pick():
        part = rng.choice(pool)
        return part if rng.random() < 0.6 else fm.parse(fm.render(part))

    for _ in range(steps):
        kind = rng.randrange(6)
        if kind < 3:
            pool.append((fm.Not, fm.Box, fm.Diamond)[kind](pick()))
        else:
            pool.append((fm.And, fm.Or, fm.Implies)[kind - 3](pick(), pick()))
    return pool[-1]


def reference_compile_formula(phi):
    """``compile_formula`` as a recursive walk that shares subformulas by
    hashing formula nodes: a repeated subtree, equal by value, is emitted
    once, at its first postorder position."""
    variables = fm.variables(phi)
    var_index = {name: i for i, name in enumerate(variables)}
    ops, memo = [], {}
    unary = {fm.Not: P.OP_NOT, fm.Box: P.OP_BOX, fm.Diamond: P.OP_DIA}
    binary = {fm.And: P.OP_AND, fm.Or: P.OP_OR, fm.Implies: P.OP_IMP}

    def emit(node):
        if node in memo:
            return memo[node]
        match node:
            case fm.Bot():
                instr = (P.OP_BOT, 0, 0)
            case fm.Top():
                instr = (P.OP_TOP, 0, 0)
            case fm.Var(name=name):
                instr = (P.OP_VAR, var_index[name], 0)
            case fm.Not() | fm.Box() | fm.Diamond():
                instr = (unary[type(node)], emit(node.operand), 0)
            case fm.And() | fm.Or() | fm.Implies():
                instr = (binary[type(node)], emit(node.left), emit(node.right))
            case _:
                raise TypeError(f"not a formula: {node!r}")
        memo[node] = len(ops)
        ops.append(instr)
        return memo[node]

    emit(phi)
    return P.Program(tuple(ops), variables)


def reference_dying_slots(ops):
    """The slots that die after each instruction, ascending: each slot but
    the result dies at its last use, the instruction itself when no later
    one reads it."""
    last_use = list(range(len(ops)))
    for pc, (op, a, b) in enumerate(ops):
        if op in (P.OP_NOT, P.OP_BOX, P.OP_DIA):
            last_use[a] = pc
        elif op in (P.OP_AND, P.OP_OR, P.OP_IMP):
            last_use[a] = last_use[b] = pc
    return tuple(tuple(s for s in range(len(ops) - 1) if last_use[s] == pc)
                 for pc in range(len(ops)))


def reference_is_2_roach(frame):
    """Decide 2-roachness by the recursive characterization: some s has
    upset {s} + maxima and every world outside its downset sees exactly one
    maximal point."""
    R._require_frame(frame)
    flags = classify_frame(frame)
    max_mask = mask_of(flags.max_points)
    down_of = downset_mask
    for s in frame.worlds():
        if frame.up[s] != (1 << s) | max_mask:
            continue
        below_s = down_of(frame, 1 << s)
        ok = True
        for w in frame.worlds():
            if (below_s >> w) & 1:
                continue
            if (frame.up[w] & max_mask).bit_count() != 1:
                ok = False
                break
        if not ok:
            continue
        t = []
        for w in frame.worlds():
            if (below_s >> w) & 1:
                t.append(s)
            else:
                t.append((frame.up[w] & max_mask).bit_length() - 1)
        return R.SplittingCertificate(s, 2, tuple(t))
    return None


def reference_is_willow_tree(frame):
    """``is_willow_tree`` gated on ``reference_is_2_roach`` before it walks
    the splitting points."""
    R._require_frame(frame)
    if reference_is_2_roach(frame) is None:
        return None
    for s, t in R.splitting_points(frame, 2):
        body_mask = ((1 << frame.size) - 1) & ~frame.up[s]
        if body_mask == 0:
            return R.WillowEvidence(R.SplittingCertificate(s, 2, t), ())
        body, _ = F.subframe(frame, worlds_of(body_mask))
        if classify_frame(body).quasi_tree:
            return R.WillowEvidence(R.SplittingCertificate(s, 2, t), worlds_of(body_mask))
    return None


def reference_pairs(frame):
    """``Frame.pairs`` by testing every ordered pair of worlds."""
    return [(u, w) for u in frame.worlds() for w in frame.worlds() if frame.le(u, w)]


def reference_quasi_tree(frame):
    """The quasi-tree flag: rooted, and any two worlds of a downset are
    comparable, tested pair by pair."""
    if not classify_frame(frame).rooted:
        return False
    for w in frame.worlds():
        below = worlds_of(F.down_masks(frame)[w])
        for u, v in itertools.combinations(below, 2):
            if not (frame.le(u, v) or frame.le(v, u)):
                return False
    return True


def reference_clusters_and_skeleton(frame):
    """``clusters_and_skeleton`` with the skeleton order read off one
    ``le`` test per pair of cluster representatives."""
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
    k = len(partition)
    up = [0] * k
    for i, members in enumerate(partition):
        for j, others in enumerate(partition):
            if frame.le(members[0], others[0]):
                up[i] |= 1 << j
    return partition, Frame(k, tuple(up)), tuple(pi)


def reference_unravel_to_quasi_tree(frame, node_budget=C.DEFAULT_NODE_BUDGET):
    """``unravel_to_quasi_tree`` with each node stored as its whole cover
    path of clusters, grown by recursion, and a tree world below another
    exactly when its path extends the other's."""
    flags = classify_frame(frame)
    if not flags.rooted:
        raise PreconditionError("unraveling needs a rooted frame")
    partition, skeleton, pi = reference_clusters_and_skeleton(frame)
    covers = C._cover_masks(skeleton)
    paths = []

    def grow(path):
        if len(paths) >= node_budget:
            raise BudgetExceededError(f"unraveling exceeds the node budget {node_budget}")
        paths.append(path)
        for d in worlds_of(covers[path[-1]]):
            grow(path + (d,))

    grow((pi[flags.roots[0]],))
    worlds = [(idx, w) for idx, path in enumerate(paths) for w in partition[path[-1]]]
    up = [0] * len(worlds)
    for i, (p_idx, _) in enumerate(worlds):
        p = paths[p_idx]
        for j, (q_idx, _) in enumerate(worlds):
            q = paths[q_idx]
            if len(q) >= len(p) and q[: len(p)] == p:
                up[i] |= 1 << j
    tree = Frame(len(worlds), tuple(up))
    return C.UnravelResult(tree, verified_morphism(tree, frame, (w for _, w in worlds)))


def reference_roach_to_willow(frame, node_budget=C.DEFAULT_NODE_BUDGET):
    """``roach_to_willow`` over ``reference_unravel_to_quasi_tree``, with
    the antennae grafted by one ``le`` test per tree world and antenna."""
    cert = R.is_2_roach(frame)
    if cert is None:
        raise PreconditionError("input is not a 2-roach")
    if R.is_willow_tree(frame) is not None:
        return C.UnravelResult(frame, identity_morphism(frame))
    flags = classify_frame(frame)
    s = flags.max_points[0] if flags.s412 else cert.s
    antennae = worlds_of(frame.up[s])
    body, body_embedding = F.subframe(frame, worlds_of(((1 << frame.size) - 1) & ~frame.up[s]))
    unravelled = reference_unravel_to_quasi_tree(body, node_budget=node_budget)
    t = unravelled.tree
    t_map = unravelled.morphism.mapping
    ant_pos = {w: t.size + i for i, w in enumerate(antennae)}
    up = []
    for x in range(t.size):
        mask = t.up[x]
        for w in antennae:
            if frame.le(body_embedding[t_map[x]], w):
                mask |= 1 << ant_pos[w]
        up.append(mask)
    for w in antennae:
        up.append(sum(1 << ant_pos[v] for v in antennae if frame.le(w, v)))
    willow = Frame(t.size + len(antennae), tuple(up))
    mapping = tuple(body_embedding[t_map[x]] for x in range(t.size)) + tuple(antennae)
    return C.UnravelResult(willow, verified_morphism(willow, frame, mapping))


def random_frames(seed, count, max_worlds, rooted=False):
    """Seeded random frames of 1..max_worlds worlds.  Unrooted ones close
    random edges, so cycles give clusters.  Rooted ones put world 0 below a
    random order on the others in which each world has one or two earlier
    parents and may see its first parent back, which gives trees, quasi-trees
    with clusters and frames with incomparable predecessors."""
    rng = random.Random(seed)
    frames = []
    for _ in range(count):
        n = rng.randint(1, max_worlds)
        if rooted:
            edges = [(0, w) for w in range(1, n)]
            for w in range(2, n):
                parents = rng.sample(range(1, w), min(w - 1, rng.choice((1, 2))))
                edges += [(parent, w) for parent in parents]
                if rng.random() < 0.1:
                    edges.append((w, parents[0]))
        else:
            p = rng.choice((0.1, 0.2, 0.35))
            edges = [(u, w) for u in range(n) for w in range(n) if rng.random() < p]
        frames.append(F.normalize_frame(edges, n))
    return frames


def random_formula(rng, depth, names):
    """A random formula from ``rng``, nested at most ``depth`` deep, over
    the variables ``names`` (the constants when there are none): a node is
    a leaf with chance 1/4 or at depth 0, else one of the six connectives
    with equal chances."""
    if depth == 0 or rng.random() < 0.25:
        return fm.Var(rng.choice(names)) if names else rng.choice([fm.Top(), fm.Bot()])
    kind = rng.randrange(6)
    if kind < 3:
        return (fm.Not, fm.Box, fm.Diamond)[kind](random_formula(rng, depth - 1, names))
    left, right = random_formula(rng, depth - 1, names), random_formula(rng, depth - 1, names)
    return (fm.And, fm.Or, fm.Implies)[kind - 3](left, right)


def reference_worlds_of(mask):
    """``worlds_of`` by peeling the lowest set bit off one at a time."""
    out = []
    while mask:
        w = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        out.append(w)
    return tuple(out)


class CollapseError(RoachkitError, ValueError):
    """A quotient block is neither an upset nor a mergeable antichain."""


def _block_modes(frame: Frame, block_mask: int) -> bool:
    """Whether a block is collapsible: an upset, or singleton-cluster worlds
    sharing one strict upset."""
    worlds = worlds_of(block_mask)
    if all(not frame.up[w] & ~block_mask for w in worlds):
        return True
    cmasks = cluster_masks(frame)
    strict = None
    for w in worlds:
        if cmasks[w] != 1 << w:
            return False
        s = frame.up[w] & ~(1 << w)
        if strict is None:
            strict = s
        elif s != strict:
            return False
    return True


def collapse(frame: Frame, blocks) -> tuple[Frame, PMorphism]:
    """Quotient identifying each block to a point; unlisted worlds stay
    singletons.  Blocks must be pairwise disjoint and each one an upset or a
    same-strict-upset set of singleton-cluster worlds.  The quotient chain
    of ``reference_minimal_forbidden_witness`` is built from these."""
    blocks = [mask_of(b) for b in blocks]
    seen = 0
    for i, mask in enumerate(blocks):
        if mask == 0:
            raise CollapseError(f"block {i} is empty")
        if mask & seen:
            raise CollapseError(f"block {i} overlaps an earlier block")
        if mask & ~((1 << frame.size) - 1):
            raise CollapseError(f"block {i} mentions out-of-range worlds")
        seen |= mask
        if not _block_modes(frame, mask):
            raise CollapseError(
                f"block {i} ({sorted(worlds_of(mask))}) is neither an upset nor a "
                "same-successor antichain of singleton clusters"
            )
    all_blocks = list(blocks)
    for w in frame.worlds():
        if not (seen >> w) & 1:
            all_blocks.append(1 << w)
    all_blocks.sort(key=lambda m: (m & -m).bit_length())
    mapping = [0] * frame.size
    for idx, mask in enumerate(all_blocks):
        for w in worlds_of(mask):
            mapping[w] = idx
    k = len(all_blocks)
    up = [0] * k
    for u in frame.worlds():
        for w in worlds_of(frame.up[u]):
            up[mapping[u]] |= 1 << mapping[w]
    try:
        quotient = Frame(k, tuple(up))
    except Exception as exc:
        raise CollapseError(f"blocks do not induce a preorder quotient: {exc}") from None
    pm = PMorphism(frame, quotient, tuple(mapping))
    violation = check_p_morphism(pm, require_onto=True)
    if violation is not None:
        raise CollapseError(f"blocks do not yield a p-morphic quotient: {violation}")
    return quotient, pm


def skeleton_morphism(frame: Frame) -> PMorphism:
    """The cluster-collapse map onto the skeleton, as a verified morphism."""
    _, skel, pi = clusters_and_skeleton(frame)
    return verified_morphism(frame, skel, pi)


def _reference_pullback_witness(frame: Frame, chain, final_world_map, which: str,
                      generator_pre: int) -> R.ForbiddenWitness:
    """Compose collapse morphisms with a final partial map and restrict to
    the generated subframe at the least preimage of ``generator_pre``."""
    def total(w: int) -> int:
        for pm in chain:
            w = pm.mapping[w]
        return w

    candidates = [w for w in frame.worlds() if total(w) == generator_pre]
    g = min(candidates)
    sub, embedding = generated_subframe(frame, g)
    pm = verified_morphism(sub, R.builtin(which), (final_world_map[total(v)] for v in embedding))
    return R.ForbiddenWitness(which, g, embedding, pm)


def _reference_crisscross_same_cluster(frame: Frame, a: int) -> R.ForbiddenWitness:
    """a and a cluster-mate both have depth 2 and see two or more maxima;
    the upset of a maps onto F2 directly."""
    cmask = cluster_masks(frame)[a]
    max_mask = mask_of(classify_frame(frame).max_points)
    m_a = frame.up[a] & max_mask
    m = (m_a & -m_a).bit_length() - 1
    sub, embedding = generated_subframe(frame, a)
    mapping = []
    for i, old in enumerate(embedding):
        if old == a:
            mapping.append(0)
        elif (cmask >> old) & 1:
            mapping.append(1)
        elif old == m:
            mapping.append(2)
        else:
            mapping.append(3)
    return R.ForbiddenWitness("F2", a, embedding, verified_morphism(sub, R.builtin("F2"), mapping))


def _reference_quasi_maximal_in(frame: Frame, region_mask: int) -> int:
    """Least world of the region whose strict successors leave the region."""
    cmasks = cluster_masks(frame)
    for q in worlds_of(region_mask):
        if frame.up[q] & region_mask & ~cmasks[q] == 0:
            return q
    raise AssertionError("nonempty region of a finite frame has a quasi-maximal point")


def _reference_crisscross_distinct_clusters(frame: Frame, a: int, b: int) -> R.ForbiddenWitness:
    max_mask = mask_of(classify_frame(frame).max_points)
    m_a = frame.up[a] & max_mask
    m_b = frame.up[b] & max_mask
    common = m_a & m_b
    if common == 0:
        n1 = (m_a & -m_a).bit_length() - 1
        nn1 = (m_b & -m_b).bit_length() - 1
        group1 = (1 << n1) | (1 << nn1)
    elif common.bit_count() == 1:
        group1 = common
    else:
        group1 = common & -common
    group2 = max_mask & ~group1
    chain = []
    current = frame
    ca, cb = a, b

    step1, pm1 = collapse(current, [worlds_of(g) for g in (group1, group2) if g])
    chain.append(pm1)
    ca, cb = pm1.mapping[ca], pm1.mapping[cb]
    current = step1

    maxima = mask_of(classify_frame(current).max_points)
    mu1 = maxima & -maxima
    mu2 = maxima & ~mu1
    full = (1 << current.size) - 1
    blocks = [worlds_of(full & ~downset_mask(current, mu1)),
              worlds_of(full & ~downset_mask(current, mu2))]
    step2, pm2 = collapse(current, blocks)
    chain.append(pm2)
    ca, cb = pm2.mapping[ca], pm2.mapping[cb]
    current = step2

    pm3 = skeleton_morphism(current)
    chain.append(pm3)
    ca, cb = pm3.mapping[ca], pm3.mapping[cb]
    current = pm3.target

    depths = depth_vector(current)
    others = [w for w in current.worlds() if depths[w] == 2 and w != ca]
    if len(others) > 1:
        step4, pm4 = collapse(current, [others])
        chain.append(pm4)
        ca, cb = pm4.mapping[ca], pm4.mapping[cb]
        current = step4

    region = downset_mask(current, 1 << ca) & downset_mask(current, 1 << cb)
    q = _reference_quasi_maximal_in(current, region)
    cq = cluster_masks(current)[q]
    maxima = mask_of(classify_frame(current).max_points)
    n1 = maxima & -maxima
    final = {}
    for x in current.worlds():
        if (n1 >> x) & 1:
            final[x] = 3  # m1
        elif (maxima >> x) & 1:
            final[x] = 4  # m2
        elif (cq >> x) & 1:
            final[x] = 0  # r
        elif (downset_mask(current, 1 << ca) >> x) & 1 and (current.up[q] >> x) & 1:
            final[x] = 1  # v1
        else:
            final[x] = 2  # v2
    return _reference_pullback_witness(frame, chain, final, "F3", q)


def _reference_tall_two_fork_map(frame: Frame, q: int) -> dict[int, int]:
    """The four-case map onto F1 from a rooted frame whose root cluster is
    the only place seeing several maxima and whose depth is at least 3."""
    cq = cluster_masks(frame)[q]
    maxima = mask_of(classify_frame(frame).max_points)
    others = ((1 << frame.size) - 1) & ~(cq | maxima)
    y = (others & -others).bit_length() - 1
    n1_mask = frame.up[y] & maxima
    n1 = (n1_mask & -n1_mask).bit_length() - 1
    below_n1 = downset_mask(frame, 1 << n1)
    final = {}
    for x in frame.worlds():
        if x == n1:
            final[x] = 2  # m1
        elif (below_n1 >> x) & 1 and not (cq >> x) & 1:
            final[x] = 1  # v
        elif (cq >> x) & 1:
            final[x] = 0  # r
        else:
            final[x] = 3  # m2
    return final


def _reference_tall_two_fork_direct(frame: Frame, w: int) -> R.ForbiddenWitness:
    sub, embedding = generated_subframe(frame, w)
    final = _reference_tall_two_fork_map(sub, embedding.index(w))
    pm = verified_morphism(sub, R.builtin("F1"), (final[i] for i in range(sub.size)))
    return R.ForbiddenWitness("F1", w, embedding, pm)


def reference_minimal_forbidden_witness(frame: Frame) -> R.ForbiddenWitness:
    """``minimal_forbidden_witness`` through the quotient chain: collapse
    the maxima into two groups (and, for F3, the one-sided upsets, the
    clusters and the other depth-2 points), build the map on the quotient,
    and pull it back to the least preimage of the generator.  Every quotient
    orders its blocks by least member, which the direct maps rely on."""
    R._require_frame(frame)
    if R.is_2_roach(frame) is not None:
        raise PreconditionError("frame is a 2-roach; no forbidden configuration exists")
    flags = classify_frame(frame)
    max_mask = mask_of(flags.max_points)
    depths = depth_vector(frame)
    fat = [w for w in frame.worlds()
           if depths[w] == 2 and (frame.up[w] & max_mask).bit_count() >= 2]

    if len(fat) >= 2:
        a = fat[0]
        cmask_a = cluster_masks(frame)[a]
        same = [w for w in fat[1:] if (cmask_a >> w) & 1]
        if same:
            return _reference_crisscross_same_cluster(frame, a)
        return _reference_crisscross_distinct_clusters(frame, a, fat[1])

    if len(fat) == 1 and frame.up[fat[0]] & max_mask == max_mask:
        s = fat[0]
        below_s = downset_mask(frame, 1 << s)
        bad = [w for w in frame.worlds()
               if not (below_s >> w) & 1 and (frame.up[w] & max_mask).bit_count() >= 2]
        bad_mask = mask_of(bad)
        w = _reference_quasi_maximal_in(frame, bad_mask)
        return _reference_tall_two_fork_direct(frame, w)

    # remaining frames: collapse the maxima into two groups, find a deep
    # quasi-maximal point below both, and map its upset onto F1
    if len(fat) == 1:
        group1 = frame.up[fat[0]] & max_mask
    else:
        group1 = max_mask & -max_mask
    group2 = max_mask & ~group1
    collapsed, pm1 = collapse(frame, [worlds_of(g) for g in (group1, group2) if g])
    maxima = mask_of(classify_frame(collapsed).max_points)
    mu1 = maxima & -maxima
    mu2 = maxima & ~mu1
    region = downset_mask(collapsed, mu1) & downset_mask(collapsed, mu2)
    q = _reference_quasi_maximal_in(collapsed, region)
    sub_q, emb_q = generated_subframe(collapsed, q)
    final_sub = _reference_tall_two_fork_map(sub_q, emb_q.index(q))
    final = {emb_q[i]: final_sub[i] for i in range(sub_q.size)}
    return _reference_pullback_witness(frame, [pm1], final, "F1", q)


def relabel(frame, perm):
    """The frame with world w renamed perm[w]."""
    up = [0] * frame.size
    for u, w in frame.pairs():
        up[perm[u]] |= 1 << perm[w]
    return Frame(frame.size, tuple(up))


def reference_2_roach_filter(frame):
    """The ``2-roach`` enumeration filter as a predicate on any frame.  The
    enumeration generates these classes from their pieces and is tested
    against this filter over the ``all`` classes."""
    flags = classify_frame(frame)
    return flags.rooted and flags.s41 and R.is_2_roach(frame) is not None


def reference_filter(name):
    """The enumeration filter ``name`` as a predicate on any frame.  The
    enumeration builds the ``rooted``, ``s41-rooted``, ``willow`` and
    ``2-roach`` classes from classes on fewer worlds, and is tested against
    these predicates over the ``all`` classes."""
    if name == "rooted":
        return lambda f: classify_frame(f).rooted
    if name == "s41-rooted":
        return lambda f: classify_frame(f).rooted and classify_frame(f).s41
    if name == "willow":
        def is_willow(f):
            flags = classify_frame(f)
            return flags.rooted and flags.s41 and R.is_willow_tree(f) is not None

        return is_willow
    if name == "2-roach":
        return reference_2_roach_filter
    raise ValueError(f"unknown filter {name!r}")


def reference_decide_lr2(phi, bound):
    """``decide_lr2``'s search over the 2-roach classes filtered from every
    preorder class.  The generated enumeration has the same classes in the
    same order, so the verdicts agree in kind, size and refuting class; for
    frames of five or more worlds the representatives, and with them the
    refuting valuations, may be labelled differently."""
    for size in range(1, bound + 1):
        for frame in F.enumerate_frames(size, "all"):
            if reference_2_roach_filter(frame):
                refutation = S.find_refutation(frame, phi)
                if refutation is not None:
                    valuation, world = refutation
                    return D.Refuted(S.Model(frame, valuation), world)
    return D.NoCountermodelUpTo(bound)


def reference_scan_decide_lr2(phi, bound):
    """``decide_lr2`` without the Fine-Jankov route: every 2-roach up to the
    bound is scanned, frame formulas included."""
    if bound < 1 or bound > D.DECISION_CEILING:
        raise CeilingExceededError(f"bound must lie in 1..{D.DECISION_CEILING}")
    for size in range(1, bound + 1):
        for frame in D.enumerate_frames(size, "2-roach", ceiling=D.DECISION_CEILING):
            refutation = S.find_refutation(frame, phi)
            if refutation is not None:
                valuation, world = refutation
                return D.Refuted(S.Model(frame, valuation), world)
    return D.NoCountermodelUpTo(bound)


@pytest.fixture(scope="session")
def small_frames():
    """All rooted frames with up to 4 worlds."""
    return [f for n in range(1, 5) for f in F.enumerate_frames(n, "rooted")]
