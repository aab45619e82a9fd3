"""Modal formula ASTs, a recursive-descent parser, a printer, named axioms,
and Fine-Jankov formula synthesis.

ASCII grammar: variables ``[a-z][a-zA-Z0-9_]*``; ``~`` not, ``&`` and,
``|`` or, ``->`` implies (right associative), ``[]`` box, ``<>`` diamond,
``T``/``F`` constants, parentheses.  Precedence: unary > ``&`` > ``|`` >
``->``.  Diamond is a primitive connective, not sugar for ``~[]~``.
Formula text may nest at most ``MAX_NESTING`` levels deep.

The parser stands on ``_TextParser``, a cursor that reads one token per
match of a compiled regular expression, after any whitespace; ``ordinals``
parses ordinal text on the same cursor.  A character that starts no token
is a token of its own, so each ``FormulaSyntaxError`` keeps its position.
"""

from __future__ import annotations

import re

from ._record import record
from .errors import FormulaSyntaxError, FrameFormatError, PreconditionError
from .frames import Frame, classify_frame


class Formula:
    """Base class for formula AST nodes."""

    __slots__ = ()

    def __str__(self):
        return render(self)


@record
class Var(Formula):
    name: str


@record
class Top(Formula):
    pass


@record
class Bot(Formula):
    pass


@record
class Not(Formula):
    operand: Formula


@record
class And(Formula):
    left: Formula
    right: Formula


@record
class Or(Formula):
    left: Formula
    right: Formula


@record
class Implies(Formula):
    left: Formula
    right: Formula


@record
class Box(Formula):
    operand: Formula


@record
class Diamond(Formula):
    operand: Formula


TOP = Top()
BOT = Bot()


def variables(phi: Formula) -> tuple[str, ...]:
    """Variable names occurring in the formula, sorted."""
    return tuple(sorted({node.name for node in postorder(phi) if type(node) is Var}))


def postorder(phi: Formula) -> tuple:
    """The formula's distinct node objects, each after its operands and the
    left operand's nodes before the right's.  An explicit stack replaces
    recursion, and nodes are told apart by identity, so neither depth nor a
    shared subtree costs a deep walk or a hash of the subtree.  Formulas are
    frozen, so the walk runs once per root object: its tuple is kept on the
    root, and ``variables``, the compiler and ``semantics`` all share it."""
    order = getattr(phi, "_postorder", None)
    if order is None:
        order = _walk(phi)
        if isinstance(phi, Formula):  # anything else is refused by the caller
            object.__setattr__(phi, "_postorder", order)
    return order


def _walk(phi: Formula) -> tuple:
    order, entered, stack = [], set(), [phi]
    while stack:
        node = stack.pop()
        if node is None:  # every operand of the node below it is done
            order.append(stack.pop())
        elif (key := id(node)) not in entered:
            entered.add(key)
            kind = type(node)
            if kind is And or kind is Or or kind is Implies:
                stack += (node, None, node.right, node.left)
            elif kind is Not or kind is Box or kind is Diamond:
                stack += (node, None, node.operand)
            else:
                order.append(node)
    return tuple(order)


def _balanced(op, parts, empty: Formula) -> Formula:
    """Pair neighbours level by level; an odd last part moves up unpaired."""
    parts = list(parts)
    if not parts:
        return empty
    while len(parts) > 1:
        merged = [op(parts[i], parts[i + 1]) for i in range(0, len(parts) - 1, 2)]
        if len(parts) % 2:
            merged.append(parts[-1])
        parts = merged
    return parts[0]


def conj(parts) -> Formula:
    """Balanced conjunction of a sequence (TOP when empty)."""
    return _balanced(And, parts, TOP)


def disj(parts) -> Formula:
    """Balanced disjunction of a sequence (BOT when empty)."""
    return _balanced(Or, parts, BOT)


# ---------------------------------------------------------------------------
# parsing / printing

# Deepest formula text ``parse`` accepts.  For every node of the syntax tree,
# its height plus the unary operators, parentheses and implication right
# operands open around it may not exceed this; deeper text raises
# FormulaSyntaxError.  The parser recurses a few frames per level, so this
# keeps it well inside Python's recursion limit; rendering, compiling and
# evaluating do not recurse.  The
# Fine-Jankov formulas of the forbidden configurations are at most 12 levels
# deep, and the depth axiom bd(n) is 4n - 1 levels deep, so it parses back
# for n <= 25.
MAX_NESTING = 100

_PREFIX = {"~": Not, "[]": Box, "<>": Diamond}
_CONSTANTS = {"T": TOP, "F": BOT}
# the left-associative levels, loosest first
_CHAINS = (("|", Or), ("&", And))


class _TextParser:
    """A cursor over text that reads one token at a time.  ``token`` is the
    token at ``pos``, after any whitespace: one match of ``TOKEN``, whose
    first group is the token, "" at the end of the text, and any character
    that starts no longer token on its own.  ``end`` is where the last
    consumed token ended, and ``depth`` counts the nesting levels open
    around the cursor.  An error points at ``pos``, the token refused, or
    at ``end`` when a check fails on what was just consumed.  A grammar
    sets ``TOKEN`` and ``NOUN``, the word its nesting errors use, and
    parses the whole text in ``start``."""

    def __init__(self, text: str):
        self.text = text
        self.depth = 0
        self.pos = self.end = 0
        self.token = ""
        self.advance()

    def advance(self):
        """Consume the current token and read the next one."""
        self.end = self.pos + len(self.token)
        match = self.TOKEN.match(self.text, self.end)
        self.pos = match.start(1)
        self.token = match[1]

    def eat(self, token: str) -> bool:
        if self.token != token:
            return False
        self.advance()
        return True

    def error(self, message, at=None):
        raise FormulaSyntaxError(message, self.pos if at is None else at)

    def check_depth(self, levels, at):
        if self.depth + levels > MAX_NESTING:
            self.error(f"{self.NOUN} nests deeper than {MAX_NESTING} levels", at)

    def nested(self, parse_inner, at):
        """``parse_inner`` one level deeper; too deep an error at ``at``."""
        self.depth += 1
        self.check_depth(0, at)
        result = parse_inner()
        self.depth -= 1
        return result

    def parse(self):
        value = self.start()
        if self.token:
            self.error("unexpected trailing input")
        return value


class _Parser(_TextParser):
    """Each parsing method returns ``(formula, height)``; ``depth`` counts
    the unary operators, parentheses and ``->`` right operands open around
    the cursor, a unary operator and the parenthesis right after it counting
    once.  Every returned height plus the depth it was parsed at stays
    within ``MAX_NESTING``, so ``render`` of any formula at most
    ``MAX_NESTING`` connectives high parses back."""

    TOKEN = re.compile(r"\s*([a-z][a-zA-Z0-9_]*|->|\[\]|<>|.|)", re.DOTALL)
    NOUN = "formula"

    def start(self) -> Formula:
        return self.implies()[0]

    def binary(self, cls, left, right, at):
        height = 1 + max(left[1], right[1])
        self.check_depth(height, at)
        return cls(left[0], right[0]), height

    def implies(self):
        left = self.chain(0)
        if self.eat("->"):
            return self.binary(Implies, left, self.nested(self.implies, self.end), self.pos)
        return left

    def chain(self, level):
        """A left-associative chain of ``_CHAINS[level]`` over the next
        level; a too high ``&`` is reported where its right operand ends,
        a ``|`` at the token after it."""
        if level == len(_CHAINS):
            return self.unary()
        token, cls = _CHAINS[level]
        left = self.chain(level + 1)
        while self.eat(token):
            right = self.chain(level + 1)
            left = self.binary(cls, left, right, self.end if cls is And else self.pos)
        return left

    def unary(self):
        cls = _PREFIX.get(self.token)
        if cls is None:
            return self.atom()
        self.advance()
        if self.token == "(":
            # the parenthesis opens the operand's level, so that
            # "~(p & q)" nests one level, as the formula does
            phi, height = self.atom()
        else:
            phi, height = self.nested(self.unary, self.pos)
        return cls(phi), height + 1

    def atom(self):
        if self.eat("("):
            phi = self.nested(self.implies, self.end)
            if not self.eat(")"):
                self.error("expected ')'")
            return phi
        token = self.token
        if token in _CONSTANTS:
            phi = _CONSTANTS[token]
        elif "a" <= token[:1] <= "z":  # TOKEN reads the whole name
            phi = Var(token)
        else:
            self.error(f"unexpected character {token[0]!r}" if token else "unexpected end of input")
        self.advance()
        return phi, 0


def parse(text: str) -> Formula:
    return _Parser(text).parse()


# per binary connective: its symbol, its precedence, and the precedence its
# left and right operands are printed at; a part printed at a precedence
# above its own is parenthesized
_INFIX = {And: (" & ", 3, 3, 4), Or: (" | ", 2, 2, 3), Implies: (" -> ", 1, 2, 1)}
_PREFIX_TEXT = {cls: token for token, cls in _PREFIX.items()}


def render(phi: Formula) -> str:
    """Formula text that ``parse`` reads back as ``phi`` (when it nests at
    most ``MAX_NESTING`` levels).  An explicit stack of pending parts and
    text replaces recursion, and the text is joined once at the end."""
    out, stack = [], [(phi, 0)]
    while stack:
        part = stack.pop()
        if type(part) is str:
            out.append(part)
            continue
        node, context = part
        kind = type(node)
        if kind is Var:
            out.append(node.name)
        elif kind is Top or kind is Bot:
            out.append("T" if kind is Top else "F")
        elif kind in _PREFIX_TEXT:
            out.append(_PREFIX_TEXT[kind])
            stack.append((node.operand, 4))
        elif kind in _INFIX:
            symbol, prec, left, right = _INFIX[kind]
            wrap = context > prec
            stack += (")" if wrap else "", (node.right, right), symbol, (node.left, left))
            if wrap:
                out.append("(")
        else:
            raise TypeError(f"not a formula: {node!r}")
    return "".join(out)


# ---------------------------------------------------------------------------
# named axioms

P = Var("p")


def mckinsey() -> Formula:
    """[]<>p -> <>[]p"""
    return Implies(Box(Diamond(P)), Diamond(Box(P)))


def geach() -> Formula:
    """<>[]p -> []<>p"""
    return Implies(Diamond(Box(P)), Box(Diamond(P)))


def grzegorczyk() -> Formula:
    """[]([](p -> []p) -> p) -> p"""
    return Implies(Box(Implies(Box(Implies(P, Box(P))), P)), P)


def bounded_depth(n: int) -> Formula:
    """The depth-bounding axiom: valid on a finite frame iff its depth <= n."""
    if n < 1:
        raise PreconditionError("bounded_depth requires n >= 1")
    phi = Implies(Diamond(Box(Var("p1"))), Var("p1"))
    for i in range(2, n + 1):
        p = Var(f"p{i}")
        phi = Implies(Diamond(And(Box(p), Not(phi))), p)
    return phi


def axiom(name: str, n: int | None = None) -> Formula:
    """Named axiom lookup: ma, ga, grz, s4_T, s4_4, bd (with parameter n)."""
    if name == "ma":
        return mckinsey()
    if name == "ga":
        return geach()
    if name == "grz":
        return grzegorczyk()
    if name == "s4_T":
        return Implies(Box(P), P)
    if name == "s4_4":
        return Implies(Box(P), Box(Box(P)))
    if name == "bd":
        if n is None:
            raise PreconditionError("bd needs a depth parameter")
        return bounded_depth(n)
    raise PreconditionError(f"unknown axiom {name!r}")


# ---------------------------------------------------------------------------
# Fine-Jankov formulas

def fine_jankov(frame: Frame) -> Formula:
    """The frame formula of a finite rooted frame.

    Validity contract on finite frames: a frame validates the result iff the
    input is not an onto p-morphic image of any point-generated subframe.
    Built with one variable per world; all boxes are interpreted reflexively.
    """
    flags = classify_frame(frame)
    if not flags.rooted:
        raise PreconditionError("fine_jankov needs a rooted frame")
    root = flags.roots[0]
    p = [Var(f"p{w}") for w in frame.worlds()]
    clauses = [disj(p)]
    for u in frame.worlds():
        for w in frame.worlds():
            if u == w:
                continue
            clauses.append(Implies(p[u], Not(p[w])))
    for u in frame.worlds():
        for w in frame.worlds():
            if frame.le(u, w):
                clauses.append(Implies(p[u], Diamond(p[w])))
            else:
                clauses.append(Implies(p[u], Not(Diamond(p[w]))))
    described = And(p[root], Box(conj(clauses)))
    return Implies(described, Not(p[root]))


def jankov_frame(phi: Formula) -> Frame | None:
    """The rooted frame whose Fine-Jankov formula is ``phi``, or None.

    The relation is read from the ``p_u -> <>p_w`` clauses, and the frame is
    returned only when rebuilding ``fine_jankov`` from it gives ``phi``
    exactly.  Everything before the rebuild walks the formula without
    recursion, and any formula not of the shape ``(p_r & [](...)) -> ~p_r``
    is rejected after a few attribute reads."""
    if not (isinstance(phi, Implies) and isinstance(phi.left, And)):
        return None
    root_var, body = phi.left.left, phi.left.right
    if not (isinstance(root_var, Var) and isinstance(body, Box) and phi.right == Not(root_var)):
        return None
    clauses, stack = [], [body.operand]
    while stack:
        node = stack.pop()
        if isinstance(node, And):
            stack += (node.right, node.left)
        else:
            clauses.append(node)
    # one disjunction, n(n-1) exclusions and n^2 (un)reachability clauses
    n = 1
    while 2 * n * n - n + 1 < len(clauses):
        n += 1
    if 2 * n * n - n + 1 != len(clauses):
        return None
    up = [0] * n
    for i, clause in enumerate(clauses[len(clauses) - n * n:]):
        u, w = divmod(i, n)
        if not (isinstance(clause, Implies) and clause.left == Var(f"p{u}")):
            return None
        if clause.right == Diamond(Var(f"p{w}")):
            up[u] |= 1 << w
    try:
        frame = Frame(n, tuple(up))
    except FrameFormatError:
        return None
    if not classify_frame(frame).rooted:
        return None
    return frame if fine_jankov(frame) == phi else None
