"""Ordinal arithmetic in Cantor normal form below epsilon-zero, and the
classification of modal logics attached to ordinals and their maximal
compactifications.

Text syntax: ``w^(<ordinal>)*<nat>`` terms joined by ``+``, with sugar
``w^k``, ``w``, and bare naturals, e.g. ``w^w + w^2*3 + 1``.  Parenthesized
exponents may nest at most ``formulas.MAX_NESTING`` levels deep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering

from .errors import FormulaSyntaxError, PreconditionError
from .formulas import MAX_NESTING


@total_ordering
@dataclass(frozen=True)
class Ordinal:
    """Cantor normal form: a sum of ``w^exponent * coefficient`` terms with
    strictly decreasing exponents; the empty sum is zero."""

    terms: tuple[tuple["Ordinal", int], ...] = ()

    def __post_init__(self):
        for exp, coeff in self.terms:
            if not isinstance(exp, Ordinal) or not isinstance(coeff, int):
                raise TypeError("terms must be (Ordinal, int) pairs")
            if coeff < 1:
                raise ValueError("coefficients must be positive")
        for (e1, _), (e2, _) in zip(self.terms, self.terms[1:]):
            if not e1 > e2:
                raise ValueError("exponents must strictly decrease")

    def is_zero(self) -> bool:
        return not self.terms

    def is_finite(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero())

    def as_int(self) -> int:
        if not self.is_finite():
            raise PreconditionError(f"{self} is not a natural number")
        return self.terms[0][1] if self.terms else 0

    def leading_exponent(self) -> "Ordinal":
        if self.is_zero():
            raise PreconditionError("zero has no leading exponent")
        return self.terms[0][0]

    def least_exponent(self) -> "Ordinal":
        if self.is_zero():
            raise PreconditionError("zero has no least exponent")
        return self.terms[-1][0]

    def __lt__(self, other: "Ordinal") -> bool:
        for (e1, c1), (e2, c2) in zip(self.terms, other.terms):
            if e1 != e2:
                return e1 < e2
            if c1 != c2:
                return c1 < c2
        return len(self.terms) < len(other.terms)

    def __add__(self, other) -> "Ordinal":
        if isinstance(other, int):
            other = from_int(other)
        if other.is_zero():
            return self
        cutoff = other.leading_exponent()
        kept = [t for t in self.terms if t[0] > cutoff]
        merged = list(other.terms)
        for exp, coeff in self.terms:
            if exp == cutoff:
                merged[0] = (cutoff, coeff + merged[0][1])
                break
        return Ordinal(tuple(kept) + tuple(merged))

    def __str__(self) -> str:
        return render_ordinal(self)


ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))


def from_int(n: int) -> Ordinal:
    if n < 0:
        raise ValueError("ordinals are non-negative")
    return Ordinal(((ZERO, n),)) if n else ZERO


def omega_power(exp: Ordinal, coeff: int = 1) -> Ordinal:
    return Ordinal(((exp, coeff),))


OMEGA = omega_power(ONE)


def cnf_compare(a: Ordinal, b: Ordinal) -> int:
    """Total order on normal forms: -1, 0, or 1."""
    if a < b:
        return -1
    return 0 if a == b else 1


def tear_off(gamma: Ordinal) -> tuple[Ordinal, Ordinal]:
    """Split a non-compact ordinal as (gamma' + 1) + w^alpha1 by removing one
    copy of the least occurring power; errors on zero or compact input."""
    if gamma.is_zero():
        raise PreconditionError("cannot tear off from zero")
    alpha1 = gamma.least_exponent()
    if alpha1.is_zero():
        raise PreconditionError("compact ordinals (finite least exponent 0) are not torn off")
    exp, coeff = gamma.terms[-1]
    if coeff == 1:
        gamma_prime = Ordinal(gamma.terms[:-1])
    else:
        gamma_prime = Ordinal(gamma.terms[:-1] + ((exp, coeff - 1),))
    return gamma_prime, alpha1


# ---------------------------------------------------------------------------
# parsing / printing


class _OrdinalParser:
    """``depth`` counts the parenthesized exponents open around the current
    position; the parser recurses a few frames per level."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message):
        raise FormulaSyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def eat(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected a natural number")
        return int(self.text[start : self.pos])

    def ordinal(self) -> Ordinal:
        total = self.term()
        while self.eat("+"):
            total = total + self.term()
        return total

    def term(self) -> Ordinal:
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos].isdigit():
            return from_int(self.nat())
        if not self.eat("w"):
            self.error("expected 'w' or a natural number")
        exp = ONE
        if self.eat("^"):
            self.skip_ws()
            if self.eat("("):
                self.depth += 1
                if self.depth > MAX_NESTING:
                    self.error(f"ordinal nests deeper than {MAX_NESTING} levels")
                exp = self.ordinal()
                self.depth -= 1
                if not self.eat(")"):
                    self.error("expected ')'")
            elif self.pos < len(self.text) and self.text[self.pos].isdigit():
                exp = from_int(self.nat())
            elif self.eat("w"):
                exp = OMEGA
            else:
                self.error("expected an exponent")
        coeff = 1
        if self.eat("*"):
            coeff = self.nat()
            if coeff < 1:
                self.error("coefficients must be positive")
        return omega_power(exp, coeff)

    def parse(self) -> Ordinal:
        value = self.ordinal()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("unexpected trailing input")
        return value


def parse_ordinal(text: str) -> Ordinal:
    return _OrdinalParser(text).parse()


def render_ordinal(gamma: Ordinal) -> str:
    if gamma.is_zero():
        return "0"
    parts = []
    for exp, coeff in gamma.terms:
        if exp.is_zero():
            parts.append(str(coeff))
            continue
        if exp == ONE:
            base = "w"
        elif exp.is_finite():
            base = f"w^{exp.as_int()}"
        elif exp == OMEGA:
            base = "w^w"
        else:
            base = f"w^({render_ordinal(exp)})"
        parts.append(base if coeff == 1 else f"{base}*{coeff}")
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# logic classification


@dataclass(frozen=True)
class LogicId:
    """A point in the lattice of logics this library talks about.

    kind is one of ``S41``, ``S412``, ``S4Grz``, ``S4GrzN``, ``LN``,
    ``LInf``, ``Meet``, ``ConjecturedLInf``; ``n`` parameterizes S4GrzN/LN,
    and Meet carries two operands.
    """

    kind: str
    n: int | None = None
    left: "LogicId | None" = None
    right: "LogicId | None" = None
    note: str | None = None

    def short(self) -> str:
        if self.kind == "S41":
            return "S4.1"
        if self.kind == "S412":
            return "S4.1.2"
        if self.kind == "S4Grz":
            return "S4.Grz"
        if self.kind == "S4GrzN":
            return f"S4.Grz_{self.n}"
        if self.kind == "LN":
            return f"L_{self.n}"
        if self.kind == "LInf":
            return "L_inf"
        if self.kind == "Meet":
            return f"{self.left.short()} ^ {self.right.short()}"
        if self.kind == "ConjecturedLInf":
            return "L_inf (conjectured)"
        raise ValueError(f"unknown kind {self.kind!r}")

    def describe(self) -> str:
        if self.kind == "LN" and self.n == 1:
            return "L_1 = S4.1.2"
        if self.kind == "ConjecturedLInf":
            return "conjectured: L_inf (the logic of all roaches); not a theorem"
        return self.short()

    def __str__(self) -> str:
        return self.short()


S41 = LogicId("S41")
S412 = LogicId("S412")
S4GRZ = LogicId("S4Grz")
LINF = LogicId("LInf")


def s4grz_n(n: int) -> LogicId:
    if n < 1:
        raise PreconditionError("S4.Grz_n needs n >= 1")
    return LogicId("S4GrzN", n=n)


def l_n(m: int) -> LogicId:
    if m < 1:
        raise PreconditionError("L_m needs m >= 1")
    return LogicId("LN", n=m)


def meet(left: LogicId, right: LogicId) -> LogicId:
    return LogicId("Meet", left=left, right=right)


CONJECTURED_LINF = LogicId(
    "ConjecturedLInf",
    note="for least exponent at least w the logic is conjectured to be L_inf; no theorem is claimed",
)


def logic_of_ordinal_space(gamma: Ordinal) -> LogicId:
    """The logic of a nonzero ordinal viewed as a space: S4.Grz_n when it
    lies in (w^(n-1), w^n], S4.Grz from w^w on.  The single point 1 is read
    as S4.Grz_1."""
    if gamma.is_zero():
        raise PreconditionError("the empty ordinal has no logic")
    w_omega = omega_power(OMEGA)
    if not gamma < w_omega:
        return S4GRZ
    n = 1
    while omega_power(from_int(n)) < gamma:
        n += 1
    return s4grz_n(n)


def classify_beta_logic(gamma: Ordinal) -> LogicId:
    """The logic of the maximal compactification of a nonzero ordinal,
    decided from the Cantor normal form.

    Compact ordinals (least exponent 0) classify like the ordinal itself.
    A finite positive least exponent m yields L_m when the torn-off rest is
    zero, otherwise the meet of the rest's compactified logic with L_m.  An
    infinite least exponent is the open case and is reported as conjectured,
    never as a theorem.
    """
    if gamma.is_zero():
        raise PreconditionError("the empty ordinal has no logic")
    alpha1 = gamma.least_exponent()
    if alpha1.is_zero():
        return logic_of_ordinal_space(gamma)
    if not alpha1.is_finite():
        return CONJECTURED_LINF
    m = alpha1.as_int()
    gamma_prime, _ = tear_off(gamma)
    if gamma_prime.is_zero():
        return l_n(m)
    return meet(logic_of_ordinal_space(gamma_prime + ONE), l_n(m))


def logic_leq(a: LogicId, b: LogicId) -> bool | None:
    """Declared containment (a included in b) for the fragment of the
    lattice the classifiers can emit; None when the order is not recorded.

    The recorded chain: S4.1 < L_inf < ... < L_2 < L_1 = S4.1.2.
    """
    def ln_rank(x: LogicId):
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
