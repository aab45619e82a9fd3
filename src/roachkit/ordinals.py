"""Ordinal arithmetic in Cantor normal form below epsilon-zero, and the
classification of modal logics attached to ordinals and their maximal
compactifications.

Text syntax: ``w^(<ordinal>)*<nat>`` terms joined by ``+``, with sugar
``w^k``, ``w``, and bare naturals, e.g. ``w^w + w^2*3 + 1``.  Parenthesized
exponents may nest at most ``formulas.MAX_NESTING`` levels deep, and a
natural is at most ``MAX_NAT_DIGITS`` ASCII digits.
"""

from __future__ import annotations

import re
from functools import total_ordering

from ._record import record
from .errors import PreconditionError
from .formulas import _TextParser

# Longest natural number that ordinal text may spell out.  Python refuses to
# convert integers of more than 4,300 digits to or from text, so the cap sits
# far enough below that for sums of parsed naturals to still render.
MAX_NAT_DIGITS = 1000


@total_ordering
@record
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


class _OrdinalParser(_TextParser):
    """``depth`` counts the parenthesized exponents open around the cursor.
    A natural is one token of ASCII digits."""

    TOKEN = re.compile(r"\s*([0-9]+|.|)", re.DOTALL)
    NOUN = "ordinal"

    def nat(self, expected="a natural number") -> int:
        digits = self.token
        if not (digits.isascii() and digits.isdigit()):
            self.error(f"expected {expected}")
        if len(digits) > MAX_NAT_DIGITS:
            self.error(f"natural number longer than {MAX_NAT_DIGITS} digits")
        self.advance()
        return int(digits)

    def ordinal(self) -> Ordinal:
        total = self.term()
        while self.eat("+"):
            total = total + self.term()
        return total

    start = ordinal

    def term(self) -> Ordinal:
        if not self.eat("w"):
            return from_int(self.nat("'w' or a natural number"))
        exp = ONE
        if self.eat("^"):
            if self.eat("("):
                exp = self.nested(self.ordinal, self.end)
                if not self.eat(")"):
                    self.error("expected ')'")
            elif self.eat("w"):
                exp = OMEGA
            else:
                exp = from_int(self.nat("an exponent"))
        coeff = 1
        if self.eat("*"):
            coeff = self.nat()
            if coeff < 1:
                self.error("coefficients must be positive", self.end)
        return omega_power(exp, coeff)


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


@record
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


CONJECTURED_LINF = LogicId("ConjecturedLInf")


def logic_of_ordinal_space(gamma: Ordinal) -> LogicId:
    """The logic of a nonzero ordinal viewed as a space: S4.Grz_n when it
    lies in (w^(n-1), w^n], S4.Grz from w^w on.  The single point 1 is read
    as S4.Grz_1.  The least such n is read off the leading exponent e:
    max(1, e) when gamma is w^e itself, else e + 1."""
    if gamma.is_zero():
        raise PreconditionError("the empty ordinal has no logic")
    w_omega = omega_power(OMEGA)
    if not gamma < w_omega:
        return S4GRZ
    e = gamma.leading_exponent().as_int()
    return s4grz_n(max(1, e) if gamma == omega_power(from_int(e)) else e + 1)


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

