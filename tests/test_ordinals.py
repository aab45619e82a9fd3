import random

import pytest

from roachkit import formulas as fm
from roachkit import ordinals as O
from roachkit.errors import FormulaSyntaxError, PreconditionError

p = O.parse_ordinal


def test_compare_basics():
    assert O.cnf_compare(p("w"), p("w^2")) == -1
    assert O.cnf_compare(p("w^w"), p("w^3*5 + w")) == 1
    assert O.cnf_compare(p("w^2 + 1"), p("w^2 + 1")) == 0
    assert p("w^2*2") > p("w^2 + w*9 + 100")
    assert p("w^2") < p("w^2 + 1")


def test_add_absorption():
    assert p("1") + p("w") == p("w")
    assert p("w^2*3 + w*2") + p("w^2") == p("w^2*4")
    assert p("w^2 + 3") + O.ZERO == p("w^2 + 3")
    assert O.ZERO + p("w") == p("w")
    assert p("w^2") + 3 == p("w^2 + 3")
    assert p("w") + 0 == p("w")


def test_add_against_small_exponent_oracle():
    # independent model of ordinals below w^3 as coefficient triples,
    # addition defined by truncate-at-leading-term concatenation
    def to_triple(gamma):
        coeffs = [0, 0, 0]
        for exp, c in gamma.terms:
            coeffs[exp.as_int()] = c
        return tuple(coeffs)

    def from_triple(t):
        terms = tuple((O.from_int(i), c) for i, c in sorted(enumerate(t), reverse=True) if c)
        return O.Ordinal(terms)

    def oracle_add(a, b):
        lead = max((i for i, c in enumerate(b) if c), default=-1)
        if lead < 0:
            return a
        out = list(b)
        for i in range(lead + 1, 3):
            out[i] = a[i]
        out[lead] += a[lead]
        return tuple(out)

    rng = random.Random(99)
    for _ in range(500):
        a = tuple(rng.randint(0, 4) for _ in range(3))
        b = tuple(rng.randint(0, 4) for _ in range(3))
        assert from_triple(a) + from_triple(b) == from_triple(oracle_add(a, b))


def test_add_is_associative():
    rng = random.Random(100)
    samples = [p(t) for t in ("0", "1", "w", "w*3 + 2", "w^2", "w^w + w^2*2", "w^(w*2) + w^5 + 1")]
    for _ in range(300):
        a, b, c = (rng.choice(samples) for _ in range(3))
        assert (a + b) + c == a + (b + c)


def test_parse_render_round_trip():
    texts = ["0", "1", "w", "w*2", "w^2*3 + w + 4", "w^w", "w^(w^w)", "w^(w^2 + w)*9 + w^7"]
    for text in texts:
        gamma = p(text)
        assert p(str(gamma)) == gamma


def test_parse_errors():
    for bad in ["", "w^", "w +", "x", "w^()", "w*0", "1 + + 1"]:
        with pytest.raises(FormulaSyntaxError):
            p(bad)


def test_parse_caps_nesting():
    cap = fm.MAX_NESTING
    deepest = p("w^(" * cap + "1" + ")" * cap)
    assert p(O.render_ordinal(deepest)) == deepest
    for text in ("w^(" * (cap + 1) + "1" + ")" * (cap + 1), "w^(" * 3000 + "1" + ")" * 3000):
        with pytest.raises(FormulaSyntaxError, match="nests deeper"):
            p(text)


def test_ordinal_invariants_enforced():
    with pytest.raises(ValueError):
        O.Ordinal(((O.ZERO, 0),))
    with pytest.raises(ValueError):
        O.Ordinal(((O.ZERO, 1), (O.ONE, 1)))  # increasing exponents


def test_tear_off_cases():
    assert O.tear_off(p("w")) == (O.ZERO, O.ONE)
    assert O.tear_off(p("w^2*3 + w*2")) == (p("w^2*3 + w"), O.ONE)
    assert O.tear_off(p("w^w + w^2")) == (p("w^w"), p("2"))


def test_tear_off_rejects_compact_and_zero():
    with pytest.raises(PreconditionError):
        O.tear_off(O.ZERO)
    with pytest.raises(PreconditionError):
        O.tear_off(p("5"))
    with pytest.raises(PreconditionError):
        O.tear_off(p("w + 1"))


def test_tear_off_reconstruction_random():
    rng = random.Random(1234)
    count = 0
    while count < 500:
        n_terms = rng.randint(1, 3)
        exps = sorted({rng.randint(1, 30) for _ in range(n_terms)}, reverse=True)
        gamma = O.Ordinal(tuple((O.from_int(e), rng.randint(1, 9)) for e in exps))
        count += 1
        gp, a1 = O.tear_off(gamma)
        assert (gp + O.ONE) + O.omega_power(a1) == gamma


def test_logic_of_ordinal_space():
    assert O.logic_of_ordinal_space(p("5")) == O.s4grz_n(1)
    assert O.logic_of_ordinal_space(p("w^2")) == O.s4grz_n(2)
    assert O.logic_of_ordinal_space(p("w^w")) == O.S4GRZ
    assert O.logic_of_ordinal_space(p("w^w*2 + 1")) == O.S4GRZ
    assert O.logic_of_ordinal_space(p("w + 1")) == O.s4grz_n(2)
    with pytest.raises(PreconditionError):
        O.logic_of_ordinal_space(O.ZERO)


def test_classify_beta_logic_ln():
    for m in range(1, 5):
        assert O.classify_beta_logic(p(f"w^{m}")) == O.l_n(m)


def test_classify_beta_logic_meets():
    assert O.classify_beta_logic(p("w^w + w^2")) == O.meet(O.S4GRZ, O.l_n(2))
    assert O.classify_beta_logic(p("w^3 + w^2")) == O.meet(O.s4grz_n(4), O.l_n(2))
    # coefficient above one on the least power keeps the meet shape
    assert O.classify_beta_logic(p("w^2*2")) == O.meet(O.s4grz_n(3), O.l_n(2))


def test_classify_beta_logic_conjectured():
    got = O.classify_beta_logic(p("w^w"))
    assert got.kind == "ConjecturedLInf"
    assert "conjectured" in got.describe()
    assert got.note is not None


def test_classify_beta_logic_compact():
    assert O.classify_beta_logic(p("w^2 + 1")) == O.s4grz_n(3)
    assert O.classify_beta_logic(p("17")) == O.s4grz_n(1)


def test_classify_meet_respects_black_bullet_constraint():
    # in every emitted meet S4.Grz_n ^ L_m we have m < n
    rng = random.Random(77)
    for _ in range(300):
        exps = sorted({rng.randint(1, 8) for _ in range(rng.randint(1, 3))}, reverse=True)
        gamma = O.Ordinal(tuple((O.from_int(e), rng.randint(1, 3)) for e in exps))
        logic = O.classify_beta_logic(gamma)
        if logic.kind == "Meet" and logic.left.kind == "S4GrzN":
            assert logic.right.kind == "LN"
            assert 0 < logic.right.n < logic.left.n


def test_logic_chain_order_metadata():
    assert O.logic_leq(O.l_n(3), O.l_n(2))
    assert not O.logic_leq(O.l_n(2), O.l_n(3))
    assert O.logic_leq(O.l_n(1), O.S412) and O.logic_leq(O.S412, O.l_n(1))
    assert O.logic_leq(O.LINF, O.l_n(4))
    assert O.logic_leq(O.S41, O.LINF)
    assert O.logic_leq(O.S4GRZ, O.l_n(1)) is None


def test_describe_strings():
    assert O.l_n(1).describe() == "L_1 = S4.1.2"
    assert O.l_n(2).describe() == "L_2"
    assert O.s4grz_n(3).describe() == "S4.Grz_3"
    assert O.meet(O.S4GRZ, O.l_n(2)).describe() == "S4.Grz ^ L_2"
