"""Property tests: formula text, frame JSON and ordinal text round-trip."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from roachkit import formulas as fm
from roachkit import frames as F
from roachkit import ordinals as O
from roachkit.errors import FormulaSyntaxError

UNARY = (fm.Not, fm.Box, fm.Diamond)
BINARY = (fm.And, fm.Or, fm.Implies)

atoms = st.one_of(
    st.from_regex(r"[a-z][a-zA-Z0-9_]{0,3}", fullmatch=True).map(fm.Var),
    st.sampled_from([fm.TOP, fm.BOT]),
)


def _compose(children):
    return st.one_of(
        st.builds(lambda cls, a: cls(a), st.sampled_from(UNARY), children),
        st.builds(lambda cls, a, b: cls(a, b), st.sampled_from(BINARY), children, children),
    )


bushy_formulas = st.recursive(atoms, _compose, max_leaves=24)


SPINE_ATOMS = (fm.Var("p"), fm.Var("q1"), fm.TOP, fm.BOT)


def _fold(first, spine: bytes):
    """Wrap ``first`` in one connective per byte of ``spine``, inside out;
    a binary one takes a fixed atom as its left or right operand."""
    phi = first
    for byte in spine:
        cls = (UNARY + BINARY)[byte % 6]
        if cls in UNARY:
            phi = cls(phi)
        else:
            atom = SPINE_ATOMS[byte // 6 % 4]
            phi = cls(atom, phi) if byte & 128 else cls(phi, atom)
    return phi


# spines of MAX_NESTING +- 10 connectives, so heights straddle the cap
deep_formulas = st.builds(_fold, st.one_of(atoms, bushy_formulas),
                          st.binary(min_size=fm.MAX_NESTING - 10, max_size=fm.MAX_NESTING + 10))


def height(phi):
    match phi:
        case fm.Not(operand=a) | fm.Box(operand=a) | fm.Diamond(operand=a):
            return 1 + height(a)
        case fm.And(left=a, right=b) | fm.Or(left=a, right=b) | fm.Implies(left=a, right=b):
            return 1 + max(height(a), height(b))
    return 0


@settings(max_examples=150, deadline=None)
@given(st.one_of(bushy_formulas, deep_formulas))
def test_formula_text_round_trips_under_the_nesting_cap(phi):
    # text too deep for the parser fails as a syntax error, never otherwise
    try:
        parsed = fm.parse(fm.render(phi))
    except FormulaSyntaxError:
        assert height(phi) > fm.MAX_NESTING
    else:
        assert parsed == phi


@st.composite
def frames(draw):
    size = draw(st.integers(1, 8))
    world = st.integers(0, size - 1)
    pairs = draw(st.lists(st.tuples(world, world), max_size=2 * size))
    labels = draw(st.none() | st.lists(st.text(max_size=4), min_size=size, max_size=size))
    return F.normalize_frame(pairs, size, labels=labels)


@settings(max_examples=100, deadline=None)
@given(frames())
def test_frame_json_round_trips(frame):
    assert F.frame_from_json(json.dumps(F.frame_to_dict(frame))) == frame


def _normal_form(terms):
    """Cantor normal form of drawn terms: exponents descending, one term each."""
    kept = {}
    for exp, coeff in terms:
        kept.setdefault(exp, coeff)
    return O.Ordinal(tuple(sorted(kept.items(), key=lambda term: term[0], reverse=True)))


ordinals = st.recursive(
    st.just(O.ZERO),
    lambda exponents: st.lists(st.tuples(exponents, st.integers(1, 10 ** 6)), max_size=4).map(_normal_form),
    max_leaves=12,
)


@settings(max_examples=100, deadline=None)
@given(ordinals)
def test_ordinal_text_round_trips(gamma):
    assert O.parse_ordinal(O.render_ordinal(gamma)) == gamma
