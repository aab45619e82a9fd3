"""The token-cursor parsers against the character-level parsers they
replaced (``reference_parse`` and ``reference_parse_ordinal`` in conftest):
each text gives an equal value, or the same error message and position.
The one deliberate difference is that ordinal naturals are ASCII digits
only, where the reference took any character ``str.isdigit`` accepts."""

import random

from conftest import reference_parse, reference_parse_ordinal
from roachkit import formulas as fm
from roachkit import ordinals as O
from roachkit.errors import FormulaSyntaxError

CAP = fm.MAX_NESTING
WHITESPACE = [" ", "\t", "\n", "\u00a0", "\u2003", "\x1c"]
STRAY = ["-", "<", "[", "é", "P"]
FORMULA_TOKENS = ["p", "q", "zz1", "a_B9", "T", "F", "~", "[]", "<>", "&", "|", "->", "(", ")",
                  ">", "]", "1", "_"] + STRAY + WHITESPACE
ORDINAL_TOKENS = ["w", "^", "(", ")", "*", "+", "0", "1", "2", "9", "10", "x", "ω", "²",
                  "٣"] + STRAY + WHITESPACE
# a few characters each grammar gives a meaning, and a few it does not
SWAPS = "pqTF~[]<>&|-()w^*+019 \t\né²٣"

# the texts the parser tests in test_formulas and test_ordinals read
FORMULA_TEXTS = [
    "[]<>p -> <>[]p", "p", "([](p -> []p) -> p)", "T & F | p", "p -> q -> r", "~[]p", "p & ", "(p",
    "p q", "<>p", "~" * CAP + "p", "(" * CAP + "p" + ")" * CAP, " & ".join(["p"] * (CAP + 1)),
    " -> ".join(["p"] * (CAP + 1)), "~(" * CAP + "p" + ")" * CAP,
    "(~" * (CAP - 1) + "p" + ")" * (CAP - 1),
    "~" * (CAP + 1) + "p", "(" * (CAP + 1) + "p" + ")" * (CAP + 1), " & ".join(["p"] * (CAP + 2)),
    " | ".join(["p"] * (CAP + 2)), " -> ".join(["p"] * (CAP + 2)), "[]<>" * (CAP // 2) + "~p",
    "~(" * (CAP + 1) + "p" + ")" * (CAP + 1), "(~" * CAP + "p" + ")" * CAP, "~" * 3000 + "p",
    "(" * 3000 + "p" + ")" * 3000,
]
ORDINAL_TEXTS = [
    "w", "w^2", "w^w", "w^3*5 + w", "w^2 + 1", "w^2*2", "w^2 + w*9 + 100", "1", "w^2*3 + w*2",
    "w^2 + 3", "0", "w*3 + 2", "w^w + w^2*2", "w^(w*2) + w^5 + 1", "w*2", "w^2*3 + w + 4",
    "w^(w^w)", "w^(w^2 + w)*9 + w^7", "", "w^", "w +", "x", "w^()", "w*0", "1 + + 1",
    "w^(" * CAP + "1" + ")" * CAP, "w^(" * (CAP + 1) + "1" + ")" * (CAP + 1),
    "w^(" * 3000 + "1" + ")" * 3000, "9" * O.MAX_NAT_DIGITS, "1" * (O.MAX_NAT_DIGITS + 1),
    "w^" + "1" * 5000, "w*" + "9" * 4300, "5", "w + 1", "17", "w^w*2 + 1", "w^3 + w^2",
]


def outcome(parse, text):
    try:
        return ("value", parse(text))
    except FormulaSyntaxError as exc:
        return ("error", str(exc), exc.position)
    except ValueError as exc:  # the reference's int() on a non-decimal digit
        return ("ValueError", str(exc))


def random_text(rng, tokens, longest):
    return "".join(rng.choice(tokens) for _ in range(rng.randint(0, longest)))


def one_changed(rng, text):
    i = rng.randrange(len(text) + 1)
    return text[:i] + rng.choice(SWAPS) + text[i + rng.randint(0, 1):]


def random_formula(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([fm.TOP, fm.BOT, fm.Var("p"), fm.Var("q"), fm.Var("r1")])
    kind = rng.randrange(6)
    if kind < 3:
        return (fm.Not, fm.Box, fm.Diamond)[kind](random_formula(rng, depth - 1))
    return (fm.And, fm.Or, fm.Implies)[kind - 3](random_formula(rng, depth - 1),
                                                 random_formula(rng, depth - 1))


def random_ordinal(rng, depth):
    exps = set()
    for _ in range(rng.randint(0, 3)):
        exps.add(random_ordinal(rng, depth - 1) if depth and rng.random() < 0.3
                 else O.from_int(rng.randint(0, 4)))
    return O.Ordinal(tuple((e, rng.randint(1, 12)) for e in sorted(exps, reverse=True)))


def assert_formula_parsers_agree(text):
    assert outcome(fm.parse, text) == outcome(reference_parse, text), text


def assert_ordinal_parsers_agree(text):
    """Equal outcomes, except on text with a non-ASCII digit: there the new
    parser fails no later than that digit, as the reference does whenever
    it fails before it."""
    new, old = outcome(O.parse_ordinal, text), outcome(reference_parse_ordinal, text)
    digit = next((i for i, ch in enumerate(text) if ch.isdigit() and not ch.isascii()), None)
    if digit is None:
        assert new == old, text
        return
    assert new[0] == "error" and new[2] <= digit, (text, new)
    if old[0] == "error" and old[2] < digit:
        assert new == old, text


def test_formula_parser_matches_the_reference_on_the_parser_tests_texts():
    rendered = [fm.axiom(name) for name in ("ma", "ga", "grz", "s4_T", "s4_4")]
    rendered += [fm.axiom("bd", n) for n in range(1, 27)]
    for text in FORMULA_TEXTS + [fm.render(phi) for phi in rendered]:
        assert_formula_parsers_agree(text)


def test_ordinal_parser_matches_the_reference_on_the_parser_tests_texts():
    for text in ORDINAL_TEXTS:
        assert_ordinal_parsers_agree(text)


def test_parsers_match_the_reference_on_random_token_strings():
    rng = random.Random(2718)
    for _ in range(3000):
        assert_formula_parsers_agree(random_text(rng, FORMULA_TOKENS, 16))
        assert_ordinal_parsers_agree(random_text(rng, ORDINAL_TOKENS, 14))


def test_parsers_match_the_reference_on_rendered_text_with_one_character_changed():
    rng = random.Random(3141)
    for _ in range(1500):
        phi = random_formula(rng, rng.randrange(6))
        assert_formula_parsers_agree(one_changed(rng, fm.render(phi)))
        assert_ordinal_parsers_agree(one_changed(rng, O.render_ordinal(random_ordinal(rng, 2))))


def test_parsers_match_the_reference_on_deep_and_spaced_text():
    rng = random.Random(1618)
    for _ in range(200):
        n = CAP + rng.randint(-2, 2)
        ws = [rng.choice(["", " ", "\t "]) for _ in range(4)]
        for op in ("&", "|", "->"):
            chain = f"{ws[0]}{op}{ws[1]}".join(["p"] * n)
            assert_formula_parsers_agree(chain + ws[2])
            # a chain as the left operand of a looser connective
            for outer in ("|", "->"):
                assert_formula_parsers_agree(f"{chain} {outer}{ws[3]}q{ws[2]}")
        for prefix in ("~", "[]", "<>", "~(", "("):
            text = (prefix + ws[0]) * n + "p" + ws[1] + (")" + ws[2]) * n * prefix.count("(")
            assert_formula_parsers_agree(text)
        assert_ordinal_parsers_agree(f"w^({ws[0]}" * n + "1" + f"{ws[1]})" * n + ws[2])


def test_errors_after_a_consumed_token_point_at_its_end():
    # where that token ends, not at the next token
    too_high = " & ".join(["p"] * (CAP + 2)) + "   "
    assert outcome(fm.parse, too_high)[2] == 405
    assert_formula_parsers_agree(too_high)
    assert outcome(O.parse_ordinal, "w*0 ")[2] == 3
    assert_ordinal_parsers_agree("w*0 ")
