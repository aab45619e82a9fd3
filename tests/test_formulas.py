import random
from copy import copy, deepcopy

import pytest

from conftest import eliminate_diamonds, formula_with_repeats, modal_depth, relabel
from roachkit import formulas as fm
from roachkit import frames as F
from roachkit import semantics as S
from roachkit.errors import FormulaSyntaxError, PreconditionError
from roachkit.frames import normalize_frame
from roachkit.roach import builtin


def test_parse_mckinsey():
    assert fm.parse("[]<>p -> <>[]p") == fm.axiom("ma")


def test_parse_variable():
    assert fm.parse("p") == fm.Var("p")


def test_parse_grz_subformula():
    sub = fm.parse("([](p -> []p) -> p)")
    assert fm.axiom("grz") == fm.Implies(fm.Box(sub), fm.Var("p"))


def test_parse_constants_and_precedence():
    assert fm.parse("T & F | p") == fm.Or(fm.And(fm.TOP, fm.BOT), fm.Var("p"))
    assert fm.parse("p -> q -> r") == fm.Implies(fm.Var("p"), fm.Implies(fm.Var("q"), fm.Var("r")))
    assert fm.parse("~[]p") == fm.Not(fm.Box(fm.Var("p")))


def test_parse_errors_carry_position():
    with pytest.raises(FormulaSyntaxError) as info:
        fm.parse("p & ")
    assert info.value.position == 4
    with pytest.raises(FormulaSyntaxError):
        fm.parse("(p")
    with pytest.raises(FormulaSyntaxError):
        fm.parse("p q")


def _random_formula(rng, depth, names):
    if depth == 0 or rng.random() < 0.2:
        choice = rng.randrange(4)
        if choice == 0:
            return fm.TOP
        if choice == 1:
            return fm.BOT
        return fm.Var(rng.choice(names))
    kind = rng.randrange(6)
    if kind == 0:
        return fm.Not(_random_formula(rng, depth - 1, names))
    if kind == 1:
        return fm.Box(_random_formula(rng, depth - 1, names))
    if kind == 2:
        return fm.Diamond(_random_formula(rng, depth - 1, names))
    left = _random_formula(rng, depth - 1, names)
    right = _random_formula(rng, depth - 1, names)
    return [fm.And, fm.Or, fm.Implies][kind - 3](left, right)


def test_round_trip_random_asts():
    rng = random.Random(42)
    names = ["p", "q", "r", "zz1", "a_b"]
    for _ in range(1000):
        phi = _random_formula(rng, rng.randrange(7), names)
        assert fm.parse(fm.render(phi)) == phi


def test_render_of_parse_is_stable():
    rng = random.Random(43)
    for _ in range(200):
        phi = _random_formula(rng, 5, ["p", "q"])
        text = fm.render(phi)
        assert fm.render(fm.parse(text)) == text


def test_render_parse_round_trips_builtin_formulas():
    named = [fm.axiom(name) for name in ("ma", "ga", "grz", "s4_T", "s4_4")]
    named += [fm.axiom("bd", n) for n in range(1, 26)]  # bd(n) is 4n - 1 levels deep
    named += [fm.fine_jankov(builtin(name)) for name in ("F1", "F2", "F3")]
    for phi in named:
        assert fm.parse(fm.render(phi)) == phi


def test_parse_caps_nesting():
    cap = fm.MAX_NESTING
    p = fm.Var("p")
    negated, conjoined, implied = p, p, p
    for _ in range(cap):
        negated, conjoined, implied = fm.Not(negated), fm.And(conjoined, p), fm.Implies(p, implied)
    assert fm.parse("~" * cap + "p") == negated
    assert fm.parse("(" * cap + "p" + ")" * cap) == p
    assert fm.parse(" & ".join(["p"] * (cap + 1))) == conjoined
    assert fm.parse(" -> ".join(["p"] * (cap + 1))) == implied
    # a unary operator and the parenthesis after it are one level
    assert fm.parse("~(" * cap + "p" + ")" * cap) == negated
    assert fm.parse("(~" * (cap - 1) + "p" + ")" * (cap - 1)) == negated.operand
    guarded = p
    for _ in range(cap // 2):
        guarded = fm.Box(fm.And(p, guarded))
    assert fm.parse(fm.render(guarded)) == guarded
    deep = ["~" * (cap + 1) + "p", "(" * (cap + 1) + "p" + ")" * (cap + 1),
            " & ".join(["p"] * (cap + 2)), " | ".join(["p"] * (cap + 2)),
            " -> ".join(["p"] * (cap + 2)), "[]<>" * (cap // 2) + "~p",
            "~(" * (cap + 1) + "p" + ")" * (cap + 1), "(~" * cap + "p" + ")" * cap,
            "~" * 3000 + "p", "(" * 3000 + "p" + ")" * 3000]
    for text in deep:
        with pytest.raises(FormulaSyntaxError, match="nests deeper"):
            fm.parse(text)


def test_bd_axioms():
    assert fm.render(fm.axiom("bd", 1)) == "<>[]p1 -> p1"
    assert fm.render(fm.axiom("bd", 2)) == "<>([]p2 & ~(<>[]p1 -> p1)) -> p2"
    with pytest.raises(PreconditionError):
        fm.axiom("bd", 0)


def test_bd_structure():
    depths = []
    for n in range(1, 6):
        bd = fm.axiom("bd", n)
        assert fm.variables(bd) == tuple(sorted(f"p{i}" for i in range(1, n + 1)))
        depths.append(modal_depth(bd))
    assert depths == [n + 1 for n in range(1, 6)]
    assert depths == sorted(depths)


def test_geach_axiom():
    assert fm.render(fm.axiom("ga")) == "<>[]p -> []<>p"


def test_unknown_axiom():
    with pytest.raises(PreconditionError):
        fm.axiom("k5")


def test_diamond_elimination_is_explicit():
    phi = fm.Diamond(fm.Var("p"))
    assert fm.render(phi) == "<>p"
    assert eliminate_diamonds(phi) == fm.Not(fm.Box(fm.Not(fm.Var("p"))))
    # parsing never rewrites diamonds
    assert fm.parse("<>p") == phi


def test_diamond_elimination_preserves_meaning():
    rng = random.Random(44)
    frames = [builtin("F3"), builtin("G"), builtin("chain", 3)]
    for _ in range(100):
        phi = _random_formula(rng, 4, ["p", "q"])
        frame = rng.choice(frames)
        valuation = {name: set(rng.sample(range(frame.size), rng.randint(0, frame.size)))
                     for name in ("p", "q")}
        model = S.Model(frame, valuation)
        assert S.extension(model, phi) == S.extension(model, eliminate_diamonds(phi))


def test_fine_jankov_fails_on_its_own_frame():
    for name in ("F1", "F2", "F3", "two_fork"):
        f = builtin(name)
        assert not S.frame_validates(f, fm.fine_jankov(f))


def test_fine_jankov_chain_valid_on_point():
    chain2 = builtin("chain", 2)
    assert S.frame_validates(builtin("point"), fm.fine_jankov(chain2))


def test_fine_jankov_f1_fails_on_t3():
    # a generated subframe of T3 maps onto F1, so T3 refutes F1's formula
    assert not S.frame_validates(builtin("T", 3), fm.fine_jankov(builtin("F1")))


def test_fine_jankov_needs_rooted():
    antichain = normalize_frame([], 2)
    with pytest.raises(PreconditionError):
        fm.fine_jankov(antichain)


def test_fine_jankov_variable_count():
    f = builtin("F3")
    assert fm.variables(fm.fine_jankov(f)) == tuple(f"p{w}" for w in range(5))


def _chi_parts(phi):
    """The root variable and the clause list of a Fine-Jankov formula."""
    clauses, stack = [], [phi.left.right.operand]
    while stack:
        node = stack.pop()
        if isinstance(node, fm.And):
            stack += (node.right, node.left)
        else:
            clauses.append(node)
    return phi.left.left, clauses


def _chi(root, clauses):
    return fm.Implies(fm.And(root, fm.Box(fm.conj(clauses))), fm.Not(root))


def _jankov_sample():
    rooted = [f for n in range(1, 6) for f in F.enumerate_frames(n, "rooted")]
    named = [builtin(name) for name in ("F1", "F2", "F3", "G")]
    # the same frames with the root last, not first
    reversed_ = [relabel(f, range(f.size - 1, -1, -1)) for f in named]
    return rooted + named + reversed_


def test_jankov_frame_round_trips():
    sample = _jankov_sample()
    assert len(sample) == 69 + 4 + 4
    for f in sample:
        chi = fm.fine_jankov(f)
        decoded = fm.jankov_frame(chi)
        assert decoded is not None and (decoded.size, decoded.up) == (f.size, f.up)
        assert fm.fine_jankov(decoded) == chi


def test_jankov_frame_rejects_random_formulas():
    rng = random.Random(45)
    names = [f"p{i}" for i in range(4)]
    for i in range(1000):
        phi = _random_formula(rng, rng.randrange(1, 8), names)
        if i % 2:  # the recognized outer shape around a random body
            root = fm.Var(rng.choice(names))
            phi = fm.Implies(fm.And(root, fm.Box(phi)), fm.Not(root))
        assert fm.jankov_frame(phi) is None, phi


def test_jankov_frame_rejects_near_misses():
    other_frames = 0
    for f in _jankov_sample():
        chi = fm.fine_jankov(f)
        root, clauses = _chi_parts(chi)
        assert fm.jankov_frame(fm.Not(chi)) is None
        for i in range(len(clauses)):
            assert fm.jankov_frame(_chi(root, clauses[:i] + clauses[i + 1:])) is None
        for i, clause in enumerate(clauses):
            if not (isinstance(clause, fm.Implies) and isinstance(clause.right, fm.Diamond)):
                continue
            wrapped = _chi(root, clauses[:i] + [fm.Not(clause)] + clauses[i + 1:])
            assert fm.jankov_frame(wrapped) is None
            flipped = fm.Implies(clause.left, fm.Not(clause.right))
            mutant = _chi(root, clauses[:i] + [flipped] + clauses[i + 1:])
            u, w = int(clause.left.name[1:]), int(clause.right.operand.name[1:])
            decoded = fm.jankov_frame(mutant)
            if u == w:  # no longer reflexive
                assert decoded is None
            elif decoded is not None:  # still a rooted preorder: F without u <= w
                assert decoded.up[u] == f.up[u] & ~(1 << w)
                assert fm.fine_jankov(decoded) == mutant
                other_frames += 1
        for w in range(f.size):
            other = fm.Var(f"p{w}")
            if other != root:
                assert fm.jankov_frame(_chi(other, clauses)) is None
                assert fm.jankov_frame(fm.Implies(chi.left, fm.Not(other))) is None
        renamed = {f"p{w}": fm.Var(f"q{w}") for w in range(f.size)}
        if f.size > 1:
            renamed.update(p0=fm.Var("p1"), p1=fm.Var("p0"))
        assert fm.jankov_frame(_rename(chi, renamed)) is None
    assert other_frames == 139


def _rename(phi, names):
    match phi:
        case fm.Var(name=name):
            return names.get(name, phi)
        case fm.Not(operand=op) | fm.Box(operand=op) | fm.Diamond(operand=op):
            return type(phi)(_rename(op, names))
        case fm.And(left=a, right=b) | fm.Or(left=a, right=b) | fm.Implies(left=a, right=b):
            return type(phi)(_rename(a, names), _rename(b, names))
    return phi


def test_jankov_frame_does_not_recurse_on_deep_formulas():
    deep = fm.P
    for _ in range(5000):
        deep = fm.Not(deep)
    assert fm.jankov_frame(deep) is None
    # a deep conjunction inside the recognized outer shape is walked, not recursed
    body = fm.Implies(fm.Var("p0"), fm.Diamond(fm.Var("p0")))
    for _ in range(5000):
        body = fm.And(body, fm.Var("p0"))
    p0 = fm.Var("p0")
    assert fm.jankov_frame(fm.Implies(fm.And(p0, fm.Box(body)), fm.Not(p0))) is None


@pytest.mark.parametrize("cls, text", [(fm.Not, "~"), (fm.Box, "[]"), (fm.Diamond, "<>")])
def test_walks_do_not_recurse_on_deep_unary_chains(cls, text):
    deep = fm.P
    for _ in range(5000):
        deep = cls(deep)
    modal = 0 if cls is fm.Not else 5000
    assert fm.render(deep) == text * 5000 + "p"
    assert modal_depth(deep) == modal
    plain = eliminate_diamonds(deep)
    assert fm.render(plain) == ("~[]~" if cls is fm.Diamond else text) * 5000 + "p"
    assert modal_depth(plain) == modal


def test_render_does_not_recurse_on_deep_binary_chains():
    left = right = fm.P
    for _ in range(5000):
        left, right = fm.And(left, fm.P), fm.Implies(fm.P, right)
    assert fm.render(left) == " & ".join(["p"] * 5001)
    assert fm.render(right) == " -> ".join(["p"] * 5001)
    assert fm.render(fm.Box(fm.Or(right, left))) == f"[](({fm.render(right)}) | {fm.render(left)})"


def test_postorder_walks_each_formula_object_once(monkeypatch):
    walked, walk = [], fm._walk
    monkeypatch.setattr(fm, "_walk", lambda phi: walked.append(phi) or walk(phi))
    phi = fm.parse("([]p -> <>(q & p)) | ~T")
    nodes = fm.postorder(phi)
    assert fm.postorder(phi) is nodes and fm.variables(phi) == ("p", "q")
    assert len(walked) == 1 and walked[0] is phi
    # a subformula is a formula object of its own, walked on its first use
    assert fm.postorder(phi.left) == nodes[:7] and len(walked) == 2


def test_shared_walk_is_an_immutable_tuple_listing_a_shared_subtree_once():
    p = fm.Var("p")
    shared = fm.Box(p)
    phi = fm.Implies(fm.And(shared, fm.Var("p")), fm.Or(shared, fm.Diamond(shared)))
    nodes = fm.postorder(phi)
    assert type(nodes) is tuple
    # the shared box and its operand once each, where they are first done;
    # the equal but distinct second Var("p") on its own
    assert [type(node).__name__ for node in nodes] == [
        "Var", "Box", "Var", "And", "Diamond", "Or", "Implies"]
    assert nodes[0] is p and nodes[1] is shared and nodes[2] is not p and nodes[2] == p
    with pytest.raises(TypeError):
        nodes[0] = fm.TOP
    with pytest.raises(AttributeError):
        phi._postorder = ()
    assert fm.postorder(phi) is nodes


def test_shared_walk_equals_a_fresh_walk_of_an_equal_copy():
    rng = random.Random(37)
    for _ in range(200):
        phi = formula_with_repeats(rng, ["p", "q"], rng.randint(1, 12))
        twin = deepcopy(phi)  # equal by value, with the same sharing
        nodes = fm.postorder(phi)
        fresh = fm._walk(twin)
        assert twin == phi and fresh == nodes
        assert not any(a is b for a, b in zip(fresh, nodes))
        assert len({id(node) for node in nodes}) == len(nodes)
        # a shallow copy carries the root's kept walk, whose last node is
        # the original root: it evaluates alike
        model = S.Model(builtin("F1"), {"p": {1, 2}, "q": {3}})
        assert S.extension(model, copy(phi)) == S.extension(model, phi)
