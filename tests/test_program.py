import random

from conftest import (formula_with_repeats, perfbench_decide_queries, reference_compile_formula,
                      reference_dying_slots)
from roachkit import _scan_py
from roachkit import formulas as fm
from roachkit import frames as F
from roachkit import semantics as S
from roachkit._program import OP_NOT, compile_formula
from roachkit.roach import builtin


def _perfbench_formulas(monkeypatch):
    """Every formula the perfbench decide workload queries on seeds 1 and
    7919, and every formula its census workload checks for validity."""
    seen = [phi for phi, _ in perfbench_decide_queries(monkeypatch)]
    import workloads  # on the path perfbench_decide_queries added

    monkeypatch.setattr(S, "frame_validates", lambda frame, phi: seen.append(phi))
    for op in workloads.make("census", 1, "tiny").ops:
        if op.label.startswith(("enumerate/", "validity/")):
            op.call()
    return seen


def test_compiler_matches_the_recursive_reference_on_perfbench_formulas(monkeypatch):
    formulas = _perfbench_formulas(monkeypatch)
    distinct = {fm.render(phi) for phi in formulas}
    assert len(distinct) > 300
    assert {fm.render(fm.axiom("bd", 4)), fm.render(fm.axiom("ga"))} <= distinct
    for phi in formulas:
        assert compile_formula(phi) == reference_compile_formula(phi)


def test_compiler_matches_the_recursive_reference_on_random_formulas():
    rng = random.Random(41)
    shared = 0
    for _ in range(1000):
        names = [f"p{i}" for i in range(rng.randint(1, 4))]
        phi = formula_with_repeats(rng, names, rng.randint(1, 14))
        program = compile_formula(phi)
        assert program == reference_compile_formula(phi)
        shared += len(program.ops) < _tree_size(phi)
    assert shared >= 300, shared  # 330: the rest share no subformula


def test_one_chunk_steps_free_the_reference_dying_slots(monkeypatch):
    rng = random.Random(43)
    formulas = _perfbench_formulas(monkeypatch)
    for _ in range(1000):
        names = [f"p{i}" for i in range(rng.randint(1, 4))]
        formulas.append(formula_with_repeats(rng, names, rng.randint(1, 14)))
    for phi in formulas:
        program = compile_formula(phi)
        dying = reference_dying_slots(program.ops)
        for n_worlds in (1, 4):
            steps = _scan_py._one_chunk_plan(program, n_worlds)
            assert [step[1] for step in steps] == list(range(len(program.ops)))
            assert tuple(tuple(sorted(step[5])) for step in steps) == dying


def test_dying_slots_are_found_once_per_program():
    program = compile_formula(fm.parse("([]p -> <>(q & p)) | ~(<>q & [](p -> q))"))
    dying = _scan_py._dying(program)
    assert tuple(tuple(sorted(dead)) for dead in dying) == reference_dying_slots(program.ops)
    for n_worlds in (1, 2, 3):
        steps = _scan_py._one_chunk_plan(program, n_worlds)
        assert [step[5] for step in steps] == dying
    chain = builtin("chain", 3)  # 6 index bits over chunks of 2^3: the chunk plans
    assert _scan_py.find_refuting_index(chain.up, 3, program, chunk_log2=3) == (
        _scan_py.find_refuting_index(chain.up, 3, program))
    assert _scan_py._dying(program) is dying


def test_compiler_takes_the_variable_names_from_formulas_variables(monkeypatch):
    calls, variables = [], fm.variables
    monkeypatch.setattr(fm, "variables", lambda phi: calls.append(phi) or variables(phi))
    phi = fm.parse("[]r -> (p | <>q)")
    assert compile_formula(phi).variables == ("p", "q", "r")
    assert len(calls) == 1 and calls[0] is phi


def _tree_size(phi):
    """Nodes of the formula tree, each occurrence of a subtree counted."""
    size, stack = 0, [phi]
    while stack:
        node = stack.pop()
        size += 1
        stack += [getattr(node, f) for f in ("operand", "left", "right") if hasattr(node, f)]
    return size


def _nested(phi, wrappers):
    for wrap in wrappers:
        phi = wrap(phi)
    return phi


def test_deep_formulas_compile_and_scan_without_recursion():
    two_fork = builtin("two_fork")
    tautology = fm.parse("p -> p")
    for depth in (5000, 5001):
        phi = _nested(tautology, [fm.Not] * depth)
        program = compile_formula(phi)
        assert len(program.ops) == depth + 2
        assert [op for op, _, _ in program.ops[2:]] == [OP_NOT] * depth
        assert S.frame_validates(two_fork, phi) == (depth % 2 == 0)
    # 5,000 alternating boxes and diamonds over p: refuted where p is false
    phi = _nested(fm.Var("p"), [fm.Box, fm.Diamond] * 2500)
    valuation, world = S.find_refutation(two_fork, phi)
    assert world not in S.extension(S.Model(two_fork, valuation), phi)
    assert S.extension(S.Model(two_fork, {"p": set(two_fork.worlds())}), phi) == {0, 1, 2}
    assert F.worlds_of(S.extension_mask(S.Model(two_fork, {}), phi)) == ()
