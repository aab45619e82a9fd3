import random

import pytest

from conftest import naive_frame_validates
from roachkit import formulas as fm
from roachkit import frames as F
from roachkit import semantics as S
from roachkit import _scan_py
from roachkit._program import compile_formula
from roachkit.errors import BudgetExceededError, FrameFormatError
from roachkit.roach import builtin


def test_extension_diamond_is_downclosure_on_f1():
    f1 = builtin("F1")  # r < v < m1, r < m2
    model = S.Model(f1, {"p": {2}})
    assert S.extension(model, fm.parse("<>p")) == {0, 1, 2}
    assert S.extension(model, fm.parse("<>p")) == F.order_query(f1, {2}, "down")


def test_extension_top_is_everything():
    f = builtin("F2")
    assert S.extension(S.Model(f, {}), fm.TOP) == set(f.worlds())


def test_extension_box_on_two_chain():
    chain2 = builtin("chain", 2)
    model = S.Model(chain2, {"p": {1}})
    assert S.extension(model, fm.parse("[]p")) == {1}


def test_extension_missing_variables_read_empty():
    f = builtin("point")
    assert S.extension(S.Model(f, {}), fm.Var("q")) == set()
    assert S.extension(S.Model(f, {}), fm.parse("~q")) == {0}


def test_model_rejects_out_of_range_valuation():
    with pytest.raises(FrameFormatError):
        S.Model(builtin("point"), {"p": {3}})


def test_box_extension_is_upset_diamond_is_downset():
    rng = random.Random(5)
    frames = [f for n in range(2, 5) for f in F.enumerate_frames(n)]
    for _ in range(300):
        f = rng.choice(frames)
        valuation = {"p": set(rng.sample(range(f.size), rng.randint(0, f.size)))}
        model = S.Model(f, valuation)
        box = S.extension(model, fm.parse("[]p"))
        dia = S.extension(model, fm.parse("<>p"))
        assert F.order_query(f, box, "up") == box
        assert F.order_query(f, dia, "down") == dia
        assert dia == set(f.worlds()) - S.extension(model, fm.parse("[]~p"))


def test_monotone_fragment_is_monotone_in_valuation():
    rng = random.Random(6)
    frames = [f for n in range(2, 5) for f in F.enumerate_frames(n)]

    def monotone_formula(depth):
        if depth == 0 or rng.random() < 0.3:
            return fm.Var(rng.choice(["p", "q"]))
        kind = rng.randrange(3)
        if kind == 0:
            return fm.Diamond(monotone_formula(depth - 1))
        left, right = monotone_formula(depth - 1), monotone_formula(depth - 1)
        return (fm.And if kind == 1 else fm.Or)(left, right)

    for _ in range(300):
        f = rng.choice(frames)
        phi = monotone_formula(3)
        small = {name: set(rng.sample(range(f.size), rng.randint(0, f.size - 1)))
                 for name in ("p", "q")}
        big = {name: worlds | {rng.randrange(f.size)} for name, worlds in small.items()}
        assert S.extension(S.Model(f, small), phi) <= S.extension(S.Model(f, big), phi)


def test_s41_frames_validate_mckinsey():
    for n in range(1, 5):
        for f in F.enumerate_frames(n, "s41-rooted"):
            assert S.frame_validates(f, fm.axiom("ma"))


def test_every_frame_validates_t_and_4():
    # reflexivity and transitivity are baked into the Frame invariant, so
    # the corresponding axioms hold on everything the library can build
    for n in range(1, 6):
        for f in F.enumerate_frames(n):
            assert S.frame_validates(f, fm.axiom("s4_T"))
            assert S.frame_validates(f, fm.axiom("s4_4"))


def test_two_fork_refutes_geach():
    fork = builtin("two_fork")
    assert not S.frame_validates(fork, fm.axiom("ga"))
    valuation, world = S.find_refutation(fork, fm.axiom("ga"))
    assert world == 0
    assert len(valuation["p"]) == 1 and valuation["p"] < {1, 2}
    # the refutation really refutes
    assert world not in S.extension(S.Model(fork, valuation), fm.axiom("ga"))


def test_chain_in_t_n_validates_bd_n():
    for n in range(1, 4):
        tn = builtin("T", n)
        chain, _ = F.generated_subframe(tn, 1)  # the w1 < ... < wn chain
        assert F.frame_depth(chain) == n
        assert S.frame_validates(chain, fm.axiom("bd", n))
        if n > 1:
            assert not S.frame_validates(chain, fm.axiom("bd", n - 1))


def test_budget_exceeded():
    with pytest.raises(BudgetExceededError):
        S.find_refutation(builtin("F3"), fm.fine_jankov(builtin("F3")), budget=2 ** 10)


def test_variable_free_formulas():
    f = builtin("F3")
    assert S.frame_validates(f, fm.parse("T -> T"))
    assert not S.frame_validates(f, fm.parse("F"))
    valuation, world = S.find_refutation(f, fm.parse("<>F"))
    assert valuation == {} and world == 0


def test_validity_agrees_with_naive_oracle():
    frames = [f for n in range(1, 4) for f in F.enumerate_frames(n)]
    axioms = [fm.axiom("ma"), fm.axiom("ga"), fm.axiom("bd", 1), fm.axiom("bd", 2),
              fm.axiom("grz"), fm.axiom("s4_T"), fm.axiom("s4_4")]
    for f in frames:
        for phi in axioms:
            assert S.frame_validates(f, phi) == naive_frame_validates(f, phi)


def test_refutation_is_least_index():
    # the scanner reports the least refuting valuation index; decode and
    # compare against a manual scan on a small case
    fork = builtin("two_fork")
    phi = fm.axiom("ga")
    program = compile_formula(phi)
    idx = _scan_py.find_refuting_index(fork.up, fork.size, program)
    for j in range(idx):
        valuation = S._decode_valuation(j, program.variables, fork.size)
        assert S.extension_mask(S.Model(fork, valuation), phi) == (1 << fork.size) - 1
    valuation = S._decode_valuation(idx, program.variables, fork.size)
    assert S.extension_mask(S.Model(fork, valuation), phi) != (1 << fork.size) - 1


def test_pattern_table_bits_are_index_bits():
    # bit j of pattern t is bit t of j, for every chunk size the scanner uses
    for log2 in range(17):
        chunk_bits = 1 << log2
        pats = _scan_py._patterns(chunk_bits)
        assert len(pats) == log2
        for t, pat in enumerate(pats):
            bits = format(pat, f"0{chunk_bits}b")[::-1]
            assert bits == "".join("1" if (j >> t) & 1 else "0" for j in range(chunk_bits))
    rng = random.Random(20)
    pats = _scan_py._patterns(1 << 20)
    assert len(pats) == 20 and all(pat >> (1 << 20) == 0 for pat in pats)
    for j in [0, 1, (1 << 20) - 1] + [rng.randrange(1 << 20) for _ in range(64)]:
        assert [(pat >> j) & 1 for pat in pats] == [(j >> t) & 1 for t in range(20)]


def _random_formula(rng, depth, names):
    if depth == 0 or rng.random() < 0.25:
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


def _refutes(frame, phi, variables, index):
    valuation = S._decode_valuation(index, variables, frame.size)
    return S.extension_mask(S.Model(frame, valuation), phi) != (1 << frame.size) - 1


def test_random_formulas_scan_alike_at_every_chunk_size():
    # 150 seeded formulas of 2-4 variables on rooted frames of 2-5 worlds,
    # k*n >= 6, so up to 2^20 valuations; the naive oracle is checked where
    # k*n <= 12 and is too slow beyond
    rng = random.Random(8)
    frames = [f for n in range(2, 6) for f in F.enumerate_frames(n, "rooted")]
    checked = oracle_checked = attempts = 0
    while checked < 150 and attempts < 2000:
        attempts += 1
        f = rng.choice(frames)
        n_vars = rng.randint(2, 4)
        phi = _random_formula(rng, rng.randint(2, 4), [f"p{i}" for i in range(n_vars)])
        program = compile_formula(phi)
        kn = program.n_vars * f.size
        if kn < 6:
            continue
        index = _scan_py.find_refuting_index(f.up, f.size, program, 16)
        for log2 in (8, 3):
            assert _scan_py.find_refuting_index(f.up, f.size, program, log2) == index
        if index >= 0:
            assert _refutes(f, phi, program.variables, index)
        if kn <= 12:
            assert (index < 0) == naive_frame_validates(f, phi)
            oracle_checked += 1
        checked += 1
    assert checked == 150 and oracle_checked == 123


def test_chunked_scan_matches_naive_oracle():
    # small spaces, so chunks of 2^0, 2^3 and 2^6 split them and the least
    # refuting index often lies past the first chunk; least-ness is checked
    # valuation by valuation
    rng = random.Random(9)
    frames = [f for n in range(1, 5) for f in F.enumerate_frames(n, "rooted")]
    cases = [(f, phi) for f in frames for phi in
             (fm.axiom("ga"), fm.axiom("grz"), fm.axiom("bd", 2), fm.axiom("bd", 3))]
    for _ in range(120):
        names = [f"p{i}" for i in range(rng.randint(1, 3))]
        cases.append((rng.choice(frames), _random_formula(rng, rng.randint(1, 4), names)))
    past_first_chunk = {0: 0, 3: 0, 6: 0}
    for f, phi in cases:
        program = compile_formula(phi)
        if program.n_vars * f.size > 10:
            continue
        index = _scan_py.find_refuting_index(f.up, f.size, program)
        for log2 in (0, 3, 6, 16):
            assert _scan_py.find_refuting_index(f.up, f.size, program, log2) == index
        assert (index < 0) == naive_frame_validates(f, phi)
        if index >= 0:
            assert _refutes(f, phi, program.variables, index)
            assert not any(_refutes(f, phi, program.variables, j) for j in range(index))
            for log2 in past_first_chunk:
                past_first_chunk[log2] += index >= 1 << log2
    assert all(count >= 5 for count in past_first_chunk.values()), past_first_chunk


def test_chunked_scan_past_the_first_2_16_chunk():
    # chi_F1 has 4 variables, so five-world frames span 2^20 valuations: the
    # size the decision search scans in 2^16-valuation chunks.  A single
    # 2^20 chunk is the reference; the naive oracle is too slow at this size.
    chi = fm.fine_jankov(builtin("F1"))
    program = compile_formula(chi)
    cases = {
        (31, 10, 20, 8, 16): 344193,
        (31, 18, 12, 12, 16): 409665,
        (31, 30, 20, 8, 16): 278658,
    }
    for up, expected in cases.items():
        assert _scan_py.find_refuting_index(up, 5, program, 20) == expected
        for log2 in (12, 16):
            assert _scan_py.find_refuting_index(up, 5, program, log2) == expected
        assert _refutes(F.Frame(5, up), chi, program.variables, expected)
    roach5 = next(F.enumerate_frames(5, "2-roach"))
    assert _scan_py.find_refuting_index(roach5.up, 5, program) == -1
    assert _scan_py.find_refuting_index(roach5.up, 5, program, 20) == -1


def test_find_refutation_recompiles_for_every_new_formula(monkeypatch):
    frame = builtin("F1")
    texts = ["[]p -> p", "p -> []p", "<>q -> []r", "(p & q) -> <>r", "p -> []p", "q | ~[]q"]
    formulas = [fm.parse(text) for text in texts]
    formulas += [fm.parse(text) for text in texts]  # equal but distinct objects
    formulas += [formulas[1], formulas[1], formulas[2], formulas[1]]
    expected = []
    for phi in formulas:
        program = compile_formula(phi)
        index = _scan_py.find_refuting_index(frame.up, frame.size, program)
        if index < 0:
            expected.append(None)
            continue
        valuation = S._decode_valuation(index, program.variables, frame.size)
        missing = ((1 << frame.size) - 1) ^ S.extension_mask(S.Model(frame, valuation), phi)
        expected.append((valuation, (missing & -missing).bit_length() - 1))

    scanned = []
    original_scan = S._scan

    def recording_scan(up, n_worlds, program):
        scanned.append(program)
        return original_scan(up, n_worlds, program)

    monkeypatch.setattr(S, "_scan", recording_scan)
    for phi, want in zip(formulas, expected):
        assert S.find_refutation(frame, phi) == want
        assert scanned[-1] == compile_formula(phi)
    # a replaced compiler is used at once, even for the cached formula
    assert expected[-1] is not None
    monkeypatch.setattr(S, "compile_formula", lambda phi: compile_formula(fm.parse("[]p -> p")))
    assert S.find_refutation(frame, formulas[-1]) is None


def test_chunk_reuse_matches_one_chunk_scan():
    # chunks of 2^0, 2^2, 2^3 and 2^5 valuations split spaces of up to 2^10
    # into many chunks, so items take several levels and most chunks
    # recompute only some of them; a single chunk of 2^(k*n) valuations
    # recomputes everything and is the reference
    rng = random.Random(31)
    frames = [f for n in range(1, 6) for f in F.enumerate_frames(n)]
    wide = [f for f in frames if f.size >= 3]
    # a root box or diamond over a subtree whose atoms at the root world lie
    # below the chunk while those at its successors lie above it
    pulled = ["~[]p", "p -> []p", "<>p -> p", "~[](p | q)", "[]<>q -> p",
              "<>[]q -> []p", "<>(p & ~q) | []q"]
    cases = [(rng.choice(wide), fm.parse(text)) for text in pulled for _ in range(4)]
    for _ in range(60):
        names = [f"p{i}" for i in range(rng.randint(1, 2))]
        cases.append((rng.choice(frames), _random_formula(rng, rng.randint(1, 4), names)))
    past_first_chunks = 0
    for f, phi in cases:
        program = compile_formula(phi)
        kn = program.n_vars * f.size
        if kn > 10:
            continue
        index = _scan_py.find_refuting_index(f.up, f.size, program, kn)
        for log2 in (0, 2, 3, 5):
            assert _scan_py.find_refuting_index(f.up, f.size, program, log2) == index
        assert (index < 0) == naive_frame_validates(f, phi)
        # past the first chunk at every size above, the 32nd at chunk_log2 0
        past_first_chunks += index >= 1 << 5
    assert past_first_chunks >= 10, past_first_chunks
