import random
import tracemalloc
from collections import OrderedDict

import pytest

from conftest import (
    formula_with_repeats,
    naive_extension,
    naive_frame_validates,
    naive_frames_validate,
    naive_least_refuting_index,
    random_formula,
    random_frames,
)
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
    assert S.extension(model, fm.parse("<>p")) == set(F.worlds_of(F.downset_mask(f1, 1 << 2)))


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
    # negative and huge worlds must not reach a bit shift; True is no world,
    # and a number or None is no set of worlds
    for worlds in ({3}, {-1}, {99999999999}, {True}, 5, None, 2.0):
        with pytest.raises(FrameFormatError):
            S.Model(builtin("point"), {"p": worlds})


def test_model_takes_only_sets_lists_and_tuples_of_worlds():
    # a dict's keys, a string's characters or a range's members are no
    # valuation entry, even when they name worlds
    f1 = builtin("F1")
    for worlds in ({0: "x", 2: "y"}, {0: 0}, "02", range(2), b"\x00"):
        with pytest.raises(FrameFormatError):
            S.Model(f1, {"p": worlds})
    for worlds in ({0, 2}, frozenset({0, 2}), [0, 2], (2, 0)):
        assert S.extension(S.Model(f1, {"p": worlds}), fm.Var("p")) == {0, 2}


def test_box_extension_is_upset_diamond_is_downset():
    rng = random.Random(5)
    frames = [f for n in range(2, 5) for f in F.enumerate_frames(n)]
    for _ in range(300):
        f = rng.choice(frames)
        valuation = {"p": set(rng.sample(range(f.size), rng.randint(0, f.size)))}
        model = S.Model(f, valuation)
        box = S.extension(model, fm.parse("[]p"))
        dia = S.extension(model, fm.parse("<>p"))
        assert all(set(F.worlds_of(f.up[w])) <= box for w in box)
        assert F.downset_mask(f, F.mask_of(dia)) == F.mask_of(dia)
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


def test_extension_mask_matches_the_recursive_oracle():
    # the evaluator over the shared walk, and the re-check that reads the
    # least refuted world off it, against a set-based recursion written from
    # the definitions, on frames of at most 5 worlds
    rng = random.Random(29)
    frames = random_frames(31, 60, 5) + [builtin(name) for name in ("F1", "F2", "F3", "two_fork")]
    names = ["p", "q", "r"]
    formulas = [random_formula(rng, 5, names) for _ in range(150)]
    formulas += [formula_with_repeats(rng, names, rng.randint(1, 12)) for _ in range(150)]
    formulas += [fm.fine_jankov(builtin(name)) for name in ("F1", "F2", "F3", "two_fork")]
    formulas += [fm.fine_jankov(builtin("chain", 3))]
    proper = 0
    for phi in formulas:
        for frame in rng.sample(frames, 4):
            valuation = {name: set(rng.sample(range(frame.size), rng.randint(0, frame.size)))
                         for name in fm.variables(phi)}
            want = naive_extension(frame, valuation, phi)
            assert set(F.worlds_of(S.extension_mask(S.Model(frame, valuation), phi))) == want
            refuted = set(frame.worlds()) - want
            assert S._least_refuted_world(frame, phi, valuation) == min(refuted, default=None)
            proper += 0 < len(want) < frame.size
    assert proper > 300, proper


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


def test_find_refutation_rejects_a_scan_index_that_refutes_nothing(monkeypatch):
    # the re-check of the scanner's answer finds no refuted world: that is a
    # scanner fault, not world -1
    monkeypatch.setattr(S, "_scan", lambda up, n_worlds, program: 0)
    with pytest.raises(AssertionError, match="at no world"):
        S.find_refutation(builtin("F1"), fm.parse("[]p -> p"))


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


def test_the_union_oracle_agrees_with_the_per_frame_oracle():
    # one naive extension per valuation on the disjoint union of a size's
    # frames, against one naive validity check per frame, on all frames of
    # 1-3 worlds and rooted ones of 1-4; many formulas hold on some frames of
    # a size and fail on others
    rng = random.Random(31)
    formulas = [fm.axiom(name) for name in ("ma", "ga", "grz")] + [fm.axiom("bd", 1), fm.axiom("bd", 2)]
    formulas += [fm.parse(text) for text in ("[]<>p -> <>[]p", "<>[]p -> []<>p", "p", "[]T")]
    formulas += [random_formula(rng, 3, [f"p{i}" for i in range(k)])
                 for k in (0, 1, 1, 2) for _ in range(6)]
    mixed = 0
    for kind, top in (("all", 3), ("rooted", 4)):
        for n in range(1, top + 1):
            frames = list(F.enumerate_frames(n, kind))
            for phi in formulas:
                if len(fm.variables(phi)) * n > 8:
                    continue
                valid = naive_frames_validate(frames, phi)
                assert valid == [naive_frame_validates(f, phi) for f in frames], (phi, n, kind)
                mixed += 0 < sum(valid) < len(valid)
    # 31 (formula, size) pairs hold on some frames and fail on others
    assert mixed >= 30, mixed


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


def test_find_refutation_rechecks_every_scan_index(monkeypatch):
    # find_refutation decodes whatever index the scan reports and re-checks
    # it on the frame: fed each index of every small valuation space, it
    # returns the decoded valuation with the least world the naive oracle
    # refutes, and raises where that valuation refutes no world
    rng = random.Random(32)
    frames = [f for n in range(1, 4) for f in F.enumerate_frames(n, "rooted")]
    formulas = [fm.axiom("ga"), fm.axiom("grz"), fm.parse("[]p -> p"), fm.parse("<>[]p -> []<>q")]
    formulas += [random_formula(rng, 3, ["p", "q"]) for _ in range(6)]
    seen = {"refuted": 0, "raised": 0}
    for phi in formulas:
        names = sorted(fm.variables(phi))
        for frame in frames:
            for index in range(1 << len(names) * frame.size):
                monkeypatch.setattr(S, "_scan", lambda up, n, program: index)
                valuation = {name: set(F.worlds_of(index >> v * frame.size & (1 << frame.size) - 1))
                             for v, name in enumerate(names)}
                refuted = set(frame.worlds()) - naive_extension(frame, valuation, phi)
                if refuted:
                    got_valuation, world = S.find_refutation(frame, phi)
                    assert {name: got_valuation.get(name, set()) for name in names} == valuation
                    assert world == min(refuted), (phi, frame, index)
                    seen["refuted"] += 1
                else:
                    with pytest.raises(AssertionError, match="refutes the formula at no world"):
                        S.find_refutation(frame, phi)
                    seen["raised"] += 1
    assert seen["refuted"] >= 500 and seen["raised"] >= 500, seen


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
        phi = random_formula(rng, rng.randint(2, 4), [f"p{i}" for i in range(n_vars)])
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
        cases.append((rng.choice(frames), random_formula(rng, rng.randint(1, 4), names)))
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


def test_program_cache_keeps_a_few_formulas(monkeypatch):
    # a census cycles through six formulas frame by frame: each is compiled
    # once, and a run over many formulas keeps only the latest few
    compiled = []

    def counting(phi):
        compiled.append(phi)
        return compile_formula(phi)

    monkeypatch.setattr(S, "compile_formula", counting)
    monkeypatch.setattr(S, "_programs", OrderedDict())
    formulas = [fm.axiom("bd", k) for k in range(1, 5)] + [fm.axiom("ma"), fm.axiom("ga")]
    frames = list(F.enumerate_frames(3))
    for frame in frames:
        for phi in formulas:
            assert (S.find_refutation(frame, phi) is None) == naive_frame_validates(frame, phi)
    assert compiled == formulas
    for i in range(20):
        S.find_refutation(frames[0], fm.parse(f"p{i} -> p{i}"))
    assert len(S._programs) == S._PROGRAM_CACHE_SIZE
    assert len(compiled) == len(formulas) + 20


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
        cases.append((rng.choice(frames), random_formula(rng, rng.randint(1, 4), names)))
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


def test_one_program_scans_alike_on_every_world_count():
    # one compiled program per formula, scanned on frames of 1-6 worlds in
    # interleaved order: a scan that fits one chunk runs the plan the
    # program keeps for its world count, and a fresh compile has none yet
    rng = random.Random(12)
    frames = [f for n in range(1, 7) for f in F.enumerate_frames(n, "rooted")]
    picked = [f for f in frames if f.size <= 3] + rng.sample([f for f in frames if f.size > 3], 24)
    texts = ["[]p -> p", "<>[]p -> []<>p", "p -> [](<>p -> q)", "~(<>p & <>~p)",
             "[]([]p -> q) | []([]q -> p)", "<>(p & q) -> []<>q"]
    oracle_checked = 0
    for text in texts:
        phi = fm.parse(text)
        program = compile_formula(phi)
        order = picked[:]
        rng.shuffle(order)
        for f in order:
            index = _scan_py.find_refuting_index(f.up, f.size, program, 16)
            assert index == _scan_py.find_refuting_index(f.up, f.size, compile_formula(phi), 16)
            for log2 in (8, 3):
                assert _scan_py.find_refuting_index(f.up, f.size, program, log2) == index
            if program.n_vars * f.size <= 8:
                assert (index < 0) == naive_frame_validates(f, phi)
                oracle_checked += 1
        assert sorted(program.__dict__["_one_chunk_plans"]) == list(range(1, 7))
    assert oracle_checked == 126, oracle_checked


def test_one_chunk_scan_frees_dead_slots():
    # 970 slots of 8 KB items at 8 worlds: about 58 MB if no slot is freed
    rng = random.Random(19)
    phi = fm.conj([random_formula(rng, 7, ["p", "q"]) for _ in range(200)])
    program = compile_formula(phi)
    chain = builtin("chain", 8)
    assert len(program.ops) > 900 and program.n_vars * chain.size == 16
    tracemalloc.start()
    try:
        index = _scan_py.find_refuting_index(chain.up, chain.size, program)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert index == 0
    assert peak < 16 << 20, peak


def test_scan_finds_the_least_refutation_at_every_chunk_size():
    # seeded formulas of 0-4 variables over every 2-roach of 1-6 worlds with
    # k*n <= 12.  Chunks of 2^16, 2^8 and 2^3 bits hold a frame's valuations
    # in one chunk or split them over several, and each finds one least
    # index; the naive oracle checks every frame's least index where
    # k*n <= 8.
    rng = random.Random(23)
    roaches = {n: list(F.enumerate_frames(n, "2-roach")) for n in range(1, 7)}
    formulas = [fm.axiom(name) for name in ("ga", "grz", "ma")]
    formulas += [fm.axiom("bd", 2), fm.axiom("bd", 3), fm.parse("[](p -> []p) -> (<>[]p -> []p)"),
                 fm.parse("<>(p & <>~p) -> []<>q"), fm.parse("[]T"), fm.parse("<>F | ~[]F")]
    formulas += [random_formula(rng, rng.randint(1, 4), [f"p{i}" for i in range(k)])
                 for k in (0, 1, 1, 2, 2, 3, 4) for _ in range(4)]
    seen = {"refuted": 0, "valid": 0, "split": 0, "oracle": 0}
    for phi in formulas:
        program = compile_formula(phi)
        for n, frames in roaches.items():
            kn = program.n_vars * n
            if kn > 12:
                continue
            indices = [_scan_py.find_refuting_index(f.up, n, program) for f in frames]
            if kn <= 8:
                assert indices == [naive_least_refuting_index(f, phi) for f in frames]
                seen["oracle"] += len(frames)
            for chunk_log2 in (8, 3):
                if chunk_log2 == 3 and kn > 10:
                    continue
                assert [_scan_py.find_refuting_index(f.up, n, program, chunk_log2)
                        for f in frames] == indices
                seen["split"] += len(frames) * (kn > chunk_log2)
            seen["refuted"] += sum(j >= 0 for j in indices)
            seen["valid"] += indices.count(-1)
    # 2,539 scans refuted and 803 valid; 2,859 at a chunk size that splits
    # the frame's valuations
    assert seen["refuted"] >= 2500 and seen["valid"] >= 800 and seen["split"] >= 2800, seen
    assert seen["oracle"] == 2499, seen
