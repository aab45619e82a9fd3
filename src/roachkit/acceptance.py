"""The acceptance suite: one callable per criterion, shared by the pytest
module and the ``selftest`` CLI command.

Each criterion returns a ``CriterionResult``; a criterion passes only when
its census ran to completion with zero mismatches.
"""

from __future__ import annotations

import random
import time

from ._record import record
from . import construct, decision, formulas as fm, morphisms as M, ordinals as O, roach as R
from . import frames as F
from . import semantics as S


@record
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _rooted_s41(max_size):
    for n in range(1, max_size + 1):
        yield from F.enumerate_frames(n, "s41-rooted", ceiling=max_size)


def check_char_r2() -> tuple[bool, str]:
    """2-roach recognition agrees with forbidden-configuration search on
    every rooted S4.1 frame with at most 7 worlds."""
    mismatches = 0
    total = 0
    configs = [R.builtin(name) for name in R.FORBIDDEN_NAMES]
    for f in _rooted_s41(7):
        total += 1
        recognized = R.is_2_roach(f) is not None
        permissible = any(M.is_permissible(c, f) is not None for c in configs)
        if recognized != (not permissible):
            mismatches += 1
    return mismatches == 0, f"{total} frames, {mismatches} mismatches"


def check_fine_jankov() -> tuple[bool, str]:
    """Brute-force validity of the frame formula equals non-permissibility
    on all frame pairs with at most 3 worlds each."""
    rooted = [f for n in range(1, 4) for f in F.enumerate_frames(n, "rooted")]
    hosts = [g for n in range(1, 4) for g in F.enumerate_frames(n, "all")]
    mismatches = 0
    pairs = 0
    for f in rooted:
        chi = fm.fine_jankov(f)
        for g in hosts:
            pairs += 1
            if S.frame_validates(g, chi) != (M.is_permissible(f, g) is None):
                mismatches += 1
    return mismatches == 0, f"{pairs} pairs, {mismatches} mismatches"


def check_minimality() -> tuple[bool, str]:
    """Every rooted S4.1 non-2-roach with at most 5 worlds yields a witness
    whose morphism re-verifies as an onto p-morphism from the stated
    point-generated subframe onto the named configuration."""
    failures = 0
    total = 0
    for f in _rooted_s41(5):
        if R.is_2_roach(f) is not None:
            continue
        total += 1
        w = R.minimal_forbidden_witness(f)
        sub, emb = F.generated_subframe(f, w.generator)
        ok = (
            w.which in R.FORBIDDEN_NAMES
            and sub == w.morphism.source
            and emb == w.embedding
            and w.morphism.target == R.builtin(w.which)
            and M.check_p_morphism(w.morphism, require_onto=True) is None
        )
        if not ok:
            failures += 1
    return failures == 0, f"{total} non-2-roaches, {failures} failures"


def check_unraveling() -> tuple[bool, str]:
    """Every 2-roach with at most 5 worlds, plus a seeded sample of 50 of the
    6- and 7-world 2-roach classes, unravels to a willow tree with a verified
    onto morphism."""
    failures = 0
    total = 0
    larger = [f for n in (6, 7) for f in F.enumerate_frames(n, "2-roach", ceiling=7)]
    sample = random.Random(20260810).sample(larger, 50)
    pool = [f for n in range(1, 6) for f in F.enumerate_frames(n, "2-roach")]
    for f in pool + sample:
        total += 1
        result = construct.roach_to_willow(f)
        ok = (
            R.is_willow_tree(result.tree) is not None
            and M.check_p_morphism(result.morphism, require_onto=True) is None
            and result.morphism.source == result.tree
            and result.morphism.target == f
        )
        if not ok:
            failures += 1
    detail = f"{total} 2-roaches ({len(sample)} random 6-7 world), {failures} failures"
    return failures == 0, detail


def check_closure() -> tuple[bool, str]:
    """Point-generated subframes of 2-roaches are 2-roaches, and every onto
    p-morphic image (up to 4 worlds) of a 2-roach is a 2-roach."""
    failures = 0
    checked = 0
    targets = [g for n in range(1, 5) for g in F.enumerate_frames(n, "all")]
    for n in range(1, 6):
        for f in F.enumerate_frames(n, "2-roach"):
            for w in f.worlds():
                sub, _ = F.generated_subframe(f, w)
                checked += 1
                if R.is_2_roach(sub) is None:
                    failures += 1
            for g in targets:
                if M.find_onto_p_morphism(f, g, least=False) is not None:
                    checked += 1
                    if R.is_2_roach(g) is None:
                        failures += 1
    return failures == 0, f"{checked} checks, {failures} failures"


def check_hierarchy() -> tuple[bool, str]:
    """T(n+1) separates consecutive roach classes at its own depth n+2 (its
    root, the only splitting-point candidate, has depth n+2), and G is not
    an n-roach for n = 1..5."""
    bad = []
    for n in (1, 2, 3):
        t = R.builtin("T", n + 1)
        if R.splitting_certificate(t, n) is not None:
            bad.append(f"T{n+1}@{n}")
        if R.splitting_certificate(t, n + 1) is not None:
            bad.append(f"T{n+1}@{n+1}")
        cert = R.splitting_certificate(t, n + 2)
        if cert is None or not R.verify_splitting(t, cert):
            bad.append(f"T{n+1}@{n+2}")
    g = R.builtin("G")
    for n in range(1, 6):
        if R.splitting_certificate(g, n) is not None:
            bad.append(f"G@{n}")
    return not bad, "exact" if not bad else f"failed: {bad}"


def check_correspondences() -> tuple[bool, str]:
    """On all rooted frames with at most 5 worlds: the depth axiom bd(n) is
    valid iff depth <= n (n = 1..4), and ma plus ga are valid iff the frame
    has a single maximal point seen from everywhere."""
    mismatches = 0
    total = 0
    bd = {n: fm.axiom("bd", n) for n in range(1, 5)}
    ma, ga = fm.axiom("ma"), fm.axiom("ga")
    for size in range(1, 6):
        for f in F.enumerate_frames(size, "rooted"):
            total += 1
            d = F.frame_depth(f)
            for n in range(1, 5):
                if S.frame_validates(f, bd[n]) != (d <= n):
                    mismatches += 1
            s412 = F.classify_frame(f).s412
            if (S.frame_validates(f, ma) and S.frame_validates(f, ga)) != s412:
                mismatches += 1
    return mismatches == 0, f"{total} frames, {mismatches} mismatches"


def check_decision() -> tuple[bool, str]:
    """Spot checks: ga and bd(2) are refuted, and no 2-roach of up to 5
    worlds refutes an axiom: none has F1, F2 or F3 as an onto p-morphic
    image of a generated subframe (so it validates their frame formulas),
    and each validates ma.  The axioms are checked on the 2-roaches
    themselves, since ``decide_lr2`` settles their instances unsearched."""
    bad = []
    v = decision.decide_lr2(fm.axiom("ga"), 3)
    if not (isinstance(v, decision.Refuted) and F.are_isomorphic(v.model.frame, R.builtin("two_fork"))):
        bad.append("ga")
    v = decision.decide_lr2(fm.axiom("bd", 2), 4)
    if not (isinstance(v, decision.Refuted) and F.are_isomorphic(v.model.frame, R.builtin("chain", 3))):
        bad.append("bd2")
    roaches = [g for n in range(1, 6) for g in F.enumerate_frames(n, "2-roach")]
    for i, name in enumerate(R.FORBIDDEN_NAMES, 1):
        config = R.builtin(name)
        if any(M.is_permissible(config, g) is not None for g in roaches):
            bad.append(f"chi{i}")
    if not all(S.frame_validates(g, fm.axiom("ma")) for g in roaches):
        bad.append("ma")
    return not bad, "exact" if not bad else f"failed: {bad}"


GOLDEN_ORDINALS = [
    ("w", "L_1 = S4.1.2"),
    ("w^2", "L_2"),
    ("w^3", "L_3"),
    ("1", "S4.Grz_1"),
    ("2", "S4.Grz_1"),
    ("w^2 + 1", "S4.Grz_3"),
    ("w^w + 1", "S4.Grz"),
    ("w^w + w", "S4.Grz ^ L_1"),
    ("w^w + w^2", "S4.Grz ^ L_2"),
    ("w^2 + w", "S4.Grz_3 ^ L_1"),
    ("w^3 + w^2", "S4.Grz_4 ^ L_2"),
    ("w^w", "conjectured: L_inf (the logic of all roaches); not a theorem"),
]


def check_ordinal_golden() -> tuple[bool, str]:
    """String-exact classification table for the compactified logics."""
    bad = []
    for text, expected in GOLDEN_ORDINALS:
        got = O.classify_beta_logic(O.parse_ordinal(text)).describe()
        if got != expected:
            bad.append(f"{text}: {got!r} != {expected!r}")
    return not bad, "exact" if not bad else "; ".join(bad)


def _random_ordinal(rng, depth=2) -> O.Ordinal:
    n_terms = rng.randint(1, 4)
    exponents = set()
    while len(exponents) < n_terms:
        if depth > 0 and rng.random() < 0.3:
            exponents.add(_random_ordinal(rng, depth - 1))
        else:
            exponents.add(O.from_int(rng.randint(0, 9)))
    terms = tuple(
        (exp, rng.randint(1, 5)) for exp in sorted(exponents, reverse=True)
    )
    return O.Ordinal(terms)


def check_cnf_reconstruction() -> tuple[bool, str]:
    """On 1000 random non-compact ordinals, (gamma' + 1) + w^alpha1 equals
    the input."""
    rng = random.Random(1729)
    failures = 0
    produced = 0
    while produced < 1000:
        gamma = _random_ordinal(rng)
        if gamma.is_zero() or gamma.least_exponent().is_zero():
            continue
        produced += 1
        gamma_prime, alpha1 = O.tear_off(gamma)
        if (gamma_prime + O.ONE) + O.omega_power(alpha1) != gamma:
            failures += 1
    return failures == 0, f"{produced} ordinals, {failures} failures"


CRITERIA = [
    ("char-R2", check_char_r2),
    ("fine-jankov", check_fine_jankov),
    ("minimality", check_minimality),
    ("unravel", check_unraveling),
    ("closure", check_closure),
    ("hierarchy", check_hierarchy),
    ("bd-s412", check_correspondences),
    ("decide", check_decision),
    ("ordinal-golden", check_ordinal_golden),
    ("cnf-reconstruction", check_cnf_reconstruction),
]


def run(only: str | None = None) -> list[CriterionResult]:
    results = []
    for name, fn in CRITERIA:
        if only is not None and name != only:
            continue
        start = time.monotonic()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CriterionResult(name, passed, detail, time.monotonic() - start))
    return results
