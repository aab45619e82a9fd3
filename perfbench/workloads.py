"""The three workloads: seeded inputs, the timed operations, and their checks.

``make(name, seed, scale)`` builds a ``Workload`` whose ``ops`` the worker
runs in order.  Each operation calls roachkit through module attributes at
call time, so an installed tracer sees it.  Each ``Op.check`` runs after the
timed phase and returns a failure message for a wrong answer, else None.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import checks
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("decide", "census", "cli")
SCALES = ("full", "tiny")


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]  # a failure message, or None


@dataclass
class CliTrace:
    """Per-layer tallies and phase times sent back by traced CLI runs."""

    tally: dict = field(default_factory=dict)
    phases: dict = field(default_factory=lambda: {"cli.import_s": [], "cli.main_s": []})


@dataclass
class Workload:
    ops: Iterable[Op]  # may be lazy: later ops can depend on earlier results
    cli_trace: CliTrace | None = None


def make(name: str, seed: int, scale: str, traced: bool = False) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "cli":
        return _cli(rng, traced)
    return {"decide": _decide, "census": _census}[name](rng, scale)


# ---------------------------------------------------------------------------
# decide: decide_lr2 queries in one warm process

VAR_NAMES = ("p", "q", "r", "s")
# bound per variable count keeps a full scan at most 2^16 valuations per frame
BOUND_FOR_VARS = {1: 6, 2: 6, 3: 5, 4: 4}


def _random_formula(rng, k, n_bin, n_mod, n_not):
    """A formula tuple with exactly the given connective counts that uses all
    of its k variables (k <= n_bin + 1)."""
    leaves = list(range(k)) + [rng.randrange(k) for _ in range(n_bin + 1 - k)]
    rng.shuffle(leaves)
    items = [("var", v) for v in leaves]
    steps = ["bin"] * n_bin + ["mod"] * n_mod + ["not"] * n_not
    rng.shuffle(steps)
    for step in steps:
        if step == "bin":
            a = items.pop(rng.randrange(len(items)))
            b = items.pop(rng.randrange(len(items)))
            items.append((rng.choice(("and", "or", "imp")), a, b))
        else:
            i = rng.randrange(len(items))
            items[i] = (rng.choice(("box", "dia")) if step == "mod" else "not", items[i])
    return items[0]


def render(phi) -> str:
    op = phi[0]
    if op == "var":
        return VAR_NAMES[phi[1]]
    if op == "not":
        return "~" + render(phi[1])
    if op == "box":
        return "[]" + render(phi[1])
    if op == "dia":
        return "<>" + render(phi[1])
    sym = {"and": "&", "or": "|", "imp": "->"}[op]
    return f"({render(phi[1])} {sym} {render(phi[2])})"


def _box(a):
    return ("box", a)


def _imp(a, b):
    return ("imp", a, b)


# substitution instances of these are valid on every 2-roach (reflexive,
# transitive, and every world sees a maximal point)
VALID_SCHEMATA = (
    ("T", lambda a, b: _imp(_box(a), a)),
    ("4", lambda a, b: _imp(_box(a), _box(_box(a)))),
    ("K", lambda a, b: _imp(_box(_imp(a, b)), _imp(_box(a), _box(b)))),
    ("M", lambda a, b: _imp(_box(("dia", a)), ("dia", _box(a)))),
    ("D", lambda a, b: _imp(a, ("dia", a))),
    ("W", lambda a, b: _imp(a, _imp(b, a))),
)


def _decide(rng, scale):
    from roachkit import decision, formulas, roach, semantics

    tiny = scale == "tiny"
    axioms = decision.lr2_axioms()  # ma, chi_F1, chi_F2, chi_F3
    two_fork = checks.canonical_code(roach.builtin("two_fork").up)
    chain3 = checks.canonical_code(roach.builtin("chain", 3).up)
    chain4 = checks.canonical_code(roach.builtin("chain", 4).up)
    # (label, formula, bound, expected): expected is ("none",) for a clean
    # search, ("refuted", frame code or None for any frame)
    queries = [
        ("ma@6", axioms[0], 4 if tiny else 6, ("none",)),
        ("chi_F1@5", axioms[1], 3 if tiny else 5, ("none",)),
        ("chi_F2@5", axioms[2], 3 if tiny else 5, ("none",)),
        ("chi_F3@4", axioms[3], 3 if tiny else 4, ("none",)),
        ("ga@3", formulas.axiom("ga"), 3, ("refuted", two_fork)),
        ("bd(2)@4", formulas.axiom("bd", 2), 4, ("refuted", chain3)),
        ("grz@4", formulas.axiom("grz"), 4, ("refuted", None)),
        ("bd(3)@5", formulas.axiom("bd", 3), 5, ("refuted", chain4)),
    ]
    # two valid instances per schema for k = 1, 2 (the slowest of them, at
    # bound 6, hold the 90th latency percentile) and one for k = 3, 4
    per_schema, n_point = ({1: 1, 2: 1, 3: 1, 4: 1}, 6) if tiny else ({1: 2, 2: 2, 3: 1, 4: 1}, 120)
    random_queries = []
    for k in (1, 2, 3, 4):
        for name, schema in VALID_SCHEMATA[: 2 if tiny else None]:
            for _ in range(per_schema[k]):
                a = _random_formula(rng, k, 3, 2, 1)
                b = _random_formula(rng, rng.randint(1, min(k, 2)), 1, 1, 0)
                phi = schema(a, b)
                bound = min(BOUND_FOR_VARS[k], 3) if tiny else BOUND_FOR_VARS[k]
                random_queries.append((f"{name}/k{k}", render(phi), bound, ("none",)))
    for i in range(n_point):
        k = 1 + i % 4
        while True:
            phi = _random_formula(rng, k, 6, 4, 2)
            if checks.refutable_on_point(phi, k):
                break
        random_queries.append((f"point/k{k}", render(phi), BOUND_FOR_VARS[k], ("refuted-point",)))
    rng.shuffle(random_queries)
    for label, text, bound, expected in random_queries:
        queries.append((label, formulas.parse(text), bound, expected))

    def verify(phi, bound, expected, verdict):
        if expected == ("none",):
            if verdict != decision.NoCountermodelUpTo(bound):
                return f"expected no countermodel up to {bound}, got {verdict!r}"
            return None
        if not isinstance(verdict, decision.Refuted):
            return f"expected a refutation, got {verdict!r}"
        frame = verdict.model.frame
        if frame.size > bound:
            return f"countermodel has {frame.size} worlds, above the bound {bound}"
        if not 0 <= verdict.world < frame.size:
            return f"countermodel world {verdict.world} is not a world of the frame"
        if verdict.world in semantics.extension(verdict.model, phi):
            return "countermodel does not refute the formula at its world"
        if (checks.extension_mask(frame.up, phi, verdict.model.valuation) >> verdict.world) & 1:
            return "countermodel does not refute the formula at its world (independent re-check)"
        if roach.is_2_roach(frame) is None or not checks.is_2_roach_shape(frame.up):
            return "countermodel frame is not a 2-roach"
        if expected == ("refuted-point",) and frame.size != 1:
            return f"formula false on the one-world frame refuted on {frame.size} worlds"
        if expected[0] == "refuted" and expected[1] is not None:
            if checks.canonical_code(frame.up) != expected[1]:
                return f"refuted on an unexpected frame {frame!r}"
        return None

    ops = []
    for label, phi, bound, expected in queries:
        ops.append(Op(
            label,
            lambda phi=phi, bound=bound: decision.decide_lr2(phi, bound),
            lambda verdict, phi=phi, bound=bound, expected=expected: verify(phi, bound, expected, verdict),
        ))
    return Workload(ops)


# ---------------------------------------------------------------------------
# census: cold-cache structural census


def _random_rooted_s41(rng, n):
    """A rooted S4.1 frame on n worlds: root 0 below a random order, with an
    occasional two-world cluster."""
    from roachkit import frames

    while True:
        pairs = [(0, j) for j in range(1, n)]
        pairs += [(i, j) for i in range(1, n) for j in range(i + 1, n) if rng.random() < 0.3]
        if rng.random() < 0.3:
            i = rng.randrange(1, n - 1)
            pairs += [(i, i + 1), (i + 1, i)]
        frame = frames.normalize_frame(pairs, n)
        if checks.is_rooted_s41(frame.up):
            return frame


# census validity scans cover at most 2^12 valuations (k variables on n worlds
# with k * n <= 12); decide holds the big scans
MAX_VALIDITY_BITS = 12


def _census(rng, scale):
    from roachkit import construct, formulas, frames, morphisms, roach, semantics

    tiny = scale == "tiny"
    # frame checks run on every rooted S4.1 class below max_size worlds, a
    # seeded sample of those with max_size worlds, and random larger frames;
    # all 639 seven-world classes would make a round too long to repeat
    max_size, max_valid, n_top, n_random, random_sizes = (
        (5, 3, 8, 2, (6, 7)) if tiny else (7, 6, 64, 24, (8, 9)))
    configs = [roach.builtin(name) for name in ("F1", "F2", "F3")]
    validity = [formulas.axiom("bd", k) for k in range(1, 5)] + [formulas.axiom("ma"), formulas.axiom("ga")]
    validity_vars = [len(formulas.variables(phi)) for phi in validity]
    extra = [_random_rooted_s41(rng, random_sizes[i % 2]) for i in range(n_random)]
    sample_rng = random.Random(rng.random())

    def check_map(pm, source, target):
        if pm.source != source or pm.target != target:
            return "morphism has the wrong source or target"
        if morphisms.check_p_morphism(pm, require_onto=True) is not None:
            return "morphism fails check_p_morphism"
        if not checks.is_onto_p_morphism(source.up, target.up, pm.mapping):
            return "morphism fails the forth/back/onto re-check"
        return None

    def frame_checks(frame):
        cert = roach.is_2_roach(frame)
        found = [morphisms.is_permissible(c, frame) for c in configs]
        if cert is None:
            return cert, found, roach.minimal_forbidden_witness(frame)
        return cert, found, construct.roach_to_willow(frame)

    def verify_frame(frame, result):
        cert, found, extra_result = result
        if (cert is not None) == any(p is not None for p in found):
            return "2-roach recognition disagrees with permissibility of F1/F2/F3"
        if (cert is not None) != checks.is_2_roach_shape(frame.up):
            return "2-roach recognition disagrees with the direct shape check"
        for config, p in zip(configs, found):
            if p is not None:
                sub, _ = frames.generated_subframe(frame, p.generator)
                problem = check_map(p.morphism, sub, config)
                if problem:
                    return f"permissibility witness: {problem}"
        if cert is None:
            sub, _ = frames.generated_subframe(frame, extra_result.generator)
            problem = check_map(extra_result.morphism, sub, roach.builtin(extra_result.which))
            return f"forbidden witness: {problem}" if problem else None
        problem = check_map(extra_result.morphism, extra_result.tree, frame)
        if problem:
            return f"willow map: {problem}"
        if roach.is_willow_tree(extra_result.tree) is None:
            return "willow construction is not a willow tree"
        return None

    classes = {}

    def enumerate_size(n):
        classes[n] = list(frames.enumerate_frames(n, "all", ceiling=max_size))
        return len(classes[n])

    def verify_count(n, count):
        if count != checks.A001930[n - 1]:
            return f"{count} classes on {n} worlds, expected {checks.A001930[n - 1]}"
        return None

    def ops():
        for n in range(1, max_size + 1):
            yield Op(f"enumerate/{n}", lambda n=n: enumerate_size(n),
                     lambda count, n=n: verify_count(n, count))
        # the class lists below exist once the enumeration ops have run
        targets = [f for n in range(1, max_size + 1) for f in classes[n] if checks.is_rooted_s41(f.up)]
        top = [i for i, f in enumerate(targets) if f.size == max_size]
        skipped = set(top) - set(sample_rng.sample(top, n_top))
        for i, frame in enumerate(targets):
            if i not in skipped:
                yield Op(f"frame/{frame.size}", lambda f=frame: frame_checks(f),
                         lambda r, f=frame: verify_frame(f, r))
        for frame in extra:
            yield Op(f"random/{frame.size}", lambda f=frame: frame_checks(f),
                     lambda r, f=frame: verify_frame(f, r))
        for n in range(1, max_valid + 1):
            # small spaces only, so these ops weigh the scanner's per-call cost
            picked = [i for i, k in enumerate(validity_vars) if k * n <= MAX_VALIDITY_BITS]
            for frame in classes[n]:
                if checks.is_rooted(frame.up):
                    yield Op(f"validity/{n}",
                             lambda f=frame, picked=picked: tuple(
                                 semantics.frame_validates(f, validity[i]) for i in picked),
                             lambda r, f=frame, picked=picked: _check_validity(f, picked, r))

    return Workload(ops())


def _check_validity(frame, picked, result):
    expected = checks.expected_validity(frame.up)
    if result != tuple(expected[i] for i in picked):
        return f"validity {result} differs from the frame conditions"
    return None


# ---------------------------------------------------------------------------
# cli: fresh-interpreter command runs

CLI_COMMANDS = (
    ("check", ["check", "builtin:F3"]),
    ("validate", ["validate", "builtin:two_fork", "--formula", "<>[]p->[]<>p"]),
    ("decide", ["decide", "--formula", "<>[]p->[]<>p", "--bound", "4"]),
    ("witness", ["witness", "builtin:G", "--json"]),
    ("enumerate", ["enumerate", "--size", "5", "--filter", "2-roach", "--count"]),
    ("ordinal-classify", ["ordinal-classify", "w^w + w^2*3 + 1"]),
)


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _cli(rng, traced):
    with open(os.path.join(HERE, "cli_expected.json"), encoding="utf-8") as handle:
        expected = json.load(handle)
    env = cli_env()
    trace = CliTrace() if traced else None

    def invoke(argv):
        returncode, stdout, stderr = run_cli(argv, env, shim=traced)
        if traced:
            summary = parse_shim_summary(stderr)
            if summary is not None:
                tracing.add_tallies(trace.tally, summary["tally"])
                trace.phases["cli.import_s"].append(summary["import_s"])
                trace.phases["cli.main_s"].append(summary["main_s"])
        return returncode, stdout

    # one command of each kind per round: short rounds give each command many
    # tries within a run (see run.fastest_ops)
    commands = list(CLI_COMMANDS)
    rng.shuffle(commands)
    ops = [Op(label, lambda argv=argv: invoke(argv),
              lambda result, label=label: _check_cli(result, expected[label]))
           for label, argv in commands]
    return Workload(ops, cli_trace=trace)


def _check_cli(result, expected_stdout):
    returncode, stdout = result
    if returncode != 0:
        return f"exit code {returncode}"
    if stdout != expected_stdout:
        return f"stdout {stdout!r} differs from the recorded {expected_stdout!r}"
    return None


def parse_shim_summary(stderr: str):
    for line in reversed(stderr.splitlines()):
        if line.startswith(tracing.SHIM_MARK):
            return json.loads(line[len(tracing.SHIM_MARK):])
    return None


def run_cli(argv, env, shim: bool):
    """One command in a fresh interpreter; returns (exit code, stdout, stderr).
    The shim runs the same command with spans recorded."""
    if shim:
        cmd = [sys.executable, os.path.join(HERE, "cli_shim.py"), *argv]
    else:
        cmd = [sys.executable, "-m", "roachkit.cli", *argv]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr
