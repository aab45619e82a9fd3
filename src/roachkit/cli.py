"""Command-line front end.

Frames are passed as ``builtin:<name>`` (e.g. ``builtin:F3``, ``builtin:T2``,
``builtin:chain4``), a path to a frame JSON file, or ``-`` for stdin.  Exit
codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import construct, decision, formulas as fm, morphisms as M
from . import frames as F
from . import ordinals as O
from . import roach as R
from . import semantics as S
from .errors import PreconditionError, RoachkitError

# a built-in frame name; the size of T<n> and chain<k> is 1 to 9 ASCII
# digits: any longer one is far above the frame limit, and int() refuses more
# than 4,300 digits
_BUILTIN_RE = re.compile(r"(?:F1|F2|F3|G|point|two_fork|(T|chain)([0-9]{1,9}))$")

# largest frame ``fine-jankov`` prints the formula of: an n-world frame formula
# has 2n^2 - n + 1 clauses, about 142 KB of text at 64 worlds and 6 MB at 400
_FINE_JANKOV_CEILING = 64


def resolve_frame(arg: str, strict: bool = False) -> F.Frame:
    name = arg.removeprefix("builtin:")
    match = _BUILTIN_RE.match(name)
    if name != arg or (match and not os.path.exists(arg)):
        if match and match.group(1):
            return R.builtin(match.group(1), int(match.group(2)))
        return R.builtin(name)
    if arg == "-":
        return F.frame_from_json(sys.stdin.read(), strict)
    with open(arg, "r", encoding="utf-8") as handle:
        return F.frame_from_json(handle.read(), strict)


def _emit(args, payload, text: str) -> int:
    """Print the JSON payload under ``--json`` and the text otherwise; exit 0."""
    print(json.dumps(payload) if args.json else text)
    return 0


def cmd_check(args) -> int:
    frame = resolve_frame(args.frame, args.strict)
    # a splitting point of depth <= n has depth <= n + 1, so R1 in R2 in ... in
    # R5, and the least bound with a certificate settles every class
    for n in range(1, 6):
        cert = R.splitting_certificate(frame, n)
        if cert is not None:
            break
    memberships = {f"R{n}": cert is not None and cert.bound <= n for n in range(1, 6)}
    classes = [name for name, member in memberships.items() if member]
    willow = R.is_willow_tree(frame)
    payload = {"memberships": memberships, "willow": willow is not None}
    lines = ["2-roach" if memberships["R2"] else "not a 2-roach",
             "classes: " + (", ".join(classes) if classes else "(none up to R5)")]
    if cert is not None:
        payload["splitting_point"] = cert.s
        payload["t_map"] = list(cert.t)
        lines.append(f"splitting point: {frame.label(cert.s)} (world {cert.s})")
    if willow is not None:
        payload["willow_splitting_point"] = willow.s
    lines.append("willow tree" if willow is not None else "not a willow tree")
    if not memberships["R2"]:
        lines.append("forbidden-configuration witness available: run the witness command")
    return _emit(args, payload, "\n".join(lines))


def cmd_witness(args) -> int:
    frame = resolve_frame(args.frame, args.strict)
    witness = R.minimal_forbidden_witness(frame)
    mapping = list(witness.morphism.mapping)
    payload = {
        "which": witness.which,
        "generator": witness.generator,
        "embedding": list(witness.embedding),
        "map": mapping,
        "target": F.frame_to_dict(witness.morphism.target),
    }
    return _emit(args, payload,
                 f"forbidden configuration {witness.which} is a p-morphic image of the "
                 f"subframe generated at world {witness.generator}\n"
                 f"map (subframe world -> {witness.which} world): {mapping}")


def cmd_morphism_find(args) -> int:
    source = resolve_frame(args.source, args.strict)
    target = resolve_frame(args.target, args.strict)
    pm = M.find_onto_p_morphism(source, target)
    if pm is None:
        return _emit(args, {"map": None}, "none")
    return _emit(args, {"map": list(pm.mapping)}, " ".join(map(str, pm.mapping)))


def cmd_permissible(args) -> int:
    config = resolve_frame(args.config, args.strict)
    host = resolve_frame(args.host, args.strict)
    found = M.is_permissible(config, host)
    if found is None:
        return _emit(args, {"witness": None}, "none")
    mapping = list(found.morphism.mapping)
    payload = {"generator": found.generator, "embedding": list(found.embedding), "map": mapping}
    return _emit(args, {"witness": payload},
                 f"permissible: generator {found.generator}, map {mapping}")


def cmd_eval(args) -> int:
    frame = resolve_frame(args.frame, args.strict)
    phi = fm.parse(args.formula)
    valuation = {}
    if args.valuation:
        try:
            valuation = json.loads(args.valuation)
        except (ValueError, RecursionError) as exc:
            raise RoachkitError(f"invalid JSON: {exc}") from None
        # the worlds in each list are checked by Model
        if not isinstance(valuation, dict) or not all(
                isinstance(worlds, list) for worlds in valuation.values()):
            raise RoachkitError('valuation must look like {"p": [0, 2]}')
    result = sorted(S.extension(S.Model(frame, valuation), phi))
    return _emit(args, result, " ".join(map(str, result)) or "(empty)")


def cmd_validate(args) -> int:
    frame = resolve_frame(args.frame, args.strict)
    phi = fm.parse(args.formula)
    refutation = S.find_refutation(frame, phi)
    if refutation is None:
        return _emit(args, {"valid": True}, "valid")
    valuation, world = refutation
    worlds = {k: sorted(v) for k, v in valuation.items()}
    shown = ", ".join(f"{k}: {v}" for k, v in worlds.items())
    return _emit(args, {"valid": False, "valuation": worlds, "world": world},
                 f"invalid at world {world} under {{{shown}}}")


def cmd_fine_jankov(args) -> int:
    frame = resolve_frame(args.frame, args.strict)
    if frame.size > _FINE_JANKOV_CEILING:
        raise PreconditionError(
            f"fine-jankov takes frames of at most {_FINE_JANKOV_CEILING} worlds, not {frame.size}")
    formula = fm.render(fm.fine_jankov(frame))
    return _emit(args, {"formula": formula}, formula)


def cmd_unravel(args) -> int:
    frame = resolve_frame(args.frame, args.strict)
    if args.mode == "willow":
        result = construct.roach_to_willow(frame)
    else:
        result = construct.unravel_to_quasi_tree(frame)
    print(json.dumps({"tree": F.frame_to_dict(result.tree), "map": list(result.morphism.mapping)}))
    return 0


def cmd_decide(args) -> int:
    phi = fm.parse(args.formula)
    verdict = decision.decide_lr2(phi, args.bound)
    if not isinstance(verdict, decision.Refuted):
        return _emit(args, {"verdict": "no-countermodel", "bound": verdict.bound},
                     f"NoCountermodelUpTo({verdict.bound})")
    model, world = verdict.model, verdict.world
    frame = F.frame_to_dict(model.frame)
    valuation = {k: sorted(v) for k, v in model.valuation.items()}
    payload = {"verdict": "refuted", "frame": frame, "valuation": valuation, "world": world}
    return _emit(args, payload,
                 f"Refuted on a {model.frame.size}-world 2-roach at world {world}\n"
                 f"{json.dumps(frame)}\nvaluation: {json.dumps(valuation)}")


def cmd_enumerate(args) -> int:
    count = 0
    for frame in F.enumerate_frames(args.size, args.filter):
        count += 1
        if not args.count:
            print(json.dumps(F.frame_to_dict(frame)))
    if args.count:
        print(count)
    return 0


def cmd_ordinal_classify(args) -> int:
    gamma = O.parse_ordinal(args.ordinal)
    logic = O.classify_beta_logic(gamma).describe()
    decomposition = None
    note = "compact: the compactification is the ordinal itself"
    if not gamma.least_exponent().is_zero():
        gamma_prime, a1 = O.tear_off(gamma)
        decomposition = {"gamma_prime": str(gamma_prime), "alpha_1": str(a1)}
        note = f"tear-off: gamma' = {gamma_prime}, alpha_1 = {a1}"
    return _emit(args, {"ordinal": str(gamma), "logic": logic, "tear_off": decomposition},
                 f"{logic}\n{note}")


def cmd_ordinal_logic_of(args) -> int:
    gamma = O.parse_ordinal(args.ordinal)
    logic = O.logic_of_ordinal_space(gamma).short()
    return _emit(args, {"ordinal": str(gamma), "logic": logic}, logic)


def cmd_selftest(args) -> int:
    # imported here: no other command needs the acceptance suite
    from . import acceptance

    results = acceptance.run(only=args.only)
    if args.only and not results:
        names = ", ".join(name for name, _ in acceptance.CRITERIA)
        print(f"unknown criterion {args.only!r}; known: {names}", file=sys.stderr)
        return 2
    payload = [{"name": r.name, "passed": r.passed, "detail": r.detail,
                "seconds": round(r.seconds, 3)} for r in results]
    _emit(args, payload, "\n".join(
        f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail} ({r.seconds:.2f}s)" for r in results))
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roachkit",
        description="finite-frame combinatorics: roaches, willow trees, frame formulas, "
                    "and ordinal-logic classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def frame_cmd(name, fn, help_text, needs_frame=True):
        p = sub.add_parser(name, help=help_text)
        if needs_frame:
            p.add_argument("frame", help="builtin:<name>, a JSON file path, or - for stdin")
        p.add_argument("--strict", action="store_true",
                       help="reject frame files whose relation is not already closed")
        p.set_defaults(fn=fn)
        return p

    frame_cmd("check", cmd_check, "roach-class membership with certificates")
    frame_cmd("witness", cmd_witness, "minimal forbidden configuration with its morphism")

    p = frame_cmd("morphism-find", cmd_morphism_find, "search for an onto p-morphism",
                  needs_frame=False)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)

    p = frame_cmd("permissible", cmd_permissible,
                  "is the config an image of a generated subframe of the host?",
                  needs_frame=False)
    p.add_argument("--config", required=True)
    p.add_argument("--host", required=True)

    p = frame_cmd("eval", cmd_eval, "extension of a formula in a model")
    p.add_argument("--formula", required=True)
    p.add_argument("--valuation", help='JSON like {"p": [0, 2]}')

    p = frame_cmd("validate", cmd_validate, "brute-force frame validity")
    p.add_argument("--formula", required=True)

    frame_cmd("fine-jankov", cmd_fine_jankov, "frame formula of a rooted frame")

    p = frame_cmd("unravel", cmd_unravel, "unravel into a quasi-tree or willow tree")
    p.add_argument("--mode", choices=("quasi-tree", "willow"), default="quasi-tree")

    p = sub.add_parser("decide", help="bounded countermodel search over 2-roaches")
    p.add_argument("--formula", required=True)
    p.add_argument("--bound", type=int, default=4)
    p.set_defaults(fn=cmd_decide)

    p = sub.add_parser("enumerate", help="frames up to isomorphism")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--filter", choices=F.FILTER_NAMES, default="all")
    p.add_argument("--count", action="store_true", help="print only the class count")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("ordinal-classify", help="logic of the compactified ordinal")
    p.add_argument("ordinal", help='e.g. "w^w + w^2*3 + 1"')
    p.set_defaults(fn=cmd_ordinal_classify)

    p = sub.add_parser("ordinal-logic-of", help="logic of the ordinal space itself")
    p.add_argument("ordinal")
    p.set_defaults(fn=cmd_ordinal_logic_of)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--only", help="run a single named criterion")
    p.set_defaults(fn=cmd_selftest)

    # unravel and enumerate print JSON always; the others print through _emit
    for name, p in sub.choices.items():
        if name not in ("unravel", "enumerate"):
            p.add_argument("--json", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (RoachkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
