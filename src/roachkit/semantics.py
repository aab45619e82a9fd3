"""Kripke model checking over finite frames and brute-force frame validity.

Boxes read as Alexandroff interior, diamonds as closure: the extension of
``[]phi`` is the set of worlds whose whole upset satisfies ``phi``, and
``<>phi`` holds wherever some successor satisfies ``phi``.

Frame validity enumerates every valuation.  One kernel does it:
``_scan_py.find_refuting_index``, a chunked bit-parallel scan on Python big
integers that returns the least refuting valuation index.  It needs no
build step and no compiler.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import formulas as fm
from ._program import compile_formula
from . import _scan_py
from .errors import BudgetExceededError, FrameFormatError
from .frames import Frame, mask_of, worlds_of

DEFAULT_BUDGET = 1 << 26

# the one validity kernel; the benchmark harness records this name
BACKEND_NAME = "pure"


# _unused: callers that wrap this seam may still pass a fourth argument
def _scan(up, n_worlds, program, _unused=None):
    return _scan_py.find_refuting_index(up, n_worlds, program)


@dataclass(frozen=True)
class Model:
    frame: Frame
    valuation: dict = field(default_factory=dict)

    def __post_init__(self):
        full = (1 << self.frame.size) - 1
        for name, worlds in self.valuation.items():
            if mask_of(worlds) & ~full:
                raise FrameFormatError(f"valuation of {name!r} mentions out-of-range worlds")


def extension_mask(model: Model, phi: fm.Formula) -> int:
    frame = model.frame
    full = (1 << frame.size) - 1
    memo = {}

    def go(node) -> int:
        if node in memo:
            return memo[node]
        match node:
            case fm.Var(name=name):
                result = mask_of(model.valuation.get(name, ()))
            case fm.Top():
                result = full
            case fm.Bot():
                result = 0
            case fm.Not(operand=op):
                result = full & ~go(op)
            case fm.And(left=a, right=b):
                result = go(a) & go(b)
            case fm.Or(left=a, right=b):
                result = go(a) | go(b)
            case fm.Implies(left=a, right=b):
                result = (full & ~go(a)) | go(b)
            case fm.Box(operand=op):
                sub = go(op)
                result = mask_of(w for w in frame.worlds() if frame.up[w] & ~sub == 0)
            case fm.Diamond(operand=op):
                sub = go(op)
                result = mask_of(w for w in frame.worlds() if frame.up[w] & sub)
            case _:
                raise TypeError(f"not a formula: {node!r}")
        memo[node] = result
        return result

    return go(phi)


def extension(model: Model, phi: fm.Formula) -> set[int]:
    """Worlds where the formula holds; unassigned variables read as empty."""
    return set(worlds_of(extension_mask(model, phi)))


def _decode_valuation(index: int, variables, n_worlds: int) -> dict:
    valuation = {}
    for v, name in enumerate(variables):
        worlds = {i for i in range(n_worlds) if (index >> (v * n_worlds + i)) & 1}
        if worlds:
            valuation[name] = worlds
    return valuation


# (formula, compiler, program) of the latest find_refutation call.  A query
# such as decide_lr2 scans one formula on many frames, so this one entry
# saves recompiling it per frame.  Formulas are frozen, and the strong
# reference keeps the cached formula's id from being reused; keying on the
# compiler as well picks up a replaced ``compile_formula``.  The entry is one
# tuple so that a thread never reads a formula with another's program.
_last_compiled = (None, None, None)


def find_refutation(frame: Frame, phi: fm.Formula, budget: int = DEFAULT_BUDGET):
    """Least refuting (valuation, world) pair, or None when valid.

    Raises BudgetExceededError when the valuation space is larger than the
    budget; callers holding a rooted target can fall back to the Fine-Jankov
    route through the morphism search instead.
    """
    global _last_compiled
    cached_phi, cached_compiler, program = _last_compiled
    if phi is not cached_phi or compile_formula is not cached_compiler:
        program = compile_formula(phi)
        _last_compiled = (phi, compile_formula, program)
    total = 1 << (program.n_vars * frame.size)
    if total > budget:
        raise BudgetExceededError(
            f"{program.n_vars} variables on {frame.size} worlds needs {total} valuations"
            f" (budget {budget})"
        )
    index = _scan(frame.up, frame.size, program)
    if index < 0:
        return None
    valuation = _decode_valuation(index, program.variables, frame.size)
    holds = extension_mask(Model(frame, valuation), phi)
    full = (1 << frame.size) - 1
    missing = full & ~holds
    world = (missing & -missing).bit_length() - 1
    return valuation, world


def frame_validates(frame: Frame, phi: fm.Formula, budget: int = DEFAULT_BUDGET) -> bool:
    """True when the formula holds at every world under every valuation."""
    return find_refutation(frame, phi, budget=budget) is None
