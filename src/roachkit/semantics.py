"""Kripke model checking over finite frames and brute-force frame validity.

Boxes read as Alexandroff interior, diamonds as closure: the extension of
``[]phi`` is the set of worlds whose whole upset satisfies ``phi``, and
``<>phi`` holds wherever some successor satisfies ``phi``.

Frame validity enumerates every valuation.  One kernel does it:
``_scan_py.find_refuting_index``, a chunked bit-parallel scan on Python big
integers that returns the least refuting valuation index of one frame.  It
needs no build step and no compiler.
"""

from __future__ import annotations

from collections import OrderedDict

from ._record import record
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


@record
class Model:
    frame: Frame
    valuation: dict

    def __post_init__(self):
        # checked before any bit shift: a negative world would raise
        # ValueError, a huge one exhaust memory, and True would read as 1;
        # a dict would pass its keys off as the worlds
        size = self.frame.size
        for name, worlds in self.valuation.items():
            if not isinstance(worlds, (set, frozenset, list, tuple)):
                raise FrameFormatError(f"valuation of {name!r} is {worlds!r}, not a set of worlds")
            for w in worlds:
                if type(w) is not int or not 0 <= w < size:
                    raise FrameFormatError(
                        f"valuation of {name!r} mentions {w!r}, not a world of 0..{size - 1}"
                    )


def extension_mask(model: Model, phi: fm.Formula) -> int:
    return _extension_mask(model.frame, model.valuation, phi)


def _extension_mask(frame, valuation, phi):
    """``extension_mask`` of a valuation already known to name only worlds
    of the frame, with no ``Model`` built to check it."""
    full, up = (1 << frame.size) - 1, frame.up
    mask = {}  # id of each node visited -> its extension
    for node in fm.postorder(phi):
        kind = type(node)
        if kind is fm.Var:
            result = mask_of(valuation.get(node.name, ()))
        elif kind is fm.Implies:
            result = (full & ~mask[id(node.left)]) | mask[id(node.right)]
        elif kind is fm.And:
            result = mask[id(node.left)] & mask[id(node.right)]
        elif kind is fm.Box:
            sub, result = mask[id(node.operand)], 0
            for w, row in enumerate(up):
                if row & sub == row:
                    result |= 1 << w
        elif kind is fm.Diamond:
            sub, result = mask[id(node.operand)], 0
            for w, row in enumerate(up):
                if row & sub:
                    result |= 1 << w
        elif kind is fm.Or:
            result = mask[id(node.left)] | mask[id(node.right)]
        elif kind is fm.Not:
            result = full & ~mask[id(node.operand)]
        elif kind is fm.Top:
            result = full
        elif kind is fm.Bot:
            result = 0
        else:
            raise TypeError(f"not a formula: {node!r}")
        mask[id(node)] = result
    return result  # the root comes last


def extension(model: Model, phi: fm.Formula) -> set[int]:
    """Worlds where the formula holds; unassigned variables read as empty."""
    return set(worlds_of(extension_mask(model, phi)))


def _decode_valuation(index: int, variables, n_worlds: int) -> dict:
    valuation, full = {}, (1 << n_worlds) - 1
    for name in variables:
        if index & full:
            valuation[name] = set(worlds_of(index & full))
        index >>= n_worlds
    return valuation


# The programs of the latest few formulas that find_refutation compiled,
# keyed by formula identity and compiler, the oldest evicted first.  A query
# such as decide_lr2 scans one formula on many frames, and a census cycles
# through a handful, so a few entries save recompiling per frame.  Formulas
# are frozen, and each entry keeps a strong reference to its formula, so its
# id is not reused while the entry lives; keying on the compiler as well
# picks up a replaced ``compile_formula``.  The bound keeps a long run from
# holding every program it compiled.  An entry is one tuple, and eviction is
# one ``popitem`` call, so a thread never reads a formula with another's
# program nor sees the dictionary change in the middle of an eviction.
_PROGRAM_CACHE_SIZE = 8
_programs: OrderedDict = OrderedDict()


def _program(phi):
    key = (id(phi), compile_formula)
    entry = _programs.get(key)
    if entry is None:
        if len(_programs) >= _PROGRAM_CACHE_SIZE:
            _programs.popitem(last=False)
        entry = _programs[key] = (phi, compile_formula(phi))
    return entry[1]


def _least_refuted_world(frame, phi, valuation):
    """The least world of ``frame`` where ``valuation`` refutes ``phi``, or
    None when it refutes it nowhere.  The valuation comes from the scan or
    from a p-morphism, so it names only worlds of the frame, and the one
    ``Model`` built is the verdict's."""
    missing = ((1 << frame.size) - 1) ^ _extension_mask(frame, valuation, phi)
    return (missing & -missing).bit_length() - 1 if missing else None


def find_refutation(frame: Frame, phi: fm.Formula, budget: int = DEFAULT_BUDGET):
    """Least refuting (valuation, world) pair, or None when valid.

    Raises BudgetExceededError when the valuation space is larger than the
    budget.  This always scans; ``decision.decide_lr2`` decides a frame
    formula on a frame by the morphism search first and scans only frames
    that refute it.
    """
    program = _program(phi)
    total = 1 << (program.n_vars * frame.size)
    if total > budget:
        raise BudgetExceededError(f"{program.n_vars} variables on {frame.size} worlds needs"
                                  f" {total} valuations (budget {budget})")
    index = _scan(frame.up, frame.size, program)
    if index < 0:
        return None
    valuation = _decode_valuation(index, program.variables, frame.size)
    world = _least_refuted_world(frame, phi, valuation)
    if world is None:
        raise AssertionError(f"valuation {index} of the scan refutes the formula at no world")
    return valuation, world


def frame_validates(frame: Frame, phi: fm.Formula) -> bool:
    """True when the formula holds at every world under every valuation."""
    return find_refutation(frame, phi) is None
