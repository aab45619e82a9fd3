"""The axioms of the logic of 2-roaches and a bounded countermodel search.

The logic is axiomatized over S4 by the McKinsey axiom plus the frame
formulas of the three minimal forbidden configurations.  It has the finite
model property, which justifies searching 2-roaches by size; no effective
size bound is known, so a clean search up to the bound is reported as
``NoCountermodelUpTo`` rather than as validity.
"""

from __future__ import annotations

from functools import cache

from ._record import record
from . import formulas as fm
from . import _tableau, morphisms, roach
from .errors import BudgetExceededError, CeilingExceededError
from .frames import enumerate_frames
from ._program import OP_VAR, compile_formula, reads
from .semantics import DEFAULT_BUDGET, Model, _least_refuted_world, _program, find_refutation

DECISION_CEILING = 8


@record
class Refuted:
    model: Model
    world: int


@record
class NoCountermodelUpTo:
    bound: int


Verdict = Refuted | NoCountermodelUpTo


def lr2_axioms() -> list[fm.Formula]:
    """McKinsey plus the frame formulas of F1, F2, F3."""
    return [fm.axiom("ma")] + [fm.fine_jankov(frame) for frame in _forbidden_frames()]


@cache
def _forbidden_frames() -> tuple:
    """F1, F2, F3, built on first use."""
    return tuple(roach.builtin(name) for name in roach.FORBIDDEN_NAMES)


@cache
def _schema_programs() -> tuple:
    """The compiled axioms of ``lr2_axioms``, built on first use."""
    return tuple(compile_formula(schema) for schema in lr2_axioms())


def _axiom_instance(phi: fm.Formula) -> bool:
    """Whether ``phi`` is a substitution instance of ma or of some chi_F.

    Each schema's program is matched against ``phi``'s, the one the scan
    runs, slot by slot from the roots down, on an explicit stack, so
    nothing recurses on ``phi``'s depth.  A slot of a schema variable is
    bound to a slot of ``phi``, and since equal subformulas share a slot,
    the binding is consistent exactly when each schema variable is bound to
    one slot.  Any other schema slot needs the same op code in ``phi``, and
    their operands are then paired."""
    ops = _program(phi).ops
    for schema in _schema_programs():
        binding, stack = {}, [(len(schema.ops) - 1, len(ops) - 1)]
        while stack:
            s, f = stack.pop()
            op, a, b = schema.ops[s]
            if op == OP_VAR:
                if binding.setdefault(s, f) != f:
                    break
            elif op == ops[f][0]:
                stack += zip(reads(op, a, b), reads(*ops[f]))
            else:
                break
        else:
            return True
    return False


def decide_lr2(phi: fm.Formula, bound: int) -> Verdict:
    """Search 2-roaches of up to ``bound`` worlds for a countermodel.

    A ``Refuted`` verdict is sound unconditionally.  ``NoCountermodelUpTo``
    only reports a clean bounded search; it is not a theoremhood claim.

    Every S4 theorem and every substitution instance of an axiom of
    ``lr2_axioms`` lies in the logic, so no 2-roach refutes it.  Once the
    one-world frame scans clean, the search ends with
    ``NoCountermodelUpTo(bound)``, the verdict the scan would give, when
    ``phi`` is such an instance (``_axiom_instance``, a match of the
    axioms' compiled programs against ``phi``'s) or has a closed S4 tableau
    (``_tableau.s4_valid``, built from the same program as the scan); the
    verdict still claims only the bounded search.  A frame formula is an
    axiom exactly when its frame is F1, F2 or F3, so its frame is compared
    and neither the match nor the tableau is tried on it.  Neither is tried
    either when some scan up to the bound would exceed the scan's budget,
    so such a query raises as the scan would.

    The frame formula of a rooted frame F (recognized by
    ``formulas.jankov_frame``) is valid on G exactly when F is not an onto
    p-morphic image of a point-generated subframe of G, so a 2-roach G for
    which ``morphisms.is_permissible(F, G)`` finds no such image is skipped
    unscanned.  When it finds one, G is scanned as any other frame, so the
    verdict is the one the scan alone would give.  Only when G has more
    valuations than the scan's budget is the countermodel read off the map
    that check found (see ``_refutation_by_map``), so each 2-roach is
    searched once; any other formula too big to scan raises
    ``BudgetExceededError``.

    Each 2-roach is scanned on its own through ``find_refutation``, in
    enumeration order, so the verdict is the first refuted frame's least
    refutation.
    """
    if bound < 1 or bound > DECISION_CEILING:
        raise CeilingExceededError(f"bound must lie in 1..{DECISION_CEILING}")
    config = fm.jankov_frame(phi)
    for size in range(1, bound + 1):
        if size == 2 and (
                any(config.up == f.up for f in _forbidden_frames()) if config is not None
                else 1 << _program(phi).n_vars * bound <= DEFAULT_BUDGET
                and (_axiom_instance(phi) or _tableau.s4_valid(phi))):
            return NoCountermodelUpTo(bound)
        for frame in enumerate_frames(size, "2-roach", ceiling=DECISION_CEILING):
            witness = None if config is None else morphisms.is_permissible(config, frame)
            if config is not None and witness is None:
                continue  # chi_F is valid on the frame
            try:
                found = find_refutation(frame, phi)
            except BudgetExceededError:
                # the map of the permissibility check gives the countermodel
                found = None if witness is None else _refutation_by_map(frame, phi, witness)
                if found is None:
                    raise
            if found is not None:
                valuation, world = found
                return Refuted(Model(frame, valuation), world)
    return NoCountermodelUpTo(bound)


def _refutation_by_map(frame, phi, witness):
    """The countermodel of the frame formula ``phi`` = chi_F that the onto
    p-morphism of ``witness`` gives, as ``(valuation, least refuted world)``,
    or None should the re-check find no refuted world.

    p_w holds exactly on the worlds of the generated subframe that the map
    sends to w.  The clauses of chi_F then hold throughout the subframe, so
    at its generator the antecedent holds together with p_root.
    """
    valuation = {}
    for x, w in enumerate(witness.morphism.mapping):
        valuation.setdefault(f"p{w}", set()).add(witness.embedding[x])
    world = _least_refuted_world(frame, phi, valuation)
    return None if world is None else (valuation, world)
