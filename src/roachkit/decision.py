"""The axioms of the logic of 2-roaches and a bounded countermodel search.

The logic is axiomatized over S4 by the McKinsey axiom plus the frame
formulas of the three minimal forbidden configurations.  It has the finite
model property, which justifies searching 2-roaches by size; no effective
size bound is known, so a clean search up to the bound is reported as
``NoCountermodelUpTo`` rather than as validity.
"""

from __future__ import annotations

from itertools import islice

from ._record import record
from . import formulas as fm
from . import _tableau, morphisms, roach
from .errors import BudgetExceededError, CeilingExceededError
from .frames import enumerate_frames
from .semantics import (DEFAULT_BUDGET, Model, _least_refuted_world, batch_size,
                        find_batch_refutation, find_refutation)

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
    return [fm.axiom("ma")] + [
        fm.fine_jankov(roach.builtin(name)) for name in roach.FORBIDDEN_NAMES
    ]


def decide_lr2(phi: fm.Formula, bound: int) -> Verdict:
    """Search 2-roaches of up to ``bound`` worlds for a countermodel.

    A ``Refuted`` verdict is sound unconditionally.  ``NoCountermodelUpTo``
    only reports a clean bounded search; it is not a theoremhood claim.

    Every S4 theorem lies in the logic, so no 2-roach refutes it.  Once the
    one-world frame scans clean, a closed S4 tableau for ``phi`` ends the
    search with ``NoCountermodelUpTo(bound)``, the verdict the scan would
    give; the verdict still claims only the bounded search.  The proof is
    not tried for frame formulas, nor when some scan up to the bound would
    exceed the scan's budget, so such a query raises as the scan would.

    The frame formula of a rooted frame F (recognized by
    ``formulas.jankov_frame``) is valid on G exactly when F is not an onto
    p-morphic image of a point-generated subframe of G, so a 2-roach G for
    which ``morphisms.is_permissible(F, G)`` finds no such image is skipped
    unscanned.  When it finds one, G is scanned as any other frame, so the
    verdict is the one the scan alone would give.  Only when G has more
    valuations than the scan's budget is the countermodel read off the map
    instead (see ``_refutation_by_map``); any other formula too big to scan
    raises ``BudgetExceededError``.

    The first frame of a size is scanned alone, so a query refuted there
    pays for no batch; the rest go in batches of ``batch_size``, each in one
    pass of the scanner, and a batch of one goes through ``find_refutation``.
    The verdict is the one of scanning frame by frame in enumeration order.
    """
    if bound < 1 or bound > DECISION_CEILING:
        raise CeilingExceededError(f"bound must lie in 1..{DECISION_CEILING}")
    config = fm.jankov_frame(phi)
    for size in range(1, bound + 1):
        if (size == 2 and config is None and 1 << len(fm.variables(phi)) * bound <= DEFAULT_BUDGET
                and _tableau.s4_valid(phi)):
            return NoCountermodelUpTo(bound)
        frames = iter(enumerate_frames(size, "2-roach", ceiling=DECISION_CEILING))
        if config is not None:
            frames = (frame for frame in frames if morphisms.is_permissible(config, frame))
        per_pass = 1
        for frame in frames:
            batch = [frame, *islice(frames, per_pass - 1)]
            if len(batch) > 1:
                found = find_batch_refutation(batch, phi)
            else:
                try:
                    found = find_refutation(frame, phi)
                except BudgetExceededError:
                    # the map of the permissibility check gives the countermodel
                    witness = None if config is None else morphisms.is_permissible(config, frame)
                    found = None if witness is None else _refutation_by_map(frame, phi, witness)
                    if found is None:
                        raise
                found = found and (frame, *found)
            if found is not None:
                frame, valuation, world = found
                return Refuted(Model(frame, valuation), world)
            per_pass = batch_size(phi, size)
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
