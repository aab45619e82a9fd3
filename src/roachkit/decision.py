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
from .semantics import DEFAULT_BUDGET, Model, _least_refuted_world, find_refutation

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
def _schemata() -> tuple:
    """The axioms of ``lr2_axioms``, built on first use."""
    return tuple(lr2_axioms())


def _axiom_instance(phi: fm.Formula) -> bool:
    """Whether ``phi`` is a substitution instance of ma or of some chi_F.

    ``phi`` is matched against each schema on an explicit stack, node type
    by node type, down to the schema's variables.  Only when the shape fits
    are ``phi``'s nodes interned as ``(kind, operand ids)``, so that equal
    subtrees get one id; the match holds when each schema variable is bound
    to one id at all its occurrences.  No formula tree is compared with
    ``==``, so nothing recurses on ``phi``'s depth."""
    ids = None
    for schema in _schemata():
        binding, stack = {}, [(schema, phi)]
        while stack:
            s, f = stack.pop()
            kind = type(s)
            if kind is fm.Var:
                binding.setdefault(s.name, []).append(f)
            elif kind is type(f):
                stack += ((getattr(s, name), getattr(f, name)) for name in kind.__match_args__)
            else:
                break
        else:
            if ids is None:
                ids, keys = {}, {}
                for f in fm.postorder(phi):
                    kind = type(f)
                    key = (kind, f.name) if kind is fm.Var else (
                        kind, *(ids[id(getattr(f, name))] for name in kind.__match_args__))
                    ids[id(f)] = keys.setdefault(key, len(keys))
            if all(len({ids[id(f)] for f in fs}) == 1 for fs in binding.values()):
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
    ``phi`` is such an instance (``_axiom_instance``, a syntactic match) or
    has a closed S4 tableau; the verdict still claims only the bounded
    search.  A frame formula is an axiom exactly when its frame is F1, F2
    or F3, so its frame is compared and neither the match nor the tableau
    is tried on it.  Neither is tried either when some scan up to the bound
    would exceed the scan's budget, so such a query raises as the scan
    would.

    The frame formula of a rooted frame F (recognized by
    ``formulas.jankov_frame``) is valid on G exactly when F is not an onto
    p-morphic image of a point-generated subframe of G, so a 2-roach G for
    which ``morphisms.is_permissible(F, G)`` finds no such image is skipped
    unscanned.  When it finds one, G is scanned as any other frame, so the
    verdict is the one the scan alone would give.  Only when G has more
    valuations than the scan's budget is the countermodel read off the map
    instead (see ``_refutation_by_map``); any other formula too big to scan
    raises ``BudgetExceededError``.

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
                else 1 << len(fm.variables(phi)) * bound <= DEFAULT_BUDGET
                and (_axiom_instance(phi) or _tableau.s4_valid(phi))):
            return NoCountermodelUpTo(bound)
        frames = enumerate_frames(size, "2-roach", ceiling=DECISION_CEILING)
        if config is not None:
            frames = (frame for frame in frames if morphisms.is_permissible(config, frame))
        for frame in frames:
            try:
                found = find_refutation(frame, phi)
            except BudgetExceededError:
                # the map of the permissibility check gives the countermodel
                witness = None if config is None else morphisms.is_permissible(config, frame)
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
