"""S4 validity by a tableau: ``s4_valid(phi)`` is True only when the
negation-normal form of ``~phi`` has no open tableau.

A set of formulas is saturated by the rules for ``&``, ``|`` (branching)
and T (``[]A`` adds ``A``); it closes on ``F`` or on a formula and its
negation.  A saturated set with ``<>A`` has the successor ``{A}`` plus its
``[]``-formulas (the pi rule of S4), and it closes when one of its
successors does.  A set closes when each of its saturations closes.
Fitting, *Proof Methods for Modal and Intuitionistic Logics* (1983); Goré,
"Tableau methods for modal and temporal logics" (1999).

A successor that lies inside a saturated set on its path (its parent's
included) is blocked and counts as open.  Along a path the ``[]``-formulas
only grow, and a successor holds all of its parent's, so only the ancestors
with the same ``[]``-formulas can hold it, and it lies inside one of them
exactly when that one holds its ``A``.  Closed sets are cached for the one
call.  A set closed under one history is closed under any, so a block or a
cache hit can cost completeness, never soundness.

NNF(~phi) is built from ``phi``'s compiled program, the one the scanner
runs, one pair of nodes (the slot's NNF and its negation's) per slot.  A
node is an ``(op code, operand node, ...)`` tuple, a literal being
``OP_VAR`` or ``OP_NOT`` over a variable index, and it is interned, so no
formula tree is hashed or walked by recursion, and the search runs on an
explicit stack of generators.  Once the sets it has saturated hold
``_STEP_BUDGET`` formulas in all, it gives up, and ``s4_valid`` answers
False.
"""

from __future__ import annotations

from collections import Counter

from . import formulas as fm
from ._program import OP_AND, OP_BOT, OP_BOX, OP_DIA, OP_IMP, OP_NOT, OP_OR, OP_TOP, OP_VAR, reads
from .errors import BudgetExceededError
from .semantics import _program

# formulas held by the sets saturated so far, summed; a search that reaches
# this gives up, within about 0.1 s on a 2-core host
_STEP_BUDGET = 200_000

# the op code of the negation of each connective's NNF node
_DUAL = {OP_AND: OP_OR, OP_OR: OP_AND, OP_BOX: OP_DIA, OP_DIA: OP_BOX,
         OP_TOP: OP_BOT, OP_BOT: OP_TOP}


def _negated_nnf(program):
    """The id of NNF(~phi) for ``phi``'s program, the interned nodes, and
    each node's negation."""
    ids, nodes, negation, signed = {}, [], {}, []

    def node(*key):
        if key not in ids:
            ids[key] = len(nodes)
            nodes.append(key)
        return ids[key]

    for op, a, b in program.ops:
        if op == OP_VAR:
            pair = node(OP_VAR, a), node(OP_NOT, a)
        elif op == OP_NOT:
            pair = signed[a][::-1]
        else:  # NNF and its negation from the operands' pairs
            args = [signed[s] for s in reads(op, a, b)]
            if op == OP_IMP:
                op, args[0] = OP_OR, args[0][::-1]
            pair = node(op, *(x for x, _ in args)), node(_DUAL[op], *(nx for _, nx in args))
        signed.append(pair)
        negation[pair[0]], negation[pair[1]] = pair[1], pair[0]
    return signed[-1][1], nodes, negation


def s4_valid(phi: fm.Formula) -> bool:
    """True when a closed tableau shows ``phi`` valid on every S4 frame;
    False when it is not, or when the node budget runs out first."""
    root, nodes, negation = _negated_nnf(_program(phi))
    closed, levels, spent = set(), [], 0

    def saturations(start):
        """Each saturated consistent superset of ``start``, one per choice
        of disjuncts; a branch that clashes yields nothing."""
        nonlocal spent
        branches = [(set(), list(start))]
        while branches:
            done, todo = branches.pop()
            while todo:
                f = todo.pop()
                if f in done:
                    continue
                kind = nodes[f][0]
                if kind == OP_BOT or negation[f] in done:
                    break
                done.add(f)
                if kind == OP_AND or kind == OP_BOX:
                    todo += nodes[f][1:]
            else:
                split = next((nodes[f] for f in done if nodes[f][0] == OP_OR
                              and nodes[f][1] not in done and nodes[f][2] not in done), None)
                if split is None:
                    yield frozenset(done)
                else:
                    branches += ((set(done), [split[2]]), (done, [split[1]]))
            spent += len(done)
            if spent > _STEP_BUDGET:
                raise BudgetExceededError

    def refute(start):
        """Whether ``start`` closes; it yields each successor set to be
        searched and receives whether that closed."""
        for gamma in saturations(start):
            boxes = frozenset(f for f in gamma if nodes[f][0] == OP_BOX)
            fresh = not levels or levels[-1][0] != boxes
            if fresh:
                levels.append((boxes, Counter()))
            seen = levels[-1][1]
            seen.update(gamma)
            shut = False
            for f in gamma:
                if nodes[f][0] == OP_DIA and not seen[nodes[f][1]]:
                    successor = boxes | {nodes[f][1]}
                    if successor in closed or (yield successor):
                        shut = True
                        break
            seen.subtract(gamma)
            if fresh:
                levels.pop()
            if not shut:
                return False
        closed.add(start)
        return True

    stack, result = [refute(frozenset([root]))], None
    try:
        while stack:
            try:
                successor = stack[-1].send(result)
            except StopIteration as stop:
                stack.pop()
                result = stop.value
            else:
                stack.append(refute(successor))
                result = None
    except BudgetExceededError:
        return False
    return result
