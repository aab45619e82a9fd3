"""Compilation of formula ASTs into flat programs for the validity scanner.

A program is a postorder instruction list over slots, the root's last.
Equal subformulas share one slot: a node's instruction names its operands'
slots, so two nodes are equal exactly when their instructions are, and the
compiler looks instructions up instead of hashing formula subtrees.  The
program is the one interned form of a formula: the scanner evaluates it,
``decision._axiom_instance`` matches the axioms' programs against it and
``_tableau.s4_valid`` builds its negation normal form from it.
"""

from __future__ import annotations

from ._record import record
from . import formulas as fm

OP_BOT, OP_TOP, OP_VAR, OP_NOT, OP_AND, OP_OR, OP_IMP, OP_BOX, OP_DIA = range(9)

_UNARY = {fm.Not: OP_NOT, fm.Box: OP_BOX, fm.Diamond: OP_DIA}
_BINARY = {fm.And: OP_AND, fm.Or: OP_OR, fm.Implies: OP_IMP}
_CONSTANT = {fm.Bot: (OP_BOT, 0, 0), fm.Top: (OP_TOP, 0, 0)}


@record
class Program:
    ops: tuple[tuple[int, int, int], ...]
    variables: tuple[str, ...]

    @property
    def n_vars(self) -> int:
        return len(self.variables)


def reads(op: int, a: int, b: int) -> tuple[int, ...]:
    """The slots an instruction reads, operand by operand: ``a`` of a
    negation, box or diamond, ``a`` and ``b`` of a binary connective, none
    of a variable (whose ``a`` is its index) or a constant."""
    return (a, b) if OP_AND <= op <= OP_IMP else (a,) if op > OP_VAR else ()


def compile_formula(phi: fm.Formula) -> Program:
    variables = fm.variables(phi)
    var_index = dict(zip(variables, range(len(variables))))
    # instruction -> slot, in slot order; node id -> slot
    slot_of_instr: dict[tuple[int, int, int], int] = {}
    slot_of_node: dict[int, int] = {}
    for node in fm.postorder(phi):
        kind = type(node)
        if kind is fm.Var:
            instr = (OP_VAR, var_index[node.name], 0)
        elif (op := _BINARY.get(kind)) is not None:
            instr = (op, slot_of_node[id(node.left)], slot_of_node[id(node.right)])
        elif (op := _UNARY.get(kind)) is not None:
            instr = (op, slot_of_node[id(node.operand)], 0)
        elif (instr := _CONSTANT.get(kind)) is None:
            raise TypeError(f"not a formula: {node!r}")
        slot_of_node[id(node)] = slot_of_instr.setdefault(instr, len(slot_of_instr))
    return Program(tuple(slot_of_instr), variables)
