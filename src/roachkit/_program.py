"""Compilation of formula ASTs into flat programs for the validity scanner.

A program is a postorder instruction list over slots.  Equal subformulas
share one slot: a node's instruction names its operands' slots, so two
nodes are equal exactly when their instructions are, and the compiler looks
instructions up instead of hashing formula subtrees.
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


def compile_formula(phi: fm.Formula) -> Program:
    nodes = fm.postorder(phi)
    variables = tuple(sorted({node.name for node in nodes if type(node) is fm.Var}))
    var_index = {name: i for i, name in enumerate(variables)}
    ops: list[tuple[int, int, int]] = []
    slot_of_instr: dict[tuple[int, int, int], int] = {}
    slot_of_node: dict[int, int] = {}
    for node in nodes:
        kind = type(node)
        if kind in _BINARY:
            instr = (_BINARY[kind], slot_of_node[id(node.left)], slot_of_node[id(node.right)])
        elif kind in _UNARY:
            instr = (_UNARY[kind], slot_of_node[id(node.operand)], 0)
        elif kind is fm.Var:
            instr = (OP_VAR, var_index[node.name], 0)
        elif kind in _CONSTANT:
            instr = _CONSTANT[kind]
        else:
            raise TypeError(f"not a formula: {node!r}")
        slot = slot_of_instr.get(instr)
        if slot is None:
            slot = slot_of_instr[instr] = len(ops)
            ops.append(instr)
        slot_of_node[id(node)] = slot
    return Program(tuple(ops), variables)
