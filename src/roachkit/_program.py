"""Compilation of formula ASTs into flat programs for the validity scanner.

A program is a postorder instruction list over slots; common subformulas are
shared, and each slot records the instruction after which it is dead so the
scanner can free its values.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import formulas as fm

OP_BOT, OP_TOP, OP_VAR, OP_NOT, OP_AND, OP_OR, OP_IMP, OP_BOX, OP_DIA = range(9)


@dataclass(frozen=True)
class Program:
    ops: tuple[tuple[int, int, int], ...]
    variables: tuple[str, ...]
    last_use: tuple[int, ...]

    @property
    def n_vars(self) -> int:
        return len(self.variables)


def compile_formula(phi: fm.Formula, variables: tuple[str, ...] | None = None) -> Program:
    if variables is None:
        variables = fm.variables(phi)
    var_index = {name: i for i, name in enumerate(variables)}
    ops: list[tuple[int, int, int]] = []
    memo: dict[fm.Formula, int] = {}

    def emit(node) -> int:
        if node in memo:
            return memo[node]
        match node:
            case fm.Bot():
                instr = (OP_BOT, 0, 0)
            case fm.Top():
                instr = (OP_TOP, 0, 0)
            case fm.Var(name=name):
                instr = (OP_VAR, var_index[name], 0)
            case fm.Not(operand=op):
                instr = (OP_NOT, emit(op), 0)
            case fm.And(left=a, right=b):
                instr = (OP_AND, emit(a), emit(b))
            case fm.Or(left=a, right=b):
                instr = (OP_OR, emit(a), emit(b))
            case fm.Implies(left=a, right=b):
                instr = (OP_IMP, emit(a), emit(b))
            case fm.Box(operand=op):
                instr = (OP_BOX, emit(op), 0)
            case fm.Diamond(operand=op):
                instr = (OP_DIA, emit(op), 0)
            case _:
                raise TypeError(f"not a formula: {node!r}")
        slot = len(ops)
        ops.append(instr)
        memo[node] = slot
        return slot

    emit(phi)
    last_use = list(range(len(ops)))
    for pc, (op, a, b) in enumerate(ops):
        if op in (OP_NOT, OP_BOX, OP_DIA):
            last_use[a] = pc
        elif op in (OP_AND, OP_OR, OP_IMP):
            last_use[a] = pc
            last_use[b] = pc
    last_use[len(ops) - 1] = len(ops)  # result outlives the program
    return Program(tuple(ops), tuple(variables), tuple(last_use))
