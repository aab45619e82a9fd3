#!/usr/bin/env python3
"""Print the code lines of each ``src/roachkit`` module and their total.

    python3 benchmarks/code_lines.py [--root DIR]

A code line is a non-blank line that holds a token other than a comment or
a docstring; a token spanning several lines, such as a multi-line string,
holds each of them.  ``--root`` names the source checkout (default: this
one).
"""

import argparse
import ast
import io
import pathlib
import tokenize

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree):
    """(line, column) where each module, class and function docstring starts."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                yield first.lineno, first.col_offset


def count_code_lines(source: str) -> int:
    docstrings = set(_docstring_starts(ast.parse(source)))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _SKIPPED or (token.type == tokenize.STRING and token.start in docstrings):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=pathlib.Path(__file__).resolve().parents[1])
    args = parser.parse_args()
    total = 0
    for path in sorted(pathlib.Path(args.root, "src", "roachkit").glob("*.py")):
        count = count_code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:<16} {count:>5}")
    print(f"{'total':<16} {total:>5}")


if __name__ == "__main__":
    main()
