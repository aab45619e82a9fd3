import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "code_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment


def f(x):
    """Function docstring."""

    return (x
            + 1)


TEXT = """not a
docstring"""
'''


def load_code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_lines_with_code_tokens_only():
    # import, def, the two lines of the return and the two of TEXT
    assert load_code_lines().count_code_lines(SOURCE) == 6


def test_prints_each_module_and_the_total():
    out = subprocess.run([sys.executable, str(SCRIPT)], check=True, capture_output=True,
                         text=True).stdout.splitlines()
    counts = {name: int(count) for name, count in map(str.split, out)}
    assert "frames.py" in counts
    assert counts.pop("total") == sum(counts.values())
