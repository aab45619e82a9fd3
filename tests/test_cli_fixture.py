"""Every CLI subcommand, in text and ``--json`` form, prints what the fixture
recorded: the same stdout, stderr and exit code, byte for byte.

The cases run in process, from ``tests/cli_fixture`` so that frame files are
named by relative paths.  After a deliberate change of output, re-record
with ``PYTHONPATH=src python tests/test_cli_fixture.py`` and review the diff
of ``tests/cli_fixture/expected.json``.
"""

import contextlib
import io
import json
import os
import pathlib
import sys

import pytest

from roachkit.cli import main

HERE = pathlib.Path(__file__).parent / "cli_fixture"
EXPECTED = HERE / "expected.json"

BUILTINS = ("F1", "F2", "F3", "G", "T2", "two_fork", "chain3", "point")
OPEN_CHAIN = '{"size": 3, "le": [[0, 1], [1, 2]]}'

# (argv, stdin); each argv of a command with a --json flag also runs with it
CASES = [
    *((["check", f"builtin:{name}"], None) for name in BUILTINS),
    (["check", "T3"], None),
    (["check", "chain3"], None),
    (["check", "frames/f2.json"], None),
    (["check", "-"], OPEN_CHAIN),
    (["check", "frames/closed_chain.json", "--strict"], None),
    (["check", "frames/open_chain.json"], None),
    (["check", "frames/open_chain.json", "--strict"], None),
    (["check", "-", "--strict"], OPEN_CHAIN),
    (["check", "-"], "[]"),
    (["check", "-"], ""),
    (["check", "frames/unrooted.json"], None),
    (["check", "frames/broken.json"], None),
    (["check", "frames/bad_labels.json"], None),
    (["check", "frames/bad_strict.json"], None),
    (["check", "frames/oversized.json"], None),
    (["check", "frames/bad_edge.json"], None),
    (["check", "frames/missing.json"], None),
    (["check", "frames"], None),
    (["check", "builtin:nonsense"], None),
    (["check", "builtin:T"], None),
    (["check", "builtin:T0"], None),
    (["check", "builtin:chain999999"], None),
    (["check", "builtin:chain" + "9" * 20], None),
    (["check", "builtin:T²"], None),
    (["witness", "builtin:F3"], None),
    (["witness", "builtin:G"], None),
    (["witness", "builtin:T2"], None),
    (["witness", "-"], '{"size": 5, "le": [[0, 1], [0, 2], [1, 3], [1, 4], [2, 3], [2, 4]]}'),
    (["witness", "builtin:two_fork"], None),
    (["morphism-find", "--source", "builtin:T2", "--target", "builtin:F1"], None),
    (["morphism-find", "--source", "builtin:point", "--target", "builtin:F1"], None),
    (["morphism-find", "--source", "frames/f2.json", "--target", "builtin:chain2"], None),
    (["permissible", "--config", "builtin:F1", "--host", "builtin:two_fork"], None),
    (["permissible", "--config", "F1", "--host", "T2"], None),
    (["permissible", "--config", "builtin:F2", "--host", "frames/f2.json"], None),
    (["eval", "builtin:F1", "--formula", "<>p", "--valuation", '{"p": [2]}'], None),
    (["eval", "builtin:chain3", "--formula", "[]p", "--valuation", '{"p": [1, 2, 2]}'], None),
    (["eval", "builtin:point", "--formula", "p"], None),
    (["eval", "builtin:F1", "--formula", "p", "--valuation", '{"p": "x"}'], None),
    (["eval", "builtin:F1", "--formula", "p", "--valuation", '["p"]'], None),
    (["eval", "builtin:F1", "--formula", "p", "--valuation", "{nope"], None),
    (["eval", "builtin:F1", "--formula", "p", "--valuation", '{"p": [-1]}'], None),
    (["eval", "builtin:F1", "--formula", "p", "--valuation", '{"p": [99999999999]}'], None),
    (["eval", "builtin:F1", "--formula", "p &"], None),
    (["validate", "builtin:two_fork", "--formula", "<>[]p -> []<>p"], None),
    (["validate", "builtin:two_fork", "--formula", "[]<>p -> <>[]p"], None),
    (["validate", "builtin:F3", "--formula", "[](p -> q) & <>r -> <>(q & r)"], None),
    (["validate", "builtin:chain2", "--formula", "p & q & r & s & t & u & v & x & y & z"
      " & a & b & c & d"], None),
    *((["fine-jankov", f"builtin:{name}"], None) for name in ("F1", "point", "T2")),
    (["fine-jankov", "builtin:chain65"], None),
    (["unravel", "builtin:two_fork", "--mode", "willow"], None),
    (["unravel", "builtin:chain3"], None),
    (["unravel", "builtin:F3", "--mode", "willow"], None),
    (["decide", "--formula", "<>[]p -> []<>p", "--bound", "3"], None),
    (["decide", "--formula", "[]p -> p", "--bound", "3"], None),
    (["decide", "--formula", "[]p -> p", "--bound", "0"], None),
    (["enumerate", "--size", "3", "--count"], None),
    (["enumerate", "--size", "2", "--filter", "rooted"], None),
    (["enumerate", "--size", "3", "--filter", "2-roach"], None),
    (["enumerate", "--size", "9", "--count"], None),
    *((["ordinal-classify", text], None) for text in ("w", "w^w + w^2", "w^2*3 + 1", "0", "5")),
    (["ordinal-classify", "w^²"], None),
    *((["ordinal-logic-of", text], None) for text in ("w^2", "w^w", "w + 1", "3")),
    (["ordinal-logic-of", "w^"], None),
    (["selftest", "--only", "no-such"], None),
]


def _argvs():
    for argv, stdin in CASES:
        yield argv, stdin
        if argv[0] not in ("unravel", "enumerate"):
            yield argv + ["--json"], stdin


def _key(argv, stdin) -> str:
    return json.dumps([argv, stdin], ensure_ascii=False)


def run(argv, stdin) -> dict:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        sys.stdin = saved
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def record() -> dict:
    return {_key(argv, stdin): run(argv, stdin) for argv, stdin in _argvs()}


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def test_fixture_covers_every_case(expected):
    assert sorted(expected) == sorted(_key(argv, stdin) for argv, stdin in _argvs())


@pytest.mark.parametrize("argv, stdin", list(_argvs()),
                         ids=[" ".join(argv)[:70] for argv, _ in _argvs()])
def test_output_matches_the_fixture(argv, stdin, expected, monkeypatch):
    monkeypatch.chdir(HERE)
    assert run(argv, stdin) == expected[_key(argv, stdin)]


if __name__ == "__main__":
    os.chdir(HERE)
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(record(), handle, indent=1, ensure_ascii=False)
        handle.write("\n")
