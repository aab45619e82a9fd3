"""CLI fuzz test: random frame JSON, formula text and ordinal text must each
end in exit code 0, 1 or 2, never in an uncaught exception."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys

import roachkit
from roachkit.cli import main

# values that sit where a frame field, an edge or a valuation is expected
JUNK = [None, True, -1, 0, 1, 3, 1.5, "2", [], {}, [[0, 1]], [0, 1], "le", 10**30, -10**30]
FORMULA_TOKENS = ["p", "q", "r", "T", "F", "~", "[]", "<>", "&", "|", "->", "<->", "(", ")",
                  " ", "[", "]", "<", ">", "-", "1", "_", "é"]
ORDINAL_TOKENS = ["w", "^", "(", ")", "*", "+", " ", "0", "1", "2", "9", "-", "w^w", "x",
                  "ω", "²", "٣"]


def random_frame_json(rng) -> str:
    size = rng.choice([rng.randint(1, 5)] * 6 + JUNK + [4097])
    data = {}
    if rng.random() < 0.95:
        data["size"] = size
    if rng.random() < 0.95:
        if rng.random() < 0.8 and isinstance(size, int) and 0 < size < 10:
            data["le"] = [[rng.randint(-1, size), rng.randint(-1, size)]
                          for _ in range(rng.randint(0, 8))]
            if rng.random() < 0.2:
                data["le"].append(rng.choice(JUNK))
        else:
            data["le"] = rng.choice(JUNK)
    if rng.random() < 0.2:
        data["labels"] = rng.choice(JUNK + [["a", "b", "c"]])
    if rng.random() < 0.2:
        data["strict"] = rng.choice(JUNK)
    text = json.dumps(rng.choice(JUNK) if rng.random() < 0.1 else data)
    if rng.random() < 0.2:  # one corrupted character
        i = rng.randrange(len(text) + 1)
        text = text[:i] + rng.choice('"{],x9-\\é') + text[i + 1:]
    return text


def random_text(rng, tokens, longest) -> str:
    return "".join(rng.choice(tokens) for _ in range(rng.randint(0, longest)))


def random_argv(rng, frame_path) -> list[str]:
    kind = rng.randrange(3)
    if kind == 0:
        with open(frame_path, "w", encoding="utf-8") as handle:
            handle.write(random_frame_json(rng))
        valuation = rng.choice([{"p": [rng.randint(-2, 6)]}, {"p": rng.choice(JUNK)},
                                rng.choice(JUNK), {"p": [0, True]}])
        return rng.choice([
            ["check", frame_path], ["check", frame_path, "--json"],
            ["check", frame_path, "--strict"], ["witness", frame_path],
            ["validate", frame_path, "--formula", random_text(rng, FORMULA_TOKENS, 8) or "p"],
            ["eval", frame_path, "--formula", "p", "--valuation", json.dumps(valuation)],
            ["fine-jankov", frame_path], ["unravel", frame_path],
            ["unravel", frame_path, "--mode", "willow"],
            ["morphism-find", "--source", frame_path, "--target", "builtin:F1"],
            ["permissible", "--config", "F1", "--host", frame_path],
        ])
    if kind == 1:
        phi = random_text(rng, FORMULA_TOKENS, 14)
        return rng.choice([
            ["validate", "builtin:F1", "--formula", phi],
            ["eval", "builtin:two_fork", "--formula", phi],
            ["decide", "--formula", phi, "--bound", str(rng.choice([-1, 0, 1, 2, 3, 9]))],
        ])
    command = rng.choice(["ordinal-classify", "ordinal-logic-of"])
    return [command, random_text(rng, ORDINAL_TOKENS, 12)] + rng.choice([[], ["--json"]])


def test_random_inputs_exit_cleanly_in_process(tmp_path):
    rng = random.Random(2024)
    frame_path = str(tmp_path / "frame.json")
    for _ in range(600):
        argv = random_argv(rng, frame_path)
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:
            raise AssertionError(f"{argv} raised {exc!r}") from exc
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue(), argv


def test_random_inputs_exit_cleanly_in_fresh_interpreters(tmp_path):
    src = os.path.dirname(os.path.dirname(roachkit.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    rng = random.Random(7)
    frame_path = str(tmp_path / "frame.json")
    for _ in range(6):
        argv = random_argv(rng, frame_path)
        proc = subprocess.run([sys.executable, "-m", "roachkit.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode in (0, 1, 2), argv
        assert "Traceback" not in proc.stderr, argv
