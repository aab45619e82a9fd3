import json
import os
import subprocess
import sys

import pytest

import roachkit
from roachkit import frames as F
from roachkit import roach as R
from roachkit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_f3(capsys):
    code, out, _ = run_cli(capsys, "check", "builtin:F3")
    assert code == 0
    assert "not a 2-roach" in out
    assert "R3" in out


def test_check_json(capsys):
    code, out, _ = run_cli(capsys, "check", "builtin:two_fork", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["memberships"]["R2"] and not data["memberships"]["R1"]
    assert data["willow"]


def test_witness_available_for_f3(capsys):
    code, out, _ = run_cli(capsys, "witness", "builtin:F3", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["which"] == "F3" and data["generator"] == 0


def test_ordinal_classify_w(capsys):
    code, out, _ = run_cli(capsys, "ordinal-classify", "w")
    assert code == 0
    assert out.splitlines()[0] == "L_1 = S4.1.2"


def test_ordinal_classify_json(capsys):
    code, out, _ = run_cli(capsys, "ordinal-classify", "w^w + w^2", "--json")
    data = json.loads(out)
    assert data["logic"] == "S4.Grz ^ L_2"
    assert data["tear_off"] == {"gamma_prime": "w^w", "alpha_1": "2"}


def test_ordinal_logic_of(capsys):
    code, out, _ = run_cli(capsys, "ordinal-logic-of", "w^2")
    assert code == 0 and out.strip() == "S4.Grz_2"


def test_decide_geach(capsys):
    code, out, _ = run_cli(capsys, "decide", "--formula", "<>[]p -> []<>p", "--bound", "3")
    assert code == 0
    assert "Refuted on a 3-world 2-roach" in out
    frame_line = [line for line in out.splitlines() if line.startswith("{")][0]
    frame = F.frame_from_json(frame_line)
    assert F.are_isomorphic(frame, R.builtin("two_fork"))


def test_decide_no_countermodel(capsys):
    code, out, _ = run_cli(capsys, "decide", "--formula", "[]p -> p", "--bound", "3")
    assert code == 0 and "NoCountermodelUpTo(3)" in out


def test_eval_with_valuation(capsys):
    code, out, _ = run_cli(capsys, "eval", "builtin:F1", "--formula", "<>p",
                           "--valuation", '{"p": [2]}')
    assert code == 0 and out.strip() == "0 1 2"


def test_validate_reports_refutation(capsys):
    code, out, _ = run_cli(capsys, "validate", "builtin:two_fork", "--formula",
                           "<>[]p -> []<>p")
    assert code == 0 and "invalid at world 0" in out
    code, out, _ = run_cli(capsys, "validate", "builtin:two_fork", "--formula",
                           "[]<>p -> <>[]p")
    assert code == 0 and out.strip() == "valid"


def test_fine_jankov_round_trips(capsys):
    from roachkit import formulas as fm

    code, out, _ = run_cli(capsys, "fine-jankov", "builtin:F1")
    assert code == 0
    assert fm.parse(out.strip()) == fm.fine_jankov(R.builtin("F1"))


def test_unravel_willow(capsys):
    code, out, _ = run_cli(capsys, "unravel", "builtin:two_fork", "--mode", "willow")
    data = json.loads(out)
    assert code == 0
    assert data["map"] == [0, 1, 2]
    assert F.frame_from_json(json.dumps(data["tree"])).size == 3


def test_enumerate_count_and_stream(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--size", "3", "--filter", "all", "--count")
    assert code == 0 and out.strip() == "9"
    code, out, _ = run_cli(capsys, "enumerate", "--size", "2", "--filter", "rooted")
    frames = [F.frame_from_json(line) for line in out.strip().splitlines()]
    assert code == 0 and len(frames) == 2


def test_builtin_resolution_round_trip(capsys):
    for arg, expected in [
        ("builtin:F1", R.builtin("F1")),
        ("builtin:G", R.builtin("G")),
        ("builtin:T3", R.builtin("T", 3)),
        ("builtin:chain4", R.builtin("chain", 4)),
        ("builtin:two_fork", R.builtin("two_fork")),
    ]:
        code, out, _ = run_cli(capsys, "fine-jankov", arg, "--json")
        assert code == 0
        from roachkit import formulas as fm

        assert fm.parse(json.loads(out)["formula"]) == fm.fine_jankov(expected)


def test_frame_file_and_stdin(tmp_path, capsys, monkeypatch):
    path = tmp_path / "frame.json"
    path.write_text(F.frame_to_json(R.builtin("F2")))
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 0 and "not a 2-roach" in out

    import io
    monkeypatch.setattr("sys.stdin", io.StringIO('{"size": 2, "le": [[0, 1]]}'))
    code, out, _ = run_cli(capsys, "check", "-")
    assert code == 0 and "2-roach" in out


def test_morphism_find_and_permissible(capsys):
    code, out, _ = run_cli(capsys, "morphism-find", "--source", "builtin:T2",
                           "--target", "builtin:F1")
    assert code == 0 and out.strip() == "0 1 2 3"
    code, out, _ = run_cli(capsys, "morphism-find", "--source", "builtin:point",
                           "--target", "builtin:F1")
    assert code == 0 and out.strip() == "none"
    code, out, _ = run_cli(capsys, "permissible", "--config", "builtin:F1",
                           "--host", "builtin:two_fork")
    assert code == 0 and out.strip() == "none"


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "check", "builtin:nonsense")
    assert code == 1 and "error" in err
    code, _, err = run_cli(capsys, "witness", "builtin:two_fork")
    assert code == 1  # witness of a 2-roach is a precondition failure
    code, _, err = run_cli(capsys, "eval", "builtin:F1", "--formula", "p",
                           "--valuation", '{"p": "x"}')
    assert code == 1 and "valuation" in err
    code, _, err = run_cli(capsys, "eval", "builtin:F1", "--formula", "p",
                           "--valuation", "{nope")
    assert code == 1


def test_unreadable_frame_path_exits_1(tmp_path, capsys):
    code, out, err = run_cli(capsys, "check", str(tmp_path))  # a directory
    assert code == 1 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    code, _, err = run_cli(capsys, "check", str(tmp_path / "missing.json"))
    assert code == 1 and err.startswith("error:")


def test_bad_labels_exit_1(tmp_path, capsys):
    path = tmp_path / "frame.json"
    path.write_text('{"size": 2, "le": [[0, 1]], "labels": 5}')
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 1 and "labels" in err


def test_deep_formulas_exit_1_in_one_line():
    # a fresh interpreter, so that any uncaught error would print a traceback
    src = os.path.dirname(os.path.dirname(roachkit.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    for text in ("~" * 3000 + "p", "(" * 3000 + "p" + ")" * 3000):
        proc = subprocess.run([sys.executable, "-m", "roachkit.cli", "validate", "builtin:F1",
                               "--formula", text], capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 1 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: formula nests deeper")
        assert len(proc.stderr.strip().splitlines()) == 1


def test_deep_ordinal_exits_1_in_one_line():
    src = os.path.dirname(os.path.dirname(roachkit.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    text = "w^(" * 3000 + "1" + ")" * 3000
    proc = subprocess.run([sys.executable, "-m", "roachkit.cli", "ordinal-classify", text],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ordinal nests deeper")
    assert len(proc.stderr.strip().splitlines()) == 1


def test_oversized_frame_exits_1(tmp_path, capsys):
    path = tmp_path / "frame.json"
    path.write_text('{"size": 3000000, "le": []}')
    code, out, err = run_cli(capsys, "check", str(path))
    assert code == 1 and out == "" and "size" in err


def test_bare_builtin_names_resolve(capsys):
    code, out, _ = run_cli(capsys, "permissible", "--config", "F1", "--host", "two_fork")
    assert code == 0 and out.strip() == "none"
    code, out, _ = run_cli(capsys, "check", "T3")
    assert code == 0 and "not a 2-roach" in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_deterministic_output(capsys):
    first = run_cli(capsys, "decide", "--formula", "<>[]p -> []<>p", "--bound", "3")
    second = run_cli(capsys, "decide", "--formula", "<>[]p -> []<>p", "--bound", "3")
    assert first == second


def test_selftest_single_criterion(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--only", "hierarchy")
    assert code == 0 and out.startswith("PASS hierarchy")
    code, _, err = run_cli(capsys, "selftest", "--only", "no-such")
    assert code == 2 and "unknown criterion" in err
