import importlib.util
import itertools
import json
import subprocess
from collections import Counter
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "compare_bench.py"


def load_compare_bench():
    spec = importlib.util.spec_from_file_location("compare_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_record_takes_three_runs_per_cell_and_compare_reports_medians(
        tmp_path, monkeypatch, capsys):
    cb = load_compare_bench()
    cells = list(itertools.product(cb.WORKLOADS, cb.SEEDS, cb.TRACES))
    commands = []

    def fake_run(cmd, **kwargs):
        commands.append(cmd)
        option = dict(zip(cmd[2::2], cmd[3::2]))
        meta = {"workload": option["--workload"], "seed": int(option["--seed"]),
                "trace": int(option["--trace"]), "seconds": float(option["--seconds"]),
                "nproc": 2}
        # rounds read 5, 1 and 2 s; like perfbench, only untraced runs
        # report end-to-end metrics and only traced runs per-layer ones
        value = (5.0, 1.0, 2.0)[(len(commands) - 1) // len(cells)]
        name = "roach.witness_s" if meta["trace"] else "wall_s"
        result = {"correct": True, "metrics": {name: {"value": value, "unit": "s"}}}
        stdout = "progress\n" + json.dumps({"meta": meta}) + "\n" + json.dumps(result) + "\n"
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(cb.subprocess, "run", fake_run)
    out = tmp_path / "BENCH_x.json"
    cb.record(str(out), str(tmp_path))
    runs = json.loads(out.read_text())
    counts = Counter((r["meta"]["workload"], r["meta"]["seed"], r["meta"]["trace"]) for r in runs)
    assert counts == Counter({cell: 3 for cell in cells})
    # round by round: each round runs every cell once
    assert len({tuple(cmd) for cmd in commands[:len(cells)]}) == len(cells)

    # the comparison shows each cell's median, not one of its runs
    _, medians = cb.medians(str(out))
    assert len(medians) == len(cells) and set(medians.values()) == {2.0}
    cb.compare(str(out), str(out))
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == len(cells)
    assert all(row[3:] == ["2", "2", "1.000"] for row in rows)
