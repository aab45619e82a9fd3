"""Self-test of the benchmark harness, at a tiny size.

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py

Runs every workload with and without tracing and checks the reported
metrics against ``BENCHMARK.json``; then injects wrong answers and checks
that they are counted as failures.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    *_, meta_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    meta = json.loads(meta_line)["meta"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert meta["seed"] == 5 and meta["kernel"] and meta["nproc"] >= 1


def _fail_ratio(workload):
    done, _ = worker.timed_phase(workload)
    return len(worker.verify(done)) / len(done)


def test_silenced_permissibility_is_counted(monkeypatch):
    from roachkit import morphisms

    monkeypatch.setattr(morphisms, "is_permissible", lambda *a, **k: None)
    assert _fail_ratio(workloads.make("census", 5, "tiny")) > 0


def test_crashing_query_is_counted(monkeypatch):
    from roachkit import decision

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(decision, "decide_lr2", broken)
    assert _fail_ratio(workloads.make("decide", 5, "tiny")) == 1.0


def test_non_refuting_countermodel_is_counted(monkeypatch):
    """A scanner that reports a refutation at a valuation that does not
    refute must fail every query it answers that way."""
    import checks
    from roachkit import semantics

    original_scan, original_compile = semantics._scan, semantics.compile_formula
    compiled = []  # the formula of the scan in progress
    corrupted = []

    def recording_compile(phi, *args, **kwargs):
        compiled.append(phi)
        return original_compile(phi, *args, **kwargs)

    def wrong_scan(up, n_worlds, program, backend=None):
        index = original_scan(up, n_worlds, program, backend)
        if index < 0:
            return index
        names = program.variables
        for other in range(1 << (len(names) * n_worlds)):
            valuation = {name: {w for w in range(n_worlds) if (other >> (v * n_worlds + w)) & 1}
                         for v, name in enumerate(names)}
            if checks.extension_mask(up, compiled[-1], valuation) == (1 << n_worlds) - 1:
                corrupted.append(other)
                return other
        return index  # every valuation refutes: no wrong answer to give

    monkeypatch.setattr(semantics, "compile_formula", recording_compile)
    monkeypatch.setattr(semantics, "_scan", wrong_scan)
    done, _ = worker.timed_phase(workloads.make("decide", 5, "tiny"))
    failures = worker.verify(done)
    # a query stops at its first refuting frame, so each has at most one
    # corrupted scan, and each corrupted scan is its final answer
    assert len(failures) == len(corrupted) > 0
    assert any(message.startswith("point/") for message in failures)


def test_correct_answers_pass():
    assert _fail_ratio(workloads.make("census", 5, "tiny")) == 0
    assert _fail_ratio(workloads.make("decide", 5, "tiny")) == 0


def test_tracer_wraps_every_importing_module_and_restores():
    from roachkit import decision, semantics

    original = semantics.find_refutation
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert decision.find_refutation is semantics.find_refutation
        assert semantics.find_refutation is not original
        decision.decide_lr2(decision.lr2_axioms()[0], 3)
    finally:
        tracer.uninstall()
    assert semantics.find_refutation is original and decision.find_refutation is original
    tally = tracer.tally()
    assert tally["decision.frames_tried"] == tally["semantics.scan_calls"] > 0
    # self times add up to the traced call's duration
    total = sum(span[4] for span in tracer.spans if span[1] == -1)
    assert abs(sum(v for k, v in tally.items() if k.endswith("_s")) - total) < 1e-6
