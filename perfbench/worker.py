"""One round of a workload, in a fresh interpreter so every cache starts empty.

    python3 perfbench/worker.py --workload decide --seed 1 --spawned-at <monotonic>

Set-up is interpreter start, ``import roachkit`` and input generation; it
ends at the first timed operation.  The timed phase runs every operation in
order, then the answers are checked outside the timed phase.  Prints one JSON
line for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

import roachkit  # noqa: F401  (loads every library module before tracing)

import tracing
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before it started this process")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # a traced CLI round records its spans inside each command's process
    tracer = None
    if args.trace and args.workload != "cli":
        tracer = tracing.Tracer()
        tracer.install()
    workload = workloads.make(args.workload, args.seed, args.scale, traced=bool(args.trace))
    setup_s = time.monotonic() - args.spawned_at

    done, latencies = timed_phase(workload, tracer)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracing.finalize(tracer.tally(), {})
        out_dir = os.path.join(workloads.HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, f"{args.workload}-seed{args.seed}.spans.jsonl"))
    elif workload.cli_trace is not None:
        phases = dict(workload.cli_trace.phases)
        phases["cli.interp_s"] = [_bare_interpreter_s() for _ in range(6)]
        layers = tracing.finalize(workload.cli_trace.tally, phases)

    failures = verify(done)
    semantics = sys.modules.get("roachkit.semantics")
    print(json.dumps({
        "setup_s": setup_s,
        "latencies": latencies,
        "attempted": len(done),
        "failed": len(failures),
        "failures": failures[:20],
        "peak_rss_mb": peak_rss_mb,
        "kernel": getattr(semantics, "BACKEND_NAME", "unknown"),
        "layers": layers,
    }))
    return 0


def timed_phase(workload, tracer=None):
    """Run every operation; returns (op, result, error) triples and the
    latencies.  A crashed operation counts as failed."""
    done = []
    latencies = []
    clock = time.perf_counter
    for i, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            result, error = op.call(), None
        except Exception as exc:
            result, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - t0)
        done.append((op, result, error))
    return done, latencies


def verify(done) -> list[str]:
    """One message per wrong, crashed or unverified operation."""
    failures = []
    for op, result, error in done:
        if error is None:
            try:
                error = op.check(result)
            except Exception as exc:  # a check that cannot run leaves the op unverified
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"{op.label}: {error}")
    return failures


def _bare_interpreter_s() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
    return time.perf_counter() - start


if __name__ == "__main__":
    os.chdir(workloads.ROOT)
    sys.exit(main())
