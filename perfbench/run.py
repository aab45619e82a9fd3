"""roachkit benchmark: one workload for a fixed time, with checked answers.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout.  The run repeats rounds of the
workload, each in a fresh worker process, until the next round would end
after ``--seconds``.  With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics and the tracing overhead.  The last line of stdout is the result object; the line
before it records the run's metadata.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

RUN_LIMIT_S = 170  # every run ends well inside 180 seconds

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "verified_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {**tracing.LAYER_UNITS, "trace.overhead_s": "s"}


class RunError(Exception):
    pass


def spawn_worker(args, deadline, traced=False) -> dict:
    """Start one worker and return its report."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time before the workload finished a round")
    env = workloads.cli_env()
    spawned_at = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale,
           "--trace", "1" if traced else "0", "--spawned-at", repr(spawned_at)]
    # its own process group, so a timeout also stops the CLI commands it runs
    with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RunError("a round did not finish within the run's time limit") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}:\n{stderr.strip()}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_rounds(args, start, deadline) -> tuple[list, list]:
    """Rounds until the next would overrun ``--seconds``; returns the
    untraced and the traced worker reports."""
    plain, traced, durations = [], [], []
    while True:
        trace_this = bool(args.trace) and len(durations) % 2 == 1
        report = spawn_worker(args, deadline, traced=trace_this)
        (traced if trace_this else plain).append(report)
        durations.append(time.monotonic() - start - sum(durations))
        enough = not args.trace or traced
        if enough and time.monotonic() - start + statistics.median(durations) > args.seconds:
            return plain, traced


def percentile(values, q) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def fastest_ops(reports) -> list[float]:
    """Each operation's fastest time over the rounds (every round runs the
    same operations).  Load from other tenants of a shared host only adds
    time, so the fastest of several tries is the most repeatable figure."""
    return [min(times) for times in zip(*(r["latencies"] for r in reports), strict=True)]


def end_to_end(plain) -> dict:
    per_op = fastest_ops(plain)
    wall_s = sum(per_op)
    attempted = sum(r["attempted"] for r in plain)
    failed = sum(r["failed"] for r in plain)
    return {
        # fastest of the rounds, like the operations
        "setup_s": min(r["setup_s"] for r in plain),
        "wall_s": wall_s,
        "ops_per_s": len(per_op) / wall_s,
        "op_p50_ms": 1000.0 * percentile(per_op, 50),
        "op_p90_ms": 1000.0 * percentile(per_op, 90),
        "verified_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def per_layer(plain, traced) -> dict:
    values = {name: statistics.median(r["layers"][name] for r in traced)
              for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
    values["trace.overhead_s"] = sum(fastest_ops(traced)) - sum(fastest_ops(plain))
    return values


def metadata(args, reports) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "rounds": len(reports),
        "ops_per_round": reports[0]["attempted"],
        "untraced_rounds": sum(r["layers"] is None for r in reports),
        "kernel": sorted({r["kernel"] for r in reports}),
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                          env={**os.environ, "GIT_DIR": os.path.join(ROOT, ".git")})
    return proc.stdout.strip() or None


def _source_digest() -> str:
    """Digest of the library's sources, which names the code where git cannot."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "roachkit")
    for name in sorted(os.listdir(src)):
        if name.endswith((".py", ".pyx")):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full",
                        help="tiny runs a small version of each workload for the harness self-test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "roachkit", "__init__.py")):
        print(f"error: no roachkit sources under {ROOT}/src", file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    try:
        plain, traced = run_rounds(args, start, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    reports = plain + traced
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    for message in sorted({m for r in reports for m in r["failures"]})[:20]:
        print(f"failed: {message}", file=sys.stderr)
    if args.trace:
        values, units = per_layer(plain, traced), PER_LAYER_UNITS
    else:
        values, units = end_to_end(plain), END_TO_END_UNITS
    print(json.dumps({"meta": metadata(args, reports)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
