"""Run one ``roachkit`` CLI command with spans recorded.

    python3 perfbench/cli_shim.py check builtin:F3

Behaves like ``python -m roachkit.cli``: same stdout and exit code.  The time
to import ``roachkit.cli``, the time of ``main`` and the per-layer tally of the
spans go to stderr as one line starting with ``tracing.SHIM_MARK``.
"""

import json
import sys
import time

start = time.perf_counter()
import roachkit.cli  # noqa: E402

imported = time.perf_counter()

import tracing  # noqa: E402


def main() -> int:
    tracer = tracing.Tracer()
    tracer.install()
    t0 = time.perf_counter()
    try:
        return roachkit.cli.main(sys.argv[1:])
    finally:
        main_s = time.perf_counter() - t0
        tracer.uninstall()
        sys.stdout.flush()
        summary = {"import_s": imported - start, "main_s": main_s, "tally": tracer.tally()}
        sys.stderr.write(tracing.SHIM_MARK + json.dumps(summary) + "\n")


if __name__ == "__main__":
    sys.exit(main())
