"""Spans around roachkit's public functions, recorded from outside the library.

``Tracer.install`` replaces each function in ``SELF_TIME`` by a timing wrapper,
at every ``roachkit`` module that holds a reference to it (``decision`` calls
``semantics.find_refutation`` under its own name, for instance).  Spans stay in
memory; ``tally`` turns them into the additive per-layer quantities and
``finalize`` into the reported metrics.  A span's self time is its duration
minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time

# traced function ("module.function", as roachkit names it) -> tally key
# that receives its self time
SELF_TIME = {
    "semantics.find_refutation": "semantics.scan_s",
    "semantics.frame_validates": "semantics.scan_s",
    "_program.compile_formula": "program.compile_s",
    "formulas.parse": "formulas.parse_s",
    "formulas.fine_jankov": "formulas.fine_jankov_s",
    "frames.enumerate_frames": "frames.enumerate_s",
    "frames.canonical_key": "frames.canonical_key_s",
    "morphisms.find_onto_p_morphism": "morphisms.search_s",
    "morphisms.is_permissible": "morphisms.permissible_s",
    "morphisms.check_p_morphism": "morphisms.check_s",
    "roach.is_2_roach": "roach.is_2_roach_s",
    "roach.minimal_forbidden_witness": "roach.witness_s",
    "construct.roach_to_willow": "construct.willow_s",
    "decision.decide_lr2": "decision.decide_s",
}

# span name -> tally key counting its calls
CALLS = {
    "semantics.find_refutation": "semantics.scan_calls",
    "_program.compile_formula": "program.compile_calls",
    "formulas.fine_jankov": "formulas.fine_jankov_calls",
    "frames.canonical_key": "frames.canonical_key_calls",
    "morphisms.find_onto_p_morphism": "morphisms.search_calls",
}

# additive quantities summed over spans, invocations and rounds
TALLY_KEYS = tuple(sorted(set(SELF_TIME.values()) | set(CALLS.values()) | {
    "semantics.valuations",
    "frames.classes",
    "frames.canonical_key_hits",
    "frames.canonical_key_misses",
    "morphisms.search_found",
    "construct.tree_worlds",
    "decision.frames_tried",
    "trace.spans",
}))

# tally keys used only to form the ratios below
RATIO_PARTS = ("frames.canonical_key_hits", "frames.canonical_key_misses", "morphisms.search_found")

# per-invocation phases of a CLI run; reported as medians
CLI_PHASES = ("cli.interp_s", "cli.import_s", "cli.main_s")

# every metric ``finalize`` reports, with its unit
LAYER_UNITS = {
    **{key: "s" if key.endswith("_s") else "count" for key in TALLY_KEYS if key not in RATIO_PARTS},
    **{phase: "s" for phase in CLI_PHASES},
    "semantics.valuations_per_s": "1/s",
    "frames.canonical_key_hit_ratio": "ratio",
    "morphisms.search_found_ratio": "ratio",
}

# prefix of the summary line a traced CLI command writes to stderr
SHIM_MARK = "perfbench-shim "

_RAISED = object()


class Tracer:
    def __init__(self):
        # span: [name, parent index, op index, start, duration, args, result]
        # (for a generator the result slot counts the items it yielded)
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._cache_start = self._cache_end = None

    def wrap(self, name, fn):
        """A wrapper recording one span per call of ``fn``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        if inspect.isgeneratorfunction(fn):
            def traced(*args, **kwargs):
                # a generator's span is open only while it computes an item,
                # so work its consumer does between items is not charged to it
                index = len(spans)
                span = [name, stack[-1] if stack else -1, self.op, clock(), 0.0, args, 0]
                spans.append(span)
                gen = fn(*args, **kwargs)
                while True:
                    stack.append(index)
                    start = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        span[4] += clock() - start
                        stack.pop()
                    span[6] += 1
                    yield item
        else:
            def traced(*args, **kwargs):
                index = len(spans)
                span = [name, stack[-1] if stack else -1, self.op, 0.0, 0.0, args, _RAISED]
                spans.append(span)
                stack.append(index)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    span[3] = start
                    span[4] = end - start
                span[6] = result
                return result
        return functools.update_wrapper(traced, fn)

    def install(self):
        """Wrap every function of ``SELF_TIME`` wherever roachkit refers to it."""
        self._cache_start = _canonical_key_cache()
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "roachkit" or n.startswith("roachkit."))]
        for name in SELF_TIME:
            module_name, func_name = name.split(".")
            original = getattr(sys.modules.get(f"roachkit.{module_name}"), func_name, None)
            if original is None:
                continue
            wrapper = self.wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        self._cache_end = _canonical_key_cache()

    def tally(self) -> dict:
        """Additive per-layer quantities of the recorded spans."""
        from roachkit import formulas

        out = dict.fromkeys(TALLY_KEYS, 0)
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, parent, _op, _start, duration, _args, _result in spans:
            if parent >= 0:
                child_time[parent] += duration
                if name == "semantics.find_refutation" and spans[parent][0] == "decision.decide_lr2":
                    out["decision.frames_tried"] += 1
        for i, (name, _parent, _op, _start, duration, args, result) in enumerate(spans):
            out[SELF_TIME[name]] += duration - child_time[i]
            if name in CALLS:
                out[CALLS[name]] += 1
            if result is _RAISED:
                continue
            if name == "semantics.find_refutation":
                frame, phi = args[0], args[1]
                names = formulas.variables(phi)
                if result is None:
                    out["semantics.valuations"] += 1 << (len(names) * frame.size)
                else:
                    out["semantics.valuations"] += _valuation_index(result[0], names, frame.size) + 1
            elif name == "frames.enumerate_frames":
                out["frames.classes"] += result
            elif name == "morphisms.find_onto_p_morphism":
                out["morphisms.search_found"] += result is not None
            elif name == "construct.roach_to_willow":
                out["construct.tree_worlds"] += result.tree.size
        if self._cache_start is not None and self._cache_end is not None:
            end = self._cache_end
            out["frames.canonical_key_hits"] = end[0] - self._cache_start[0]
            out["frames.canonical_key_misses"] = end[1] - self._cache_start[1]
        out["trace.spans"] = len(spans)
        return out

    def dump(self, path):
        """Write the spans as JSON lines: index, parent, op, name, start, duration."""
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, parent, op, start, duration, _args, _result) in enumerate(self.spans):
                handle.write(json.dumps([i, parent, op, name, start, duration]) + "\n")


def _canonical_key_cache():
    """(hits, misses) of the canonical-key cache; read after ``uninstall`` or
    before ``install``, when the module attribute is the cached function."""
    from roachkit import frames

    info = getattr(frames.canonical_key, "cache_info", None)
    if info is None:
        return None
    stats = info()
    return stats.hits, stats.misses


def _valuation_index(valuation, names, n_worlds) -> int:
    """Scan index of a valuation: variable v true at world i sets bit v*n+i."""
    index = 0
    for v, name in enumerate(names):
        for w in valuation.get(name, ()):
            index |= 1 << (v * n_worlds + w)
    return index


def add_tallies(total: dict, part: dict) -> dict:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value
    return total


def finalize(tally: dict, cli_phases: dict) -> dict:
    """Per-layer metric values from one round's tally and CLI phase samples."""
    tally = {**dict.fromkeys(TALLY_KEYS, 0), **tally}
    out = {k: tally[k] for k in TALLY_KEYS if k not in RATIO_PARTS}
    scan_s = tally["semantics.scan_s"]
    out["semantics.valuations_per_s"] = tally["semantics.valuations"] / scan_s if scan_s > 0 else 0.0
    hits, misses = tally["frames.canonical_key_hits"], tally["frames.canonical_key_misses"]
    out["frames.canonical_key_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    searches = tally["morphisms.search_calls"]
    out["morphisms.search_found_ratio"] = tally["morphisms.search_found"] / searches if searches else 0.0
    for phase in CLI_PHASES:
        samples = cli_phases.get(phase)
        out[phase] = statistics.median(samples) if samples else 0.0
    return out
