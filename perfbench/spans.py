"""Span and counter wrappers installed around the program's public functions.

Everything is patched from outside the package: each wrapped function is
replaced, at its defining module and at every module that bound it by
name, with a wrapper that records a span (name, start, end, parent) or
bumps a counter. Spans stay in memory for one pass; ``summary`` turns them
into calls and self time per span name, where self time is the span's
duration minus the durations of its direct children.

A target that a later version of the program renamed or removed is
reported as absent, not as an error.
"""
from __future__ import annotations

import importlib
import time
from collections import Counter
from typing import Callable

# Targets: (span name, [(module, attribute path)], mode). Every binding of
# one function gets the same wrapper. "span" records a span; "count" only
# counts calls, for functions too small and too frequent to time.
TARGETS: tuple[tuple[str, tuple[tuple[str, str], ...], str], ...] = (
    ("cli.main", (("rfiqkd.cli", "main"),), "span"),
    ("cli.load_config", (("rfiqkd.cli", "load_config"),), "span"),
    ("cli.cmd", tuple(("rfiqkd.cli", f"cmd_{c}") for c in ("point", "scan", "compare", "process", "simulate")), "span"),
    ("cli.write_tally_csv", (("rfiqkd.cli", "write_tally_csv"),), "span"),
    ("cli.read_tally_csv", (("rfiqkd.cli", "read_tally_csv"),), "span"),
    ("channel.expected_tallies", (("rfiqkd.channel", "expected_tallies"), ("rfiqkd.cli", "expected_tallies")), "span"),
    ("channel.cell_expectation", (("rfiqkd.channel", "cell_expectation"),), "count"),
    ("simulate.sample_drifting_tallies", (("rfiqkd.simulate", "sample_drifting_tallies"), ("rfiqkd.cli", "sample_drifting_tallies")), "span"),
    ("simulate.observed", (("rfiqkd.simulate", "OracleTallies.observed"),), "span"),
    ("decoy", tuple(("rfiqkd.decoy", f) for f in ("vacuum_bound", "single_photon_bound", "error_count_bound", "single_photon_error_rate")), "span"),
    ("security", tuple(("rfiqkd.security", f) for f in ("c_bounds", "abs_lower", "ie_4state", "c_64", "ie_6state")), "span"),
    ("keyrate.analyze_tallies", (("rfiqkd.keyrate", "analyze_tallies"), ("rfiqkd.cli", "analyze_tallies")), "span"),
    ("keyrate.key_length", (("rfiqkd.keyrate", "key_length"), ("rfiqkd.baselines", "key_length")), "span"),
    ("keyrate.group_and_extract", (("rfiqkd.keyrate", "group_and_extract"), ("rfiqkd.cli", "group_and_extract")), "span"),
    ("keyrate.group_slices", (("rfiqkd.keyrate", "group_slices"),), "span"),
    ("keyrate.classify", (("rfiqkd.keyrate", "DriftClassifier.classify"),), "span"),
    ("baselines.run_six_four", (("rfiqkd.baselines", "run_six_four"),), "span"),
    ("baselines.run_six_state", (("rfiqkd.baselines", "run_six_state"),), "span"),
    ("core.class_counts", (("rfiqkd.core", "ObservedTallies.class_detected"), ("rfiqkd.core", "ObservedTallies.class_errors")), "span"),
    ("core.tallies_add", (("rfiqkd.core", "ObservedTallies.__add__"),), "span"),
    ("core.tallies_new", (("rfiqkd.core", "ObservedTallies.__post_init__"),), "count"),
)


class _CountingIO:
    """File proxy that counts the characters (ASCII, so bytes) passing through."""

    def __init__(self, handle, tracer: "Tracer", counter: str) -> None:
        self._handle = handle
        self._tracer = tracer
        self._counter = counter

    def write(self, text: str) -> int:
        self._tracer.counts[self._counter] += len(text)
        return self._handle.write(text)

    def read(self, *args) -> str:
        text = self._handle.read(*args)
        self._tracer.counts[self._counter] += len(text)
        return text

    def __getattr__(self, name: str):
        return getattr(self._handle, name)


def _count_io(position: int, counter: str):
    def before(tracer: "Tracer", args: tuple) -> tuple:
        if len(args) <= position:
            return args
        args = list(args)
        args[position] = _CountingIO(args[position], tracer, counter)
        return tuple(args)

    return before


def _after_slices(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["simulate.slices"] += len(result)
    cfg = args[0] if args else None
    tracer.counts["simulate.pulses"] += int(getattr(cfg, "n_total", 0))


def _after_report(tracer: "Tracer", args: tuple, result) -> None:
    tracer.counts["keyrate.reports"] += 1
    if getattr(result, "key_length", 0.0) > 0.0:
        tracer.counts["keyrate.positive_reports"] += 1


def _after_extract(tracer: "Tracer", args: tuple, result) -> None:
    for outcome in getattr(result, "outcomes", ()):
        tracer.counts["keyrate.groups"] += 1
        if getattr(outcome, "report", None) is not None:
            tracer.counts["keyrate.groups_analyzed"] += 1


# Hooks that read arguments or results of a span for the per-layer counts.
_BEFORE = {
    "cli.write_tally_csv": _count_io(1, "cli.write_tally_csv.bytes"),
    "cli.read_tally_csv": _count_io(0, "cli.read_tally_csv.bytes"),
}
_AFTER = {
    "simulate.sample_drifting_tallies": _after_slices,
    "keyrate.analyze_tallies": _after_report,
    "keyrate.group_and_extract": _after_extract,
}


# One span: (name, start, end, index of the parent span or -1 for a root).
Span = tuple[str, float, float, int]


class Tracer:
    """Spans and counts of one pass."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def reset(self) -> None:
        # in place: the installed wrappers hold these containers
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def span_wrapper(self, name: str, fn: Callable) -> Callable:
        before, after = _BEFORE.get(name), _AFTER.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(self, args)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict[str, tuple[int, float]]:
        """Calls and self time per span name; counters appear with zero time."""
        calls: Counter[str] = Counter()
        self_s: dict[str, float] = {}
        for name, start, end, parent in self.spans:
            duration = end - start
            calls[name] += 1
            self_s[name] = self_s.get(name, 0.0) + duration
            if parent >= 0:
                parent_name = self.spans[parent][0]
                self_s[parent_name] = self_s.get(parent_name, 0.0) - duration
        out = {name: (calls[name], self_s[name]) for name in calls}
        for name, value in self.counts.items():
            out.setdefault(name, (value, 0.0))
        return out

    def dump(self) -> dict:
        """The pass's spans in a compact form for writing out."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        return {
            "names": names,
            "spans": [
                [index[name], round(start, 7), round(end, 7), parent]
                for name, start, end, parent in self.spans
            ],
            "counts": dict(self.counts),
        }


def _resolve(module_name: str, path: str):
    """(owner, attribute) of a dotted path in a module, or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1]


class Instrumentation:
    """Installs and removes the wrappers of ``TARGETS`` around one tracer."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object, object]] = []
        wrapped: dict[int, object] = {}
        for name, bindings, mode in TARGETS:
            for module_name, path in bindings:
                found = _resolve(module_name, path)
                if found is None:
                    self.absent.append(f"{module_name}.{path}")
                    continue
                owner, attr = found
                original = getattr(owner, attr)
                if id(original) not in wrapped:
                    make = tracer.span_wrapper if mode == "span" else tracer.count_wrapper
                    wrapped[id(original)] = make(name, original)
                self._patches.append((owner, attr, original, wrapped[id(original)]))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
