"""Timed passes of one workload in a fresh process; prints one JSON line.

Started by ``run.py`` with the workload's work directory as its current
directory. Each pass makes the workload's CLI invocations through
``rfiqkd.cli.main`` in this process, the same code path as the console
script. Output checks run between passes, outside the timed interval.
Set-up samples in fresh interpreters are taken between passes. With
``--trace 1`` untraced and traced passes alternate, so the tracing
overhead is measured on the same machine state.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path
from typing import Callable

import numpy as np

import calib
import spans
import workloads
from workloads import Result

MIN_PASSES = 3
# Set-up samples per run, spread evenly over the timed passes: the machine
# changes speed every few seconds, so samples taken back to back all land
# in one state and runs disagree by up to 2x.
SETUP_SAMPLES = 16

# The reference work runs first, in the same fresh interpreter, so it sees
# the machine state of the import but none of the program's. It leaves the
# stdlib modules it shares with the program (dataclasses, math) imported.
_SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[2])
from calib import reference_seconds
ref = reference_seconds()
start = time.perf_counter()
import rfiqkd.cli as cli
load = getattr(cli, "load_config", None)
if load is not None:
    load(sys.argv[1])
print(time.perf_counter() - start, ref, cli.__file__)
"""


def _span(name: str, field: int):
    return lambda summary: summary.get(name, (0, 0.0))[field]


def _ratio(num: str, den: str):
    def value(summary):
        total = summary.get(den, (0, 0.0))[0]
        return summary.get(num, (0, 0.0))[0] / total if total else 0.0

    return value


CALLS, SELF_S = 0, 1

# Per-layer metrics read from one traced pass: (name, unit, better, getter).
# The end-to-end metric and workload each should move are listed in
# perfbench/README.md.
LAYER_METRICS = (
    ("channel.expected_tallies.calls", "count", "lower", _span("channel.expected_tallies", CALLS)),
    ("channel.expected_tallies.self_s", "s", "lower", _span("channel.expected_tallies", SELF_S)),
    ("channel.cell_expectation.calls", "count", "lower", _span("channel.cell_expectation", CALLS)),
    ("decoy.calls", "count", "lower", _span("decoy", CALLS)),
    ("decoy.self_s", "s", "lower", _span("decoy", SELF_S)),
    ("security.calls", "count", "lower", _span("security", CALLS)),
    ("security.self_s", "s", "lower", _span("security", SELF_S)),
    ("keyrate.analyze_tallies.calls", "count", "lower", _span("keyrate.analyze_tallies", CALLS)),
    ("keyrate.analyze_tallies.self_s", "s", "lower", _span("keyrate.analyze_tallies", SELF_S)),
    ("keyrate.key_length.calls", "count", "lower", _span("keyrate.key_length", CALLS)),
    ("keyrate.key_length.self_s", "s", "lower", _span("keyrate.key_length", SELF_S)),
    ("baselines.run_six_four.self_s", "s", "lower", _span("baselines.run_six_four", SELF_S)),
    ("baselines.run_six_state.self_s", "s", "lower", _span("baselines.run_six_state", SELF_S)),
    ("core.class_counts.calls", "count", "lower", _span("core.class_counts", CALLS)),
    ("core.class_counts.self_s", "s", "lower", _span("core.class_counts", SELF_S)),
    ("simulate.sample_drifting_tallies.self_s", "s", "lower", _span("simulate.sample_drifting_tallies", SELF_S)),
    ("simulate.observed.self_s", "s", "lower", _span("simulate.observed", SELF_S)),
    ("simulate.slices", "count", "higher", _span("simulate.slices", CALLS)),
    ("simulate.pulses", "count", "higher", _span("simulate.pulses", CALLS)),
    ("cli.write_tally_csv.self_s", "s", "lower", _span("cli.write_tally_csv", SELF_S)),
    ("cli.write_tally_csv.bytes", "bytes", "lower", _span("cli.write_tally_csv.bytes", CALLS)),
    ("cli.read_tally_csv.self_s", "s", "lower", _span("cli.read_tally_csv", SELF_S)),
    ("cli.read_tally_csv.bytes", "bytes", "lower", _span("cli.read_tally_csv.bytes", CALLS)),
    ("core.tallies_new.calls", "count", "lower", _span("core.tallies_new", CALLS)),
    ("core.tallies_add.calls", "count", "lower", _span("core.tallies_add", CALLS)),
    ("core.tallies_add.self_s", "s", "lower", _span("core.tallies_add", SELF_S)),
    ("keyrate.classify.calls", "count", "lower", _span("keyrate.classify", CALLS)),
    ("keyrate.classify.self_s", "s", "lower", _span("keyrate.classify", SELF_S)),
    ("keyrate.group_slices.self_s", "s", "lower", _span("keyrate.group_slices", SELF_S)),
    ("keyrate.group_and_extract.self_s", "s", "lower", _span("keyrate.group_and_extract", SELF_S)),
    ("cli.load_config.self_s", "s", "lower", _span("cli.load_config", SELF_S)),
    ("cli.cmd.self_s", "s", "lower", _span("cli.cmd", SELF_S)),
    ("cli.main.self_s", "s", "lower", _span("cli.main", SELF_S)),
    ("keyrate.groups_analyzed_ratio", "ratio", "higher", _ratio("keyrate.groups_analyzed", "keyrate.groups")),
    ("keyrate.positive_key_ratio", "ratio", "higher", _ratio("keyrate.positive_reports", "keyrate.reports")),
)

# Per-layer metrics measured around the passes rather than read from
# spans: (name, unit, better). ``run.py`` adds ``fail_ratio``, which also
# counts the check of the inputs.
RUN_METRICS = (
    ("trace.overhead_ratio", "ratio", "lower"),
    ("fail_ratio", "ratio", "lower"),
    ("wall_throughput", "units/s", "higher"),
    ("machine.ref_s", "s", "lower"),
)


def invoke(cli, argv) -> Result:
    """One CLI invocation with stdout captured and warnings counted."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(list(argv), out, err)
        except SystemExit as exc:  # argparse rejects the arguments
            return Result(1, out.getvalue(), len(caught), f"SystemExit({exc.code})")
        except Exception as exc:  # counted as a failed operation, not fatal
            return Result(1, out.getvalue(), len(caught), f"{type(exc).__name__}: {exc}")
    return Result(code, out.getvalue(), len(caught))


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{label}: {'; '.join(problems)}")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_source(module_file: str, src: Path) -> None:
    if Path(module_file).resolve().parent.parent != src.resolve():
        raise RuntimeError(f"rfiqkd imported from {module_file}, not from {src}")


def setup_seconds(src: Path, config: str) -> tuple[float, float]:
    """``import rfiqkd.cli`` plus ``load_config`` in a fresh interpreter.

    Returns the wall time and the reference time measured just before it
    in the same interpreter.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, config, str(Path(calib.__file__).parent)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60, check=True,
    )
    elapsed, ref, module_file = proc.stdout.split()
    check_source(module_file, src)
    return float(elapsed), float(ref)


def run(workload: str, size: workloads.Size, seconds: float, trace: bool, src: Path, spans_out: Path | None) -> dict:
    """Measure ``workload`` in the current directory, which holds its inputs."""
    cli = importlib.import_module("rfiqkd.cli")
    check_source(cli.__file__, src)
    plan = workloads.plan(workload, size)
    setup = None if trace else (lambda: setup_seconds(src, plan.setup_config))
    return measure(cli, plan, seconds, trace, spans_out, setup)


def measure(
    cli,
    plan: workloads.Plan,
    seconds: float,
    trace: bool,
    spans_out: Path | None,
    setup: Callable[[], tuple[float, float]] | None = None,
) -> dict:
    """Warm-up pass, then timed passes for ``seconds``; checks every output.

    ``setup`` takes one set-up sample; it is called between passes at even
    intervals, after one warm-up call.
    """
    tally = Tally()

    def one_pass() -> tuple[float, list[Result]]:
        start = time.perf_counter()
        results = [invoke(cli, op.argv) for op in plan.ops]
        return time.perf_counter() - start, results

    def check(results: list[Result], first: list[Result]) -> None:
        for op, result, expected in zip(plan.ops, results, first):
            problems = op.check(result)
            if result.stdout != expected.stdout:
                problems.append("stdout differs from the first pass")
            tally.record(op.argv[0], problems)

    # Warm-up pass: fills lazy imports and caches, and fixes the reference
    # output every later pass must reproduce byte for byte.
    _, first = one_pass()
    check(first, first)

    tracer = spans.Tracer()
    instrumentation = spans.Instrumentation(tracer) if trace else None
    untraced: list[tuple[float, float]] = []  # (raw seconds, reference seconds)
    traced: list[tuple[float, float]] = []
    summaries = []
    setup_samples: list[tuple[float, float]] = []  # (raw seconds, reference seconds)
    if setup is not None:
        setup()  # warm-up: compiles bytecode, fills the file cache
    setup_interval = seconds / SETUP_SAMPLES
    next_setup = time.perf_counter()
    deadline = next_setup + seconds
    with calib.Reference() as reference:
        ref_before = reference.seconds()
        index = 0
        while True:
            tracing = trace and index % 2 == 1
            if tracing:
                tracer.reset()
                instrumentation.install()
                try:
                    elapsed, results = one_pass()
                finally:
                    instrumentation.remove()
            else:
                elapsed, results = one_pass()
            ref_after = reference.seconds()
            (traced if tracing else untraced).append((elapsed, (ref_before + ref_after) / 2.0))
            if tracing:
                summaries.append(tracer.summary())
            check(results, first)
            if setup is not None and time.perf_counter() >= next_setup:
                setup_samples.append(setup())
                next_setup += setup_interval
                ref_after = reference.seconds()  # the machine moved on meanwhile
            ref_before = ref_after
            index += 1
            enough = min(len(untraced), len(traced)) >= 2 if trace else len(untraced) >= MIN_PASSES
            if enough and time.perf_counter() >= deadline:
                break

    while setup is not None and len(setup_samples) < MIN_PASSES:
        setup_samples.append(setup())
    if plan.final is not None:
        tally.record("final", plan.final(first, lambda argv: invoke(cli, argv)))

    def norm_median(samples):
        return statistics.median(calib.normalized(t, ref) for t, ref in samples)

    out = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "passes": len(untraced) + len(traced),
        "units": plan.units,
        "norm_pass_s": norm_median(untraced),
        "raw_pass_s": statistics.median(t for t, _ in untraced),
        "ref_s": statistics.median(ref for _, ref in untraced + traced),
        "pass_samples": untraced,
        "setup_samples": setup_samples,
        "setup_s": norm_median(setup_samples) if setup_samples else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sha256": {op.argv[0]: _digest(r.stdout) for op, r in zip(plan.ops, first)},
        "warnings": {op.argv[0]: r.warnings for op, r in zip(plan.ops, first)},
        "absent": instrumentation.absent if trace else [],
        "numpy": np.__version__,
    }
    if trace:
        layers = {
            name: statistics.median(getter(summary) for summary in summaries)
            for name, _, _, getter in LAYER_METRICS
        }
        layers["trace.overhead_ratio"] = norm_median(traced) / out["norm_pass_s"]
        layers["wall_throughput"] = plan.units / out["raw_pass_s"]
        layers["machine.ref_s"] = out["ref_s"]
        out["layers"] = layers
        if spans_out is not None:
            spans_out.write_text(json.dumps(tracer.dump()))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--spans-out", type=Path, default=None)
    args = parser.parse_args(argv)
    result = run(
        args.workload, workloads.FULL, args.seconds, bool(args.trace), args.src, args.spans_out
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
