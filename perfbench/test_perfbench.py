"""Tests of the benchmark itself: tiny smoke runs and negative checks.

Run with ``python -m pytest perfbench`` from the repository root.
"""
from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import worker
import workloads
from workloads import Result, TINY

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    import rfiqkd.cli  # noqa: F401  (import before leaving the repository root)

    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke_run_has_no_failures(workdir, name, trace):
    workloads.make_inputs(name, 3, workdir, TINY)
    out = worker.run(name, TINY, 0.0, trace, SRC, workdir / "spans.json" if trace else None)
    assert out["failed"] == 0, out["problems"]
    assert out["attempted"] >= 4 * len(workloads.plan(name, TINY).ops)
    assert out["norm_pass_s"] > 0.0
    assert len(out["setup_samples"]) == (0 if trace else worker.MIN_PASSES)
    if trace:
        names = {m[0] for m in worker.LAYER_METRICS} | {m[0] for m in worker.RUN_METRICS}
        assert set(out["layers"]) | {"fail_ratio"} == names  # run.py adds fail_ratio
        assert out["absent"] == []
        assert json.loads((workdir / "spans.json").read_text())["spans"]


def test_tracing_leaves_the_program_unpatched(workdir):
    import rfiqkd.keyrate as keyrate

    original = keyrate.analyze_tallies
    workloads.make_inputs("curves", 0, workdir, TINY)
    worker.run("curves", TINY, 0.0, True, SRC, None)
    assert keyrate.analyze_tallies is original


def test_inputs_depend_only_on_seed(tmp_path):
    a, b, c = (tmp_path / d for d in "abc")
    for path, seed in ((a, 5), (b, 5), (c, 6)):
        path.mkdir()
        workloads.make_inputs("replay", seed, path, TINY)
    assert (a / "replay.csv").read_bytes() == (b / "replay.csv").read_bytes()
    assert (a / "replay.csv").read_bytes() != (c / "replay.csv").read_bytes()


def test_replay_input_is_accepted_and_adds_up(workdir):
    import rfiqkd.cli as cli

    workloads.make_inputs("replay", 1, workdir, TINY)
    n_total = (workloads.N_TOTAL // TINY.replay_slices) * TINY.replay_slices
    path = Path("replay.csv")
    assert workloads.check_replay_input(cli, path, TINY.replay_slices, n_total) == []
    assert workloads.check_replay_input(cli, path, TINY.replay_slices, n_total + 1)


# ---------------------------------------------------------------------------
# corrupted outputs count as failures


def _run_cli(argv) -> Result:
    import rfiqkd.cli as cli

    return worker.invoke(cli, argv)


def test_dropped_scan_row_fails(workdir):
    workloads.make_inputs("curves", 0, workdir, TINY)
    result = _run_cli(["scan", "--config", "scan.cfg"])
    assert workloads.check_scan(result, TINY) == []
    lines = result.stdout.splitlines()
    dropped = Result(result.code, "\n".join(lines[:-1]) + "\n")
    assert workloads.check_scan(dropped, TINY)
    header, first = lines[0], lines[1].split(",")
    col = header.split(",").index("key_rate")
    for bad in ("nan", "-1e-9"):
        row = list(first)
        row[col] = bad
        corrupted = Result(result.code, "\n".join([header, ",".join(row)] + lines[2:]) + "\n")
        assert workloads.check_scan(corrupted, TINY)


def test_compare_missing_protocol_fails(workdir):
    workloads.make_inputs("curves", 0, workdir, TINY)
    result = _run_cli(["compare", "--config", "compare.cfg"])
    assert workloads.check_compare(result, TINY) == []
    lines = result.stdout.splitlines()
    # the third protocol of the first point replaced by a copy of the second
    corrupted = Result(result.code, "\n".join(lines[:3] + [lines[2]] + lines[4:]) + "\n")
    assert workloads.check_compare(corrupted, TINY)


def test_error_exit_and_exception_fail():
    assert workloads.check_scan(Result(1, ""), TINY)
    assert workloads.check_groups(Result(0, "", error="KeyError: 'x'"), 1, 1)


def test_dump_with_wrong_sent_totals_fails(tmp_path):
    rng = np.random.default_rng(0)
    text = workloads.replay_csv(rng, 3, 1000)
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text(text)
    assert workloads.check_dump(good, 3, 3000) == []
    lines = text.splitlines()
    fields = lines[1].split(",")
    fields[4] = str(int(fields[4]) + 1)
    bad.write_text("\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n")
    assert workloads.check_dump(bad, 3, 3000)
    assert workloads.check_dump(good, 4, 3000)


def test_group_totals_must_cover_the_file():
    report = (
        "group 0: rho=[0,3.14) slices=2 pulses=200\n"
        "group 1: rho=[3.14,6.28) slices=1 pulses=100\n"
        "key_length = 5\n"
    )
    assert workloads.check_groups(Result(0, report), 3, 300) == []
    assert workloads.check_groups(Result(0, report), 3, 301)
    assert workloads.check_groups(Result(0, report), 4, 300)
    assert workloads.check_groups(Result(0, "key_length = 5\n"), 3, 300)


def test_process_that_does_not_reproduce_point_fails():
    point = Result(0, "distance_km = 50\ngroup 0: slices=1 pulses=1\nkey_length = 5\n")
    same = Result(0, "tally_file = x\ngroup 0: slices=1 pulses=1\nkey_length = 5\n")
    other = Result(0, "tally_file = x\ngroup 0: slices=1 pulses=1\nkey_length = 6\n")
    assert workloads.check_reproduces(point, same) == []
    assert workloads.check_reproduces(point, other)


class _DriftingCli:
    """A stand-in for the program whose output changes on every call."""

    def __init__(self) -> None:
        self.calls = 0

    def main(self, argv, out, err) -> int:
        self.calls += 1
        out.write(f"run {self.calls}\n")
        return 0


def test_output_that_changes_between_passes_fails():
    plan = workloads.Plan(ops=(workloads.Op(("scan",), lambda r: []),), units=1, setup_config="")
    out = worker.measure(_DriftingCli(), plan, 0.0, False, None)
    assert out["attempted"] == 1 + worker.MIN_PASSES
    assert out["failed"] == worker.MIN_PASSES


# ---------------------------------------------------------------------------
# tracing


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    tracer.spans.extend([("outer", 0.0, 10.0, -1), ("inner", 2.0, 5.0, 0), ("inner", 6.0, 7.0, 0)])
    tracer.counts["hits"] = 4
    assert tracer.summary() == {"outer": (1, 6.0), "inner": (2, 4.0), "hits": (4, 0.0)}


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.setattr(
        spans, "TARGETS", spans.TARGETS + (("gone", (("rfiqkd.keyrate", "no_such_function"),), "span"),)
    )
    instrumentation = spans.Instrumentation(spans.Tracer())
    assert instrumentation.absent == ["rfiqkd.keyrate.no_such_function"]


def test_counting_proxy_counts_characters():
    tracer = spans.Tracer()
    handle = spans._CountingIO(io.StringIO(), tracer, "n")
    handle.write("abc")
    handle.write("de")
    assert tracer.counts["n"] == 5


# ---------------------------------------------------------------------------
# the command and its contract


def test_benchmark_json_lists_what_the_command_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layers = [(m[0], m[1], m[2]) for m in worker.LAYER_METRICS] + list(worker.RUN_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers


def _copy_benchmark(dest: Path, with_program: bool) -> None:
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_program:
        shutil.copytree(SRC, dest / "src", ignore=shutil.ignore_patterns("__pycache__"))


def _command() -> list[str]:
    # replay: the only workload whose inputs are checked before the passes
    return [
        sys.executable, "perfbench/run.py", "--workload", "replay", "--seed", "2",
        "--seconds", "0", "--trace", "0",
    ]


def test_command_prints_the_result_line(tmp_path):
    _copy_benchmark(tmp_path, with_program=True)
    proc = subprocess.run(_command(), cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + 1 + worker.MIN_PASSES  # inputs, warm-up, passes
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert [p.name for p in (tmp_path / ".perfbench_runs").iterdir()] == ["results"]


def test_command_fails_without_the_program(tmp_path):
    _copy_benchmark(tmp_path, with_program=False)
    proc = subprocess.run(_command(), cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
