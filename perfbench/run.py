"""rfiqkd benchmark: one workload per run, end to end or traced per layer.

    python3 perfbench/run.py --workload curves --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The run writes the workload's inputs from ``--seed`` into a
scratch directory under ``.perfbench_runs/``, checks them where the
workload has a check of its inputs, runs the timed passes and the set-up
samples in one fresh worker process, and prints as its last line one
JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` gives the
end-to-end metrics, ``--trace 1`` the per-layer ones. A fuller record of
the run (environment, output digests, warnings) goes to
``.perfbench_runs/results/``. Workloads, metrics and the layer map are
described in ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import workloads
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

# (name, unit); every value is measured with tracing off.
END_TO_END = (
    ("throughput", "units/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

# Worker start, warm-up pass, the pass that crosses the deadline and the
# final check, on top of --seconds.
WORKER_SLACK_S = 120


def run_worker(args, workdir: Path, spans_out: Path) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--src", str(SRC), "--spans-out", str(spans_out),
    ]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=workdir,
        timeout=args.seconds + WORKER_SLACK_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_inputs(plan: workloads.Plan, workdir: Path) -> list[str] | None:
    """The plan's check of its inputs, run here so the worker's memory
    high-water mark holds only the program's own use; None if it has none."""
    if plan.preflight is None:
        return None
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("rfiqkd.cli")
    worker.check_source(cli.__file__, SRC)
    try:
        return plan.preflight(cli, workdir)
    except Exception as exc:  # counted as a failed operation, not fatal
        return [f"raised {type(exc).__name__}: {exc}"]


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=30
    )
    return proc.stdout.strip() or None


def _environment() -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rfiqkd" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'rfiqkd'}", file=sys.stderr)
        return 1

    env = _environment()
    results_dir = RUNS / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = RUNS / f"{stem}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workloads.make_inputs(args.workload, args.seed, workdir, workloads.FULL)
        input_problems = check_inputs(workloads.plan(args.workload, workloads.FULL), workdir)
        run = run_worker(args, workdir, results_dir / f"{stem}.spans.json")
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if input_problems is not None:
        run["attempted"] += 1
        if input_problems:
            run["failed"] += 1
            run["problems"].insert(0, f"inputs: {'; '.join(input_problems)}")

    if args.trace:
        run["layers"]["fail_ratio"] = run["failed"] / run["attempted"]
        units = {name: unit for name, unit, _ in worker.RUN_METRICS}
        units.update((name, unit) for name, unit, _, _ in worker.LAYER_METRICS)
        metrics = {name: _metric(value, units[name]) for name, value in run["layers"].items()}
    else:
        values = {
            "throughput": run["units"] / run["norm_pass_s"],
            "setup_s": run["setup_s"],
            "peak_rss_mb": run["peak_rss_mb"],
        }
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}

    summary = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    record = dict(
        summary,
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        environment=dict(env, numpy=run["numpy"]),
        passes=run["passes"], units_per_pass=run["units"],
        raw_pass_s=run["raw_pass_s"], ref_s=run["ref_s"],
        pass_samples=run["pass_samples"], setup_samples=run["setup_samples"],
        problems=run["problems"], stdout_sha256=run["sha256"], warnings=run["warnings"],
        absent=run["absent"],
    )
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    for problem in run["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if run["absent"]:
        print(f"absent from the program: {', '.join(run['absent'])}", file=sys.stderr)
    print(
        f"info: stdout sha256 {run['sha256']}, warnings {run['warnings']}, {env}",
        file=sys.stderr,
    )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
