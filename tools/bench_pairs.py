"""Alternating benchmark pairs: a parent commit against the working tree.

    python3 tools/bench_pairs.py --parent 842e75b --workload curves \\
        --seeds 61-70 --out BENCH_9.json

Run from anywhere inside the repository. Each side is unpacked into its
own fresh temporary directory (under ``$TMPDIR``), removed afterwards, so
the repository gets no worktree or branch and neither side runs in it: the
parent's committed files with ``git archive``, the change's from the
working tree, tracked and untracked files that git does not ignore, as
they are on disk. Every run lasts ``run_seconds`` of ``BENCHMARK.json``,
on both sides. For each seed, ``perfbench/run.py`` runs once in each
directory; even-numbered pairs run the parent first, odd ones the change.
Every run's result line is kept, beside the run's minor and major page
faults and user and system CPU seconds as the operating system counts
them (``rusage``: the change in ``getrusage`` of this process's finished
children over the run), and ``--out`` is written again after each run, so
a failing run loses none of the earlier ones; ``--append`` adds the new
runs to those already in ``--out``, which resumes such a session, or
starts ``--out`` when it does not exist yet; it keeps the recorded claim,
and a ``--claim`` that differs from it is a usage error, raised before any
run.
The summary, per workload and end-to-end metric of the untraced runs,
gives each side's median, quartiles (linear interpolation) and run count,
the ratio of the medians and the pairs the change won, in the direction
``BENCHMARK.json`` names; a tie counts for neither side. Two verdicts
follow: ``within_bound``, the
change's median is no worse than the parent's by more than the metric's
``bound`` (a share of the parent's median), and ``gain_rule_met``, the
change won at least nine tenths of the pairs and its median is better by
more than the distance between the parent's quartiles.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """``"61-63,70"`` -> ``[61, 62, 63, 70]``."""
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def quartiles(values: list[float]) -> dict:
    """Median, first and third quartile (linear interpolation) and count."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload, the untraced runs of each side per end-to-end metric.

    ``end_to_end`` holds ``BENCHMARK.json``'s entries: each metric's
    ``name``, the direction it is ``better`` in (``"higher"`` or
    ``"lower"``) and its ``bound``. Pairs are the parent and change runs of
    one (workload, seed).
    """
    summary: dict[str, dict] = {}
    untraced = [run for run in runs if run["trace"] == 0]
    for workload in sorted({run["workload"] for run in untraced}):
        by_side: dict[str, dict[int, dict]] = {"parent": {}, "change": {}}
        for run in untraced:
            if run["workload"] == workload:
                by_side[run["side"]][run["seed"]] = run["result"]
        paired = sorted(set(by_side["parent"]) & set(by_side["change"]))
        entry: dict[str, dict] = {}
        for spec in end_to_end:
            metric = spec["name"]
            value = {
                side: {seed: result["metrics"][metric]["value"] for seed, result in results.items()}
                for side, results in by_side.items()
            }
            if not value["parent"] or not value["change"]:
                continue
            sign = 1.0 if spec["better"] == "higher" else -1.0
            won = sum(sign * (value["change"][s] - value["parent"][s]) > 0.0 for s in paired)
            parent, change = (quartiles(list(value[side].values())) for side in ("parent", "change"))
            gain = sign * (change["median"] - parent["median"])
            entry[metric] = {
                "parent": parent,
                "change": change,
                "change_over_parent": change["median"] / parent["median"],
                "pairs_won_by_change": f"{won}/{len(paired)}",
                "within_bound": gain >= -spec["bound"] * abs(parent["median"]),
                "gain_rule_met": (
                    bool(paired) and 10 * won >= 9 * len(paired)
                    and gain > parent["q3"] - parent["q1"]
                ),
            }
        entry["failed"] = {
            side: sum(result["failed"] for result in results.values())
            for side, results in by_side.items()
        }
        summary[workload] = entry
    return summary


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def unpack(rev: str | None, into: Path) -> None:
    """The committed files of ``rev``, or with ``rev`` None the working
    tree's files that git does not ignore, written into ``into``."""
    if rev is not None:
        archive = subprocess.run(
            ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(into, filter="data")
        return
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.split("\0")):
        # a tracked file deleted from the working tree is still listed
        if (ROOT / name).is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, into / name)


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result line of one ``perfbench/run.py`` run in ``checkout``."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 61-70 or 1,5,9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write")
    parser.add_argument("--append", action="store_true", help="keep the runs already in --out")
    parser.add_argument("--claim", help="the claim these runs test, recorded as given")
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    resume = args.append and args.out.exists()
    record = json.loads(args.out.read_text()) if resume else {"runs": [], "order": []}
    if resume and args.claim is not None and args.claim != record.get("claim"):
        parser.error(f"--claim differs from the claim recorded in {args.out}: {record.get('claim')!r}")
    record["order"].append(
        f"{args.workload} trace {args.trace} seeds {args.seeds}: even pairs run the parent first"
    )

    def write() -> None:
        record.update(
            claim=record.get("claim") if resume else args.claim,
            command=f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace X",
            host={"nproc": os.cpu_count(), "python": platform.python_version(),
                  "numpy": numpy.__version__},
            parent=_git("rev-parse", "--short", args.parent),
            change=_git("describe", "--always", "--dirty"),
            summary=summarize(record["runs"], spec["end_to_end"]),
        )
        args.out.write_text(json.dumps(record, indent=1) + "\n")

    sides = {side: Path(tempfile.mkdtemp(prefix=f"bench-{side}-")) for side in ("parent", "change")}
    try:
        unpack(args.parent, sides["parent"])
        unpack(None, sides["change"])
        for index, seed in enumerate(args.seeds):
            for side in ("parent", "change") if index % 2 == 0 else ("change", "parent"):
                before = resource.getrusage(resource.RUSAGE_CHILDREN)
                result = run_once(sides[side], args.workload, seed, seconds, args.trace)
                after = resource.getrusage(resource.RUSAGE_CHILDREN)
                record["runs"].append({
                    "side": side, "workload": args.workload, "seed": seed,
                    "seconds": seconds, "trace": args.trace, "result": result,
                    "rusage": {
                        "minflt": after.ru_minflt - before.ru_minflt,
                        "majflt": after.ru_majflt - before.ru_majflt,
                        "utime_s": round(after.ru_utime - before.ru_utime, 6),
                        "stime_s": round(after.ru_stime - before.ru_stime, 6),
                    },
                })
                # every run is kept as it ends: a later failure loses none, and
                # --append resumes the session
                write()
                print(f"{args.workload} seed {seed} {side}: {json.dumps(result)}", file=sys.stderr)
    finally:
        for checkout in sides.values():
            shutil.rmtree(checkout, ignore_errors=True)
    write()
    for workload, entry in record["summary"].items():
        for metric, stats in entry.items():
            if metric != "failed":
                print(
                    f"{workload} {metric}: parent {stats['parent']['median']:.6g}, change "
                    f"{stats['change']['median']:.6g} ({stats['change_over_parent']:.3f}x), "
                    f"pairs won {stats['pairs_won_by_change']}, within bound "
                    f"{stats['within_bound']}, gain rule met {stats['gain_rule_met']}",
                    file=sys.stderr,
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
