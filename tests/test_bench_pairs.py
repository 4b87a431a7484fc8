"""The summary arithmetic of ``tools/bench_pairs.py`` on synthetic runs."""
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "throughput", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.02},
]


def run(side, seed, throughput, rss, failed=0, trace=0, workload="curves"):
    metrics = {"throughput": {"value": throughput, "unit": "units/s"},
               "peak_rss_mb": {"value": rss, "unit": "MiB"}}
    return {"side": side, "workload": workload, "seed": seed, "trace": trace,
            "result": {"correct": failed == 0, "attempted": 10, "failed": failed,
                       "metrics": metrics}}


RUNS = [
    run("parent", 1, 100.0, 40.0), run("change", 1, 150.0, 40.5),
    run("change", 2, 160.0, 39.0), run("parent", 2, 110.0, 40.0),
    run("parent", 3, 120.0, 41.0), run("change", 3, 120.0, 41.0, failed=1),
    run("parent", 4, 130.0, 40.0), run("change", 4, 170.0, 40.0),
    run("parent", 5, 1.0, 1.0, trace=1), run("change", 5, 9.0, 9.0, trace=1),
    run("parent", 6, 500.0, 60.0, workload="replay"),
]


def test_quartiles_interpolate_linearly():
    assert bench_pairs.quartiles([130.0, 100.0, 120.0, 110.0]) == {
        "median": 115.0, "q1": 107.5, "q3": 122.5, "n": 4
    }
    assert bench_pairs.quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}


def test_summary_of_synthetic_pairs():
    curves = bench_pairs.summarize(RUNS, END_TO_END)["curves"]
    throughput = curves["throughput"]
    assert throughput["parent"] == {"median": 115.0, "q1": 107.5, "q3": 122.5, "n": 4}
    assert throughput["change"] == {"median": 155.0, "q1": 142.5, "q3": 162.5, "n": 4}
    assert throughput["change_over_parent"] == pytest.approx(155.0 / 115.0)
    # seed 3 is a tie and counts for neither side; the traced seed 5 is no pair
    assert throughput["pairs_won_by_change"] == "3/4"
    # lower is better: only seed 2 is won, seeds 3 and 4 tie
    assert curves["peak_rss_mb"]["pairs_won_by_change"] == "1/4"
    assert curves["peak_rss_mb"]["change"]["median"] == 40.25
    assert curves["failed"] == {"parent": 0, "change": 1}


def test_a_workload_without_both_sides_has_no_metrics():
    replay = bench_pairs.summarize(RUNS, END_TO_END)["replay"]
    assert replay == {"failed": {"parent": 0, "change": 0}}


def test_seed_lists():
    assert bench_pairs.parse_seeds("61-63,70") == [61, 62, 63, 70]
    assert bench_pairs.parse_seeds("5") == [5]


def pairs(parent, change):
    """Untraced ``curves`` runs, one pair per seed, of throughput only."""
    runs = []
    for seed, (old, new) in enumerate(zip(parent, change)):
        runs += [run("parent", seed, old, 40.0), run("change", seed, new, 40.0)]
    return bench_pairs.summarize(runs, END_TO_END[:1])["curves"]["throughput"]


PARENT = [100.0, 104.0, 96.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0]


@pytest.mark.parametrize(
    "change,won,within_bound,gain_rule_met",
    [
        # a win: every pair, by 50 % against a parent quartile spread of 3.5
        ([value * 1.5 for value in PARENT], "10/10", True, True),
        # nine pairs won is enough, if the median moves past the spread
        ([value * 1.5 for value in PARENT[:9]] + [90.0], "9/10", True, True),
        # eight are not
        ([value * 1.5 for value in PARENT[:8]] + [90.0, 90.0], "8/10", True, False),
        # every pair won, but by less than the parent's quartile spread
        ([value + 1.0 for value in PARENT], "10/10", True, False),
        # a loss inside the 25 % bound
        ([value * 0.8 for value in PARENT], "0/10", True, False),
        # a regression beyond it
        ([value * 0.7 for value in PARENT], "0/10", False, False),
        # a tie counts for neither side
        (PARENT, "0/10", True, False),
    ],
)
def test_verdicts(change, won, within_bound, gain_rule_met):
    stats = pairs(PARENT, change)
    assert stats["pairs_won_by_change"] == won
    assert stats["within_bound"] is within_bound
    assert stats["gain_rule_met"] is gain_rule_met


def test_a_lower_is_better_bound_is_a_share_of_the_parent_median():
    runs = [run("parent", 1, 100.0, 50.0), run("change", 1, 100.0, 51.0),
            run("parent", 2, 100.0, 50.0), run("change", 2, 100.0, 51.5)]
    rss = bench_pairs.summarize(runs, END_TO_END)["curves"]["peak_rss_mb"]
    # 51.25 against 50 is 2.5 % worse: beyond the 2 % bound
    assert rss["within_bound"] is False
    runs[3] = run("change", 2, 100.0, 50.9)
    rss = bench_pairs.summarize(runs, END_TO_END)["curves"]["peak_rss_mb"]
    assert rss["within_bound"] is True



def test_runs_are_written_as_they_end(tmp_path, monkeypatch):
    # the third run fails: the first two are already in --out, and --append resumes
    calls = []

    def run_once(checkout, workload, seed, seconds, trace):
        calls.append((checkout, seed))
        if len(calls) == 3:
            raise RuntimeError("perfbench/run.py failed")
        result = run("x", seed, 100.0 + len(calls), 40.0)["result"]
        result["metrics"]["setup_s"] = {"value": 0.1, "unit": "s"}
        return result

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "unpack", lambda rev, into: None)
    monkeypatch.setattr(bench_pairs, "_git", lambda *args: "abc1234")
    out = tmp_path / "BENCH.json"
    argv = ["--parent", "HEAD", "--workload", "curves", "--seeds", "1-2", "--out", str(out)]
    with pytest.raises(RuntimeError):
        bench_pairs.main(argv)
    kept = bench_pairs.json.loads(out.read_text())
    assert [(r["side"], r["seed"]) for r in kept["runs"]] == [("parent", 1), ("change", 1)]
    assert kept["summary"]["curves"]["throughput"]["pairs_won_by_change"] == "1/1"

    bench_pairs.main(["--parent", "HEAD", "--workload", "curves", "--seeds", "2",
                      "--out", str(out), "--append"])
    resumed = bench_pairs.json.loads(out.read_text())
    assert [(r["side"], r["seed"]) for r in resumed["runs"]] == [
        ("parent", 1), ("change", 1), ("parent", 2), ("change", 2)
    ]


def test_append_to_a_missing_record_starts_it(tmp_path, monkeypatch):
    def run_once(checkout, workload, seed, seconds, trace):
        result = run("x", seed, 100.0, 40.0)["result"]
        result["metrics"]["setup_s"] = {"value": 0.1, "unit": "s"}
        return result

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "unpack", lambda rev, into: None)
    monkeypatch.setattr(bench_pairs, "_git", lambda *args: "abc1234")
    out = tmp_path / "BENCH.json"
    for workload in ("curves", "replay"):  # the first --append creates --out
        bench_pairs.main(["--parent", "HEAD", "--workload", workload, "--seeds", "1",
                          "--out", str(out), "--append"])
    record = bench_pairs.json.loads(out.read_text())
    assert [(r["workload"], r["side"]) for r in record["runs"]] == [
        ("curves", "parent"), ("curves", "change"), ("replay", "parent"), ("replay", "change")
    ]
    assert [line.split()[0] for line in record["order"]] == ["curves", "replay"]
    assert sorted(record["summary"]) == ["curves", "replay"]


def test_append_keeps_the_recorded_claim(tmp_path, monkeypatch):
    calls = []

    def run_once(checkout, workload, seed, seconds, trace):
        calls.append(seed)
        result = run("x", seed, 100.0, 40.0)["result"]
        result["metrics"]["setup_s"] = {"value": 0.1, "unit": "s"}
        return result

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "unpack", lambda rev, into: None)
    monkeypatch.setattr(bench_pairs, "_git", lambda *args: "abc1234")
    out = tmp_path / "BENCH.json"
    argv = ["--parent", "HEAD", "--seeds", "1", "--out", str(out)]
    bench_pairs.main([*argv, "--workload", "curves", "--claim", "throughput on curves"])
    # appending the other workloads, with the same claim or none, keeps it
    bench_pairs.main([*argv, "--workload", "replay", "--append"])
    bench_pairs.main([*argv, "--workload", "mc-drift", "--append", "--claim", "throughput on curves"])
    written = out.read_bytes()
    assert bench_pairs.json.loads(written)["claim"] == "throughput on curves"
    assert len(calls) == 6
    # another claim is refused before any run, and --out is left as it was
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main([*argv, "--workload", "replay", "--append", "--claim", "none"])
    assert exit_info.value.code != 0
    assert len(calls) == 6 and out.read_bytes() == written


def test_each_run_records_the_os_usage_of_its_children(tmp_path, monkeypatch):
    def run_once(checkout, workload, seed, seconds, trace):
        # a child that writes about 50 MB, so it takes some 12800 fresh pages
        bench_pairs.subprocess.run([bench_pairs.sys.executable, "-c", "b'x' * (50 << 20)"], check=True)
        result = run("x", seed, 100.0, 40.0)["result"]
        result["metrics"]["setup_s"] = {"value": 0.1, "unit": "s"}
        return result

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "unpack", lambda rev, into: None)
    monkeypatch.setattr(bench_pairs, "_git", lambda *args: "abc1234")
    out = tmp_path / "BENCH.json"
    bench_pairs.main(["--parent", "HEAD", "--workload", "curves", "--seeds", "1", "--out", str(out)])
    runs = bench_pairs.json.loads(out.read_text())["runs"]
    assert len(runs) == 2
    for entry in runs:
        usage = entry["rusage"]
        assert sorted(usage) == ["majflt", "minflt", "stime_s", "utime_s"]
        assert all(value >= 0 for value in usage.values())
        assert usage["minflt"] > 5000


def test_both_sides_run_outside_the_repository(tmp_path, monkeypatch):
    # a repository with one commit, then an edit, an untracked file, an
    # ignored file and a deletion that are not committed
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "BENCHMARK.json").write_text(bench_pairs.json.dumps(
        {"run_seconds": 1, "end_to_end": END_TO_END}
    ))
    (repo / "perfbench" / "run.py").write_text("committed\n")
    (repo / "gone.txt").write_text("deleted later\n")
    (repo / ".gitignore").write_text("ignored.txt\n")
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "parent"]):
        bench_pairs.subprocess.run(git + args, cwd=repo, check=True, capture_output=True)
    (repo / "perfbench" / "run.py").write_text("edited\n")
    (repo / "untracked.txt").write_text("new\n")
    (repo / "ignored.txt").write_text("left out\n")
    (repo / "gone.txt").unlink()

    seen = []  # the first pair runs the parent first

    def run_once(checkout, workload, seed, seconds, trace):
        files = sorted(str(path.relative_to(checkout)) for path in checkout.rglob("*") if path.is_file())
        seen.append((checkout, files, (checkout / "perfbench" / "run.py").read_text()))
        return run("x", seed, 100.0, 40.0)["result"]

    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    bench_pairs.main(["--parent", "HEAD", "--workload", "curves", "--seeds", "1",
                      "--out", str(tmp_path / "BENCH.json")])
    (parent, parent_files, parent_run), (change, change_files, change_run) = seen
    for checkout in (parent, change):
        assert repo not in (checkout, *checkout.parents)
        assert not checkout.exists()  # removed after the runs
    assert parent_files == [".gitignore", "BENCHMARK.json", "gone.txt", "perfbench/run.py"]
    assert parent_run == "committed\n"
    assert change_files == [".gitignore", "BENCHMARK.json", "perfbench/run.py", "untracked.txt"]
    assert change_run == "edited\n"
