"""Byte-level golden outputs of the command-line front end.

Each case runs ``rfiqkd.cli.main`` in an empty working directory and
compares its exit code and stdout with the files under ``tests/golden``.
The README lists the shell commands that regenerate them, each with its
exit code, and the last tests check that those commands are the cases' own.
"""
import io
import shlex
import warnings
from pathlib import Path

import pytest

from rfiqkd import cli

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"
GRID = str(GOLDEN / "grid.cfg")
GRID_BETA = str(GOLDEN / "grid_beta.cfg")
DRIFT = str(GOLDEN / "drift.cfg")
DUMP = "drift_tallies.csv"

MONTECARLO_POINT = [
    "point", "--config", DRIFT, "--mode", "montecarlo", "--groups", "6",
    "--dump-tallies", DUMP,
]

# name -> (argv, exit code)
CASES = {
    "point": (["point"], cli.EXIT_OK),
    "point_50km": (["point", "--distance", "50"], cli.EXIT_OK),
    "scan": (["scan", "--config", GRID], cli.EXIT_OK),
    "compare": (["compare", "--config", GRID], cli.EXIT_OK),
    "compare_asymptotic": (["compare", "--config", GRID, "--asymptotic"], cli.EXIT_OK),
    "compare_beta": (["compare", "--config", GRID_BETA], cli.EXIT_OK),
    "compare_literal": (
        ["compare", "--config", GRID, "--literal-paper-formulas"], cli.EXIT_NO_KEY
    ),
    "simulate": (["simulate", "--seed", "7"], cli.EXIT_OK),
    "point_montecarlo": (MONTECARLO_POINT, cli.EXIT_OK),
    "process": (["process", DUMP, "--config", DRIFT, "--groups", "6"], cli.EXIT_OK),
    "show_defaults": (["point", "--show-defaults"], cli.EXIT_OK),
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def _golden(name: str) -> str:
    return (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path, monkeypatch):
    argv, expected_code = CASES[name]
    monkeypatch.chdir(tmp_path)
    if name == "process":
        assert _run(MONTECARLO_POINT)[0] == CASES["point_montecarlo"][1]
    code, out, err = _run(argv)
    assert code == expected_code, err
    assert out == _golden(name)


# each golden compare run's rfi66 rows (of 183) that carry ie_mixing_clamped and
# ie_radicand_clamped: one per clamp the six-state leak bound takes, the radicand's
# only under the literal formulas
SIX_STATE_CLAMPS = {
    "compare": (94, 0),
    "compare_asymptotic": (155, 0),
    "compare_beta": (117, 0),
    "compare_literal": (0, 183),
}


@pytest.mark.parametrize("name", sorted(SIX_STATE_CLAMPS))
def test_compare_reports_six_state_clamps_as_flags_and_warns_about_nothing(
    name, tmp_path, monkeypatch
):
    argv, expected_code = CASES[name]
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(argv)
    assert (code, err) == (expected_code, "")
    rows = [row.rsplit(",", 1)[1].split(";") for row in out.splitlines() if ",rfi66," in row]
    assert len(rows) == 183
    counts = tuple(sum(flag in row for row in rows) for flag in ("ie_mixing_clamped", "ie_radicand_clamped"))
    assert counts == SIX_STATE_CLAMPS[name]


def _readme_commands():
    """(argv, stdout file, exit code) of every README line that runs ``rfiqkd``,
    continuation lines joined, the redirection split off and the exit code
    read from a trailing ``# exit N`` comment, 0 without one."""
    text = README.read_text(encoding="utf-8").replace("\\\n", "")
    commands = []
    for line in text.splitlines():
        if not line.startswith("rfiqkd "):
            continue
        line, _, comment = line.partition("#")
        words = shlex.split(line)[1:]
        stdout = None
        if len(words) >= 2 and words[-2] == ">":
            stdout = words[-1]
            del words[-2:]
        code = comment.split()
        commands.append((words, stdout, int(code[1]) if code[:1] == ["exit"] else 0))
    return commands


@pytest.mark.parametrize("name", sorted(CASES))
def test_readme_command_is_the_case(name):
    argv, expected_code = CASES[name]
    matches = [command for command in _readme_commands() if command[1] == f"{name}.txt"]
    assert len(matches) == 1, f"{len(matches)} README commands write {name}.txt"
    words, _, code = matches[0]
    # the cases read the .cfg files in tests/golden, the README copies of them
    assert words == [Path(w).name if w.endswith(".cfg") else w for w in argv]
    assert code == expected_code


def test_readme_writes_only_golden_files():
    written = {out for _, out, _ in _readme_commands() if out is not None}
    assert written == {f"{name}.txt" for name in CASES}
