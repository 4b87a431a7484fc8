"""Byte-level golden outputs of the command-line front end.

Each case runs ``rfiqkd.cli.main`` in an empty working directory and
compares its exit code and stdout (stderr too, where a case records it)
with the files under ``tests/golden``. The README lists the shell commands
that regenerate them, and the last tests check that those commands are the
cases' own.
"""
import io
import shlex
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

# name -> (argv, exit code, golden file of stderr or None)
CASES = {
    "point": (["point"], cli.EXIT_OK, None),
    "point_50km": (["point", "--distance", "50"], cli.EXIT_OK, None),
    "scan": (["scan", "--config", GRID], cli.EXIT_OK, None),
    "compare": (["compare", "--config", GRID], cli.EXIT_OK, None),
    "compare_asymptotic": (["compare", "--config", GRID, "--asymptotic"], cli.EXIT_OK, None),
    "compare_beta": (["compare", "--config", GRID_BETA], cli.EXIT_OK, None),
    "compare_literal": (
        ["compare", "--config", GRID, "--literal-paper-formulas"],
        cli.EXIT_ERROR,
        "compare_literal_stderr",
    ),
    "simulate": (["simulate", "--seed", "7"], cli.EXIT_OK, None),
    "point_montecarlo": (MONTECARLO_POINT, cli.EXIT_OK, None),
    "process": (
        ["process", DUMP, "--config", DRIFT, "--groups", "6"], cli.EXIT_OK, None
    ),
    "show_defaults": (["point", "--show-defaults"], cli.EXIT_OK, None),
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def _golden(name: str) -> str:
    return (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path, monkeypatch):
    argv, expected_code, stderr_name = CASES[name]
    monkeypatch.chdir(tmp_path)
    if name == "process":
        assert _run(MONTECARLO_POINT)[0] == CASES["point_montecarlo"][1]
    code, out, err = _run(argv)
    assert code == expected_code, err
    assert out == _golden(name)
    if stderr_name is not None:
        assert err == _golden(stderr_name)


def _readme_commands():
    """(argv, stdout file, stderr file) of every README line that runs
    ``rfiqkd``, continuation lines joined and redirections split off."""
    text = README.read_text(encoding="utf-8").replace("\\\n", "")
    commands = []
    for line in text.splitlines():
        if not line.startswith("rfiqkd "):
            continue
        words = shlex.split(line, comments=True)[1:]
        redirects = {}
        while len(words) >= 2 and words[-2] in (">", "2>"):
            redirects[words[-2]] = words[-1]
            del words[-2:]
        commands.append((words, redirects.get(">"), redirects.get("2>")))
    return commands


@pytest.mark.parametrize("name", sorted(CASES))
def test_readme_command_is_the_case(name):
    argv, _, stderr_name = CASES[name]
    matches = [command for command in _readme_commands() if command[1] == f"{name}.txt"]
    assert len(matches) == 1, f"{len(matches)} README commands write {name}.txt"
    words, _, stderr_file = matches[0]
    # the cases read the .cfg files in tests/golden, the README copies of them
    assert words == [Path(w).name if w.endswith(".cfg") else w for w in argv]
    assert stderr_file == (None if stderr_name is None else f"{stderr_name}.txt")


def test_readme_writes_only_golden_files():
    written = {out for _, out, _ in _readme_commands() if out is not None}
    assert written == {f"{name}.txt" for name in CASES}
