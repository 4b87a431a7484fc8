"""Workload inputs, the CLI invocations of one pass, and their output checks.

Inputs come from the benchmark seed only; the program sees nothing but the
generated files and arguments. Every check here must hold for any correct
program, so they test structure and bookkeeping (row counts, finiteness,
totals, determinism), never the estimated numbers themselves.
"""
from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, TextIO

import numpy as np

WORKLOADS = ("curves", "mc-drift", "replay")

# Parameters the generated inputs share with the program's defaults. The
# replay generator uses them to draw plausible counts; the program never
# sees them except through the files below.
MU, NU, OMEGA = 0.55, 0.28, 0.0
P_KIND = (0.54, 0.36, 0.10)
P_Z_ALICE = 0.77
E0, E_D, ETA_DET = 0.01, 1.3e-7, 0.6
ALPHA_DB_PER_KM, ETA_Z_DB, ETA_XY_DB = 0.19, 4.0, 9.0

STATES = ("Z0", "Z1", "X0", "Y0")
BASES = ("Z", "X")
KINDS = ("mu", "nu", "omega")

DISTANCE_KM = 50.0
N_TOTAL = 3_000_000_000_000
M_GROUPS = 6


@dataclass(frozen=True)
class Size:
    scan_step_km: float
    compare_step_km: float
    n_values: tuple[int, ...]
    mc_slices: int
    replay_slices: int


FULL = Size(1.0, 5.0, (10**10, 10**11, 10**12, 10**13), 1000, 4000)
# For the benchmark's own tests only.
TINY = Size(60.0, 100.0, (10**11, 10**12), 10, 24)

SCAN_MAX_KM = 300.0


@dataclass
class Result:
    """What one CLI invocation returned."""

    code: int
    stdout: str
    warnings: int = 0
    error: str | None = None


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the checks its result must pass."""

    argv: tuple[str, ...]
    check: Callable[[Result], list[str]]


@dataclass(frozen=True)
class Plan:
    """The invocations of one pass and how many workload units it covers."""

    ops: tuple[Op, ...]
    units: int
    setup_config: str  # config file that ``setup_s`` loads
    # run once on the inputs, outside the measured worker, given the
    # program's cli module and the work directory
    preflight: Callable[[object, Path], list[str]] | None = None
    # run once after them, given the first pass's results and a way to
    # make one more invocation
    final: Callable[[list[Result], Callable[[list[str]], Result]], list[str]] | None = None


# ---------------------------------------------------------------------------
# inputs


def _grid(step: float) -> list[float]:
    count = int(math.floor(SCAN_MAX_KM / step + 1e-9)) + 1
    return [i * step for i in range(count)]


def _write_config(path: Path, values: dict[str, object]) -> None:
    path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))


def make_inputs(name: str, seed: int, workdir: Path, size: Size) -> None:
    """Write the input files of ``name`` for ``seed`` into ``workdir``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "curves":
        # beta is the frame angle the protocol should not care about; a
        # small seeded offset varies the input without moving the cutoff.
        common = {
            "beta_rad": repr(float(rng.uniform(0.0, 0.1))),
            "scan_min_km": 0,
            "scan_max_km": SCAN_MAX_KM,
            "n_values": ",".join(str(n) for n in size.n_values),
        }
        _write_config(workdir / "scan.cfg", dict(common, scan_step_km=size.scan_step_km))
        _write_config(
            workdir / "compare.cfg", dict(common, scan_step_km=size.compare_step_km)
        )
    elif name == "mc-drift":
        _write_config(
            workdir / "mc.cfg",
            {
                "distance_km": DISTANCE_KM,
                "n_total": N_TOTAL,
                "n_slices": size.mc_slices,
                "drift": "linear",
                "drift_beta0_rad": repr(float(rng.uniform(0.0, 2.0 * math.pi))),
                "drift_rate_rad": repr(2.0 * math.pi),
                "seed": int(rng.integers(0, 2**31)),
            },
        )
    elif name == "replay":
        pulses_per_slice = N_TOTAL // size.replay_slices
        text = replay_csv(rng, size.replay_slices, pulses_per_slice)
        (workdir / "replay.csv").write_text(text)
        _write_config(
            workdir / "replay.cfg",
            {"distance_km": DISTANCE_KM, "n_total": pulses_per_slice * size.replay_slices},
        )
    else:
        raise ValueError(f"unknown workload {name!r}")


def _transmittance(path_db: float) -> float:
    return 10.0 ** (-(ALPHA_DB_PER_KM * DISTANCE_KM + path_db) / 10.0) * ETA_DET


def replay_csv(rng: np.random.Generator, n_slices: int, pulses_per_slice: int) -> str:
    """A sliced tally CSV drawn around a rotation angle that turns once.

    Counts are binomial draws from the weak-coherent-pulse channel model;
    this generator is independent of ``rfiqkd.simulate`` so the input does
    not change when the program's random streams do.
    """
    beta = (rng.uniform(0.0, 2.0 * math.pi) + 2.0 * math.pi * np.arange(n_slices) / n_slices)
    p_state = np.array([P_Z_ALICE / 2, P_Z_ALICE / 2, (1 - P_Z_ALICE) / 2, (1 - P_Z_ALICE) / 2])
    pair_p = (p_state[:, None] * np.array(P_KIND)[None, :]).ravel()
    pair_p /= pair_p.sum()
    sent = rng.multinomial(pulses_per_slice, pair_p, size=n_slices).reshape(n_slices, 4, 3)
    routed_z = rng.binomial(sent, 0.5)
    routed = np.stack([routed_z, sent - routed_z], axis=2)  # slice, state, basis, kind

    visibility = 1.0 - 2.0 * E0
    e_mis = np.empty((n_slices, 4, 2))
    e_mis[:, :2, 0] = E0
    e_mis[:, 2:, 0] = 0.5
    e_mis[:, :2, 1] = 0.5
    e_mis[:, 2, 1] = (1.0 - visibility * np.cos(beta)) / 2.0
    e_mis[:, 3, 1] = (1.0 - visibility * np.sin(beta)) / 2.0
    eta = np.array([_transmittance(ETA_Z_DB), _transmittance(ETA_XY_DB)])
    absorbed = np.exp(-eta[:, None] * np.array([MU, NU, OMEGA])[None, :])  # basis, kind
    gain = 1.0 - (1.0 - E_D) * absorbed
    qber = (E_D / 2.0 + e_mis[..., None] * (1.0 - absorbed)) / gain
    detected = rng.binomial(routed, np.broadcast_to(gain, routed.shape))
    errors = rng.binomial(detected, np.minimum(qber, 1.0))

    labels = [(s, b, k) for s in STATES for b in BASES for k in KINDS]
    sent_rows = np.repeat(sent[:, :, None, :], 2, axis=2).reshape(n_slices, -1)
    det_rows = detected.reshape(n_slices, -1)
    err_rows = errors.reshape(n_slices, -1)
    lines = ["slice,state,basis,intensity,sent,detected,errors"]
    for i in range(n_slices):
        for (s, b, k), n, d, e in zip(labels, sent_rows[i], det_rows[i], err_rows[i]):
            lines.append(f"{i},{s},{b},{k},{n},{d},{e}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# checks


def _exit_ok(result: Result) -> list[str]:
    if result.error is not None:
        return [f"raised {result.error}"]
    if result.code not in (0, 2):
        return [f"exit code {result.code}"]
    return []


def _rows(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return (rows[0], rows[1:]) if rows else ([], [])


def _numeric_problems(header: list[str], rows: list[list[str]], required: tuple[str, ...]) -> list[str]:
    """Required columns parse as numbers; no field that parses is non-finite."""
    missing = [col for col in required if col not in header]
    if missing:
        return [f"missing columns {missing}"]
    problems = []
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(header):
            problems.append(f"row {lineno}: {len(row)} fields, header has {len(header)}")
            continue
        for col, raw in zip(header, row):
            try:
                value = float(raw)
            except ValueError:
                if col in required:
                    problems.append(f"row {lineno}: {col}={raw!r} is not a number")
                continue
            if not math.isfinite(value):
                problems.append(f"row {lineno}: {col}={raw} is not finite")
            elif col == "key_rate" and value < 0.0:
                problems.append(f"row {lineno}: key_rate={raw} < 0")
    return problems[:5]


def _grid_problems(rows, header, distances, n_values, per_point: int) -> list[str]:
    d_col, n_col = header.index("distance_km"), header.index("n_total")
    seen: dict[tuple[float, int], int] = {}
    for row in rows:
        key = (round(float(row[d_col]), 9), int(float(row[n_col])))
        seen[key] = seen.get(key, 0) + 1
    want = {(round(d, 9), n): per_point for n in n_values for d in distances}
    if seen != want:
        extra = sorted(set(seen) - set(want))[:3]
        lost = sorted(set(want) - set(seen))[:3]
        return [f"grid mismatch: unexpected {extra}, missing {lost}"]
    return []


def check_scan(result: Result, size: Size) -> list[str]:
    problems = _exit_ok(result)
    if problems:
        return problems
    header, rows = _rows(result.stdout)
    distances = _grid(size.scan_step_km)
    want = len(distances) * len(size.n_values)
    if len(rows) != want:
        return [f"scan: {len(rows)} rows, want {want}"]
    required = ("distance_km", "n_total", "key_rate")
    problems = _numeric_problems(header, rows, required)
    return problems or _grid_problems(rows, header, distances, size.n_values, 1)


def check_compare(result: Result, size: Size) -> list[str]:
    problems = _exit_ok(result)
    if problems:
        return problems
    header, rows = _rows(result.stdout)
    distances = _grid(size.compare_step_km)
    want = 3 * len(distances) * len(size.n_values)
    if len(rows) != want:
        return [f"compare: {len(rows)} rows, want {want}"]
    if "protocol" not in header:
        return ["compare: no protocol column"]
    problems = _numeric_problems(header, rows, ("distance_km", "n_total", "key_rate"))
    problems = problems or _grid_problems(rows, header, distances, size.n_values, 3)
    if problems:
        return problems
    d_col, n_col, p_col = (header.index(c) for c in ("distance_km", "n_total", "protocol"))
    protocols: dict[tuple[str, str], set[str]] = {}
    for row in rows:
        protocols.setdefault((row[d_col], row[n_col]), set()).add(row[p_col])
    sets = {frozenset(found) for found in protocols.values()}
    if len(sets) != 1 or len(next(iter(sets))) != 3:
        return [f"compare: protocol sets per point {sorted(map(sorted, sets))[:3]}"]
    return []


_GROUP = re.compile(r"^group \S+: .*slices=(\d+) pulses=(\d+)")


def group_totals(stdout: str) -> tuple[int, int, int]:
    """(groups, slices, pulses) summed over the ``group`` lines of a report."""
    groups = slices = pulses = 0
    for line in stdout.splitlines():
        match = _GROUP.match(line)
        if match:
            groups += 1
            slices += int(match.group(1))
            pulses += int(match.group(2))
    return groups, slices, pulses


def check_groups(result: Result, n_slices: int, n_total: int) -> list[str]:
    problems = _exit_ok(result)
    if problems:
        return problems
    groups, slices, pulses = group_totals(result.stdout)
    if groups == 0:
        return ["no group lines in the report"]
    if slices != n_slices or pulses != n_total:
        return [
            f"groups cover {slices} slices and {pulses} pulses, "
            f"want {n_slices} and {n_total}"
        ]
    return []


def slice_sent_totals(handle: TextIO) -> tuple[dict[int, int], list[str]]:
    """Pulses per slice of a sliced tally CSV, from each (state, intensity) pair.

    ``sent`` is repeated in both basis rows of a pair; rows that disagree
    are reported. Rows are read one at a time.
    """
    rows = csv.reader(handle)
    header = next(rows, [])
    cols = ("slice", "state", "intensity", "sent")
    if any(col not in header for col in cols):
        return {}, [f"tally header {header} lacks {cols}"]
    idx = [header.index(col) for col in cols]
    pairs: dict[tuple[int, str, str], int] = {}
    problems = []
    for lineno, row in enumerate(rows, start=2):
        slice_i, state, kind, sent = (row[i] for i in idx)
        key = (int(slice_i), state, kind)
        if pairs.setdefault(key, int(sent)) != int(sent):
            problems.append(f"line {lineno}: sent differs between basis rows")
    totals: dict[int, int] = {}
    for (slice_i, _, _), sent in pairs.items():
        totals[slice_i] = totals.get(slice_i, 0) + sent
    return totals, problems[:5]


def check_dump(path: Path, n_slices: int, n_total: int) -> list[str]:
    try:
        with path.open(newline="") as handle:
            totals, problems = slice_sent_totals(handle)
    except OSError as exc:
        return [f"tally dump unreadable: {exc}"]
    if problems:
        return problems
    per_slice = n_total // n_slices
    bad = [i for i, sent in totals.items() if sent != per_slice]
    if len(totals) != n_slices or bad or sum(totals.values()) != n_total:
        return [
            f"dump has {len(totals)} slices summing to {sum(totals.values())}; "
            f"want {n_slices} of {per_slice} (slices off: {bad[:3]})"
        ]
    return []


def check_replay_input(cli, path: Path, n_slices: int, n_total: int) -> list[str]:
    """The generated file has the intended totals and the program parses it."""
    with path.open(newline="") as handle:
        totals, problems = slice_sent_totals(handle)
    if problems or len(totals) != n_slices or sum(totals.values()) != n_total:
        return problems or [
            f"replay input has {len(totals)} slices of {sum(totals.values())} pulses, "
            f"want {n_slices} of {n_total}"
        ]
    reader = getattr(cli, "read_tally_csv", None)
    if reader is None:
        return []  # the parser moved; the process invocations still read the file
    try:
        with path.open() as handle:
            parsed = reader(handle)
    except ValueError as exc:
        return [f"read_tally_csv rejects the replay input: {exc}"]
    if len(parsed) != n_slices:
        return [f"read_tally_csv returned {len(parsed)} slices, want {n_slices}"]
    return []


def _tail_from_groups(stdout: str) -> list[str]:
    lines = stdout.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("group "):
            return lines[i:]
    return []


def check_reproduces(point: Result, process: Result) -> list[str]:
    """``process`` on a dumped file repeats ``point``'s group and key lines."""
    problems = _exit_ok(process)
    if problems:
        return problems
    want, got = _tail_from_groups(point.stdout), _tail_from_groups(process.stdout)
    if not want or want != got:
        return ["process on the dumped tallies does not reproduce point's group and key lines"]
    return []


# ---------------------------------------------------------------------------
# plans


def plan(name: str, size: Size) -> Plan:
    """The invocations of one pass of ``name``; paths are relative to its workdir."""
    if name == "curves":
        n_scan = len(_grid(size.scan_step_km)) * len(size.n_values)
        n_cmp = 3 * len(_grid(size.compare_step_km)) * len(size.n_values)
        return Plan(
            ops=(
                Op(("scan", "--config", "scan.cfg"), lambda r: check_scan(r, size)),
                Op(("compare", "--config", "compare.cfg"), lambda r: check_compare(r, size)),
            ),
            units=n_scan + n_cmp,
            setup_config="scan.cfg",
        )
    if name == "mc-drift":
        dump = "dump.csv"
        point = ("point", "--config", "mc.cfg", "--mode", "montecarlo",
                 "--groups", str(M_GROUPS), "--dump-tallies", dump)

        def check_point(result: Result) -> list[str]:
            return check_groups(result, size.mc_slices, N_TOTAL) or check_dump(
                Path(dump), size.mc_slices, N_TOTAL
            )

        def final(first: list[Result], invoke) -> list[str]:
            process = invoke(["process", dump, "--config", "mc.cfg", "--groups", str(M_GROUPS)])
            return check_reproduces(first[0], process)

        return Plan(
            ops=(Op(point, check_point),),
            units=size.mc_slices,
            setup_config="mc.cfg",
            final=final,
        )
    if name == "replay":
        n_total = (N_TOTAL // size.replay_slices) * size.replay_slices

        def preflight(cli, workdir: Path) -> list[str]:
            return check_replay_input(cli, workdir / "replay.csv", size.replay_slices, n_total)

        return Plan(
            ops=(
                Op(
                    ("process", "replay.csv", "--config", "replay.cfg", "--groups", str(M_GROUPS)),
                    lambda r: check_groups(r, size.replay_slices, n_total),
                ),
            ),
            units=size.replay_slices,
            setup_config="replay.cfg",
            preflight=preflight,
        )
    raise ValueError(f"unknown workload {name!r}")
