"""Command-line front end.

Subcommands
-----------
point      full pipeline at one distance, every intermediate bound printed
scan       key rate versus distance as CSV
compare    four-state, six-four and six-state rates side by side as CSV
process    re-analyze a tally file (optionally per-slice with grouping)
simulate   write Monte Carlo tally files

Configuration is a flat ``key = value`` text file; every key missing from
the file falls back to a built-in default. ``--show-defaults`` prints the
effective configuration with the provenance of each value. Exit codes:
0 success with a positive key, 2 success with zero key, 1 error.
"""
from __future__ import annotations

import argparse
import io
import math
import sys
from array import array
from dataclasses import dataclass, fields, replace
from decimal import Decimal, InvalidOperation
from typing import Iterator, Mapping, Sequence, TextIO

import numpy as np

from . import baselines
from .channel import expected_tallies
from .core import (
    ALL_CELLS,
    FIELDS,
    MAX_PULSES,
    TWO_PI,
    CellCount,
    ChannelParams,
    ObservedTallies,
    ProtocolConfig,
    SecurityParams,
    TallyError,
    intensity_triple,
    validate_config,
)
from .keyrate import (
    DriftClassifier,
    ExtractionResult,
    analyze_tallies,
    group_and_extract,
    total_pulses,
)
from .simulate import drift_beta, sample_drifting_tallies, sample_tallies

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_KEY = 2

_HW = "baseline hardware parameters"
_PROTO = "baseline protocol parameters"
_ASSUMED = "assumption, not fixed by the baseline system"
_DERIVED = "derived: (1 - p_z_alice) / 2"

# The physical and protocol defaults are those of the dataclasses.
_CH, _SEC, _PC = ChannelParams(), SecurityParams(), ProtocolConfig()
_MU, _NU, _OMEGA = _PC.intensities
# ChannelParams field -> config key, where the two names differ
_CHANNEL_KEY = {"beta": "beta_rad"}
# schema kind -> its allowed values, shared by the config file and the flags
_CHOICES = {
    "mode": ("analytic", "montecarlo"),
    "drift": ("fixed", "linear", "sinusoidal"),
}

# key -> (default, parser, provenance)
_SCHEMA: dict[str, tuple[object, type | str, str]] = {
    "e0": (_CH.e0, float, _HW),
    "alpha_db_per_km": (_CH.alpha_db_per_km, float, _HW),
    "eta_z_db": (_CH.eta_z_db, float, _HW),
    "eta_xy_db": (_CH.eta_xy_db, float, _HW),
    "e_d": (_CH.e_d, float, _HW),
    "eta_det": (_CH.eta_det, float, _HW),
    "beta_rad": (_CH.beta, float, _ASSUMED),
    "mu": (_MU.mean_photons, float, _PROTO),
    "nu": (_NU.mean_photons, float, _PROTO),
    "omega": (_OMEGA.mean_photons, float, _PROTO),
    "p_mu": (_MU.probability, float, _PROTO),
    "p_nu": (_NU.probability, float, _PROTO),
    "p_omega": (_OMEGA.probability, float, _PROTO),
    "p_z_alice": (_PC.p_z_alice, float, _PROTO),
    "p_x0": (None, "optional_float", _DERIVED),
    "p_y0": (None, "optional_float", _DERIVED),
    "p_z_bob": (_PC.p_z_bob, float, _ASSUMED),
    "n_total": (_PC.n_total, "count", _PROTO),
    "m_groups": (_PC.m_groups, int, _ASSUMED),
    "eps_bar": (_SEC.eps_bar, float, _HW),
    "eps_ec": (_SEC.eps_ec, float, _HW),
    "eps_pa": (_SEC.eps_pa, float, _HW),
    "f_ec": (_SEC.f_ec, float, _HW),
    "distance_km": (200.0, float, _ASSUMED),
    "mode": ("analytic", "mode", _ASSUMED),
    "seed": (0, int, _ASSUMED),
    "scan_min_km": (0.0, float, _ASSUMED),
    "scan_max_km": (200.0, float, _ASSUMED),
    "scan_step_km": (10.0, float, _ASSUMED),
    "n_values": ((), "counts", _ASSUMED),
    "drift": ("fixed", "drift", _ASSUMED),
    "n_slices": (1, int, _ASSUMED),
    "drift_beta0_rad": (0.0, float, _ASSUMED),
    "drift_rate_rad": (TWO_PI, float, _ASSUMED),
    "drift_amplitude_rad": (math.pi / 4.0, float, _ASSUMED),
    "drift_period": (1.0, float, _ASSUMED),
    "slice_duration_s": (1.0, float, _ASSUMED),
    "n_zz_all_intensities": (True, bool, _ASSUMED),
    "rho_negated_exponent": (False, bool, _ASSUMED),
}


class ConfigError(ValueError):
    pass


class TallyFileError(ValueError):
    """A tally file that cannot be read, or whose slices cannot be merged."""


def _parse_value(key: str, raw: str, kind) -> object:
    raw = raw.strip()
    if kind == "count":
        return _as_count(key, raw)
    if kind == "counts":
        return tuple(_as_count(key, part) for part in raw.split(",")) if raw else ()
    try:
        if kind is float:
            return float(raw)
        if kind is int:
            return int(raw)
        if kind is bool:
            low = raw.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        if kind == "optional_float":
            return None if raw.lower() in ("", "none", "derived") else float(raw)
        if kind in _CHOICES:
            if raw not in _CHOICES[kind]:
                raise ValueError(raw)
            return raw
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse value {raw!r}") from exc
    raise ConfigError(f"{key}: unhandled schema kind {kind!r}")


def _as_count(key: str, raw: str) -> int:
    """Parse a pulse count exactly: ``1e13`` is accepted, ``2.7``, ``nan``,
    ``inf`` and values outside [1, MAX_PULSES] are rejected."""
    try:
        value = Decimal(raw)
    except InvalidOperation:
        raise ConfigError(f"{key}: cannot parse value {raw!r}") from None
    if not value.is_finite() or value != value.to_integral_value():
        raise ConfigError(f"{key}: {raw!r} is not a whole number of pulses")
    if not 1 <= value <= MAX_PULSES:
        raise ConfigError(f"{key}: {raw!r} is outside [1, {MAX_PULSES}]")
    return int(value)


@dataclass
class RunConfig:
    """Typed view of the flat configuration document."""

    values: dict[str, object]
    explicit: frozenset[str]

    def __getitem__(self, key: str) -> object:
        return self.values[key]

    def protocol_config(self) -> ProtocolConfig:
        v = self.values
        scalars = [f.name for f in fields(ProtocolConfig) if f.name != "intensities"]
        return ProtocolConfig(
            intensities=intensity_triple(
                v["mu"], v["nu"], v["omega"], v["p_mu"], v["p_nu"], v["p_omega"]
            ),
            **{name: v[name] for name in scalars},
        )

    def channel_params(self) -> ChannelParams:
        v = self.values
        return ChannelParams(
            **{f.name: v[_CHANNEL_KEY.get(f.name, f.name)] for f in fields(ChannelParams)}
        )

    def security_params(self) -> SecurityParams:
        return SecurityParams(**{f.name: self.values[f.name] for f in fields(SecurityParams)})

    def provenance_lines(self) -> list[str]:
        lines = []
        for key in sorted(_SCHEMA):
            default, _, origin = _SCHEMA[key]
            source = "config file" if key in self.explicit else f"default: {origin}"
            lines.append(f"{key} = {_fmt(self.values[key])}  ({source})")
        return lines


def load_config(path: str | None) -> RunConfig:
    """Read a ``key = value`` file; unknown keys are rejected as a group."""
    values = {key: default for key, (default, _, _) in _SCHEMA.items()}
    explicit: set[str] = set()
    if path is not None:
        unknown = []
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
                key, _, raw = stripped.partition("=")
                key = key.strip()
                if key not in _SCHEMA:
                    unknown.append(f"line {lineno}: unknown key {key!r}")
                    continue
                values[key] = _parse_value(key, raw, _SCHEMA[key][1])
                explicit.add(key)
        if unknown:
            raise ConfigError("; ".join(unknown))
    return RunConfig(values, frozenset(explicit))


def _fmt(x: object) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.12g}"
    if isinstance(x, tuple):
        return ",".join(_fmt(item) for item in x)
    return str(x)


# ---------------------------------------------------------------------------
# tally file io

_TALLY_HEADER = ["state", "basis", "intensity", "sent", "detected", "errors"]

# "Z0,Z,mu"-style label of each cell, in count-array row order
_CELL_LABELS = tuple(f"{s.value},{b.value},{k.value}" for s, b, k in ALL_CELLS)
_ROW_BY_LABELS = {
    (s.value, b.value, k.value): row for row, (s, b, k) in enumerate(ALL_CELLS)
}
# buffer entries of a slice none of whose cells has been read
_UNREAD_SLICE = array("q", [-1] * (len(ALL_CELLS) * len(FIELDS)))


def write_tally_csv(slices: Sequence[ObservedTallies], out: TextIO) -> None:
    """Write tallies as CSV; more than one slice adds a leading slice column."""
    sliced = len(slices) > 1
    header = (["slice"] if sliced else []) + _TALLY_HEADER
    out.write(",".join(header) + "\n")
    for index, tallies in enumerate(slices):
        prefix = f"{index}," if sliced else ""
        out.write(
            "".join(
                f"{prefix}{label},{sent},{detected},{errors}\n"
                for label, (sent, detected, errors) in zip(
                    _CELL_LABELS, tallies.counts.tolist()
                )
            )
        )


def read_tally_csv(handle: TextIO) -> list[ObservedTallies]:
    """Parse a tally CSV into one tally table per slice.

    Parse and consistency errors carry the offending line number; cell
    constraint violations name the slice and the cell. The file is read
    in blocks and every count goes straight into an int64 buffer, so the
    whole text and its lines are never held at once.
    """
    lines = _lines(handle)
    first = next(lines, None)
    if first is None:
        raise TallyError("line 1: empty tally file")
    header = [col.strip() for col in first.split(",")]
    if header == _TALLY_HEADER:
        sliced = False
    elif header == ["slice"] + _TALLY_HEADER:
        sliced = True
    else:
        raise TallyError(f"line 1: unexpected header {','.join(header)!r}")

    width = len(header)
    offset = 1 if sliced else 0
    # (sent, detected, errors) per cell of every slice in order of first
    # appearance, 72 entries a slice; -1 marks a cell not read yet
    flat = array("q")
    start_of: dict[int, int] = {}  # slice index -> its first entry in flat
    for lineno, line in enumerate(lines, start=2):
        parts = line.split(",")
        if len(parts) != width:
            if not line.strip():
                continue
            raise TallyError(
                f"line {lineno}: expected {width} columns, got {len(parts)}"
            )
        slice_index = _int_field(parts[0], lineno, "slice") if sliced else 0
        labels = (parts[offset].strip(), parts[offset + 1].strip(), parts[offset + 2].strip())
        row = _ROW_BY_LABELS.get(labels)
        if row is None:
            raise TallyError(f"line {lineno}: bad cell label ({','.join(labels)})")
        # one check for the whole row; a failing row is re-read to name the column
        try:
            sent, detected, errors = (
                int(parts[offset + 3]), int(parts[offset + 4]), int(parts[offset + 5])
            )
        except ValueError:
            sent = detected = errors = -1
        if not (
            0 <= sent <= MAX_PULSES
            and 0 <= detected <= MAX_PULSES
            and 0 <= errors <= MAX_PULSES
        ):
            _raise_count_error(parts[offset + 3 :], lineno)
        base = start_of.get(slice_index)
        if base is None:
            base = start_of[slice_index] = len(flat)
            flat.extend(_UNREAD_SLICE)
        at = base + row * len(FIELDS)
        if flat[at] >= 0:
            raise TallyError(f"line {lineno}: duplicate cell ({labels[0]},...)")
        flat[at] = sent
        flat[at + 1] = detected
        flat[at + 2] = errors
    if not start_of:
        raise TallyError("line 2: no tally rows")

    order = sorted(start_of)
    by_first_line = np.frombuffer(flat, dtype=np.int64).reshape(
        len(order), len(ALL_CELLS), len(FIELDS)
    )
    # fancy indexing copies, so no table shares memory with flat
    counts = by_first_line[[start_of[i] // len(_UNREAD_SLICE) for i in order]]
    complete = (counts[:, :, 0] >= 0).all(axis=1).tolist()
    result = []
    for table, slice_index, whole in zip(counts, order, complete):
        try:
            if whole:
                result.append(ObservedTallies(table))
            else:
                # the mapping form reports the missing cells
                ObservedTallies(
                    {ALL_CELLS[row]: CellCount(*table[row].tolist())
                     for row in np.flatnonzero(table[:, 0] >= 0)}
                )
        except TallyError as exc:
            raise TallyError(f"slice {slice_index}: {exc}") from exc
    return result


def _lines(handle: TextIO, block: int = 1 << 16) -> Iterator[str]:
    """The lines of ``handle`` as ``str.splitlines`` cuts them, line ends kept.

    Reads ``block`` characters at a time. The last piece of each block is
    carried into the next one, so a line, or a ``\\r\\n``, cut by a block
    boundary comes out whole. A block is never shorter than the carried
    piece, which keeps a very long line linear in its length.
    """
    tail = ""
    while chunk := handle.read(max(block, len(tail))):
        pieces = (tail + chunk).splitlines(keepends=True)
        tail = pieces.pop()
        yield from pieces
    if tail:
        yield tail


def _int_field(raw: str, lineno: int, column: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise TallyError(
            f"line {lineno}: column {column}: not an integer: {raw.strip()!r}"
        ) from exc


def _raise_count_error(raws: list[str], lineno: int) -> None:
    """Name the first of sent, detected and errors that is not a count."""
    for raw, column in zip(raws, FIELDS):
        if not 0 <= _int_field(raw, lineno, column) <= MAX_PULSES:
            raise TallyError(
                f"line {lineno}: column {column}: {raw.strip()!r} is outside "
                f"[0, {MAX_PULSES}]"
            )


# ---------------------------------------------------------------------------
# shared runner pieces


def _make_slices(
    run: RunConfig,
    cfg: ProtocolConfig,
    ch: ChannelParams,
    distance: float,
    seed: int,
) -> list[ObservedTallies]:
    """Produce per-slice tallies per the configured mode and drift model."""
    n_slices = int(run["n_slices"])
    if n_slices <= 1:
        if run["mode"] == "analytic":
            return [expected_tallies(cfg, ch, distance)]
        return [sample_tallies(cfg, ch, distance, seed).observed()]
    if cfg.n_total % n_slices != 0:
        raise ConfigError(
            f"n_total={cfg.n_total} is not divisible by n_slices={n_slices}"
        )
    params = {
        "beta0": float(run["drift_beta0_rad"]),
        "rate": float(run["drift_rate_rad"]),
        "amplitude": float(run["drift_amplitude_rad"]),
        "period": float(run["drift_period"]),
    }
    trace = drift_beta(
        str(run["drift"]),
        params,
        n_slices,
        slice_duration_s=float(run["slice_duration_s"]),
        pulses_per_slice=cfg.n_total // n_slices,
    )
    if run["mode"] == "analytic":
        slice_cfg = replace(cfg, n_total=trace.pulses_per_slice)
        return [
            expected_tallies(slice_cfg, ch, distance, beta=beta) for beta in trace.betas
        ]
    return [
        oracle.observed()
        for oracle in sample_drifting_tallies(cfg, ch, distance, trace, seed)
    ]


def _analyze(
    run: RunConfig,
    cfg: ProtocolConfig,
    ch: ChannelParams,
    sec: SecurityParams,
    slices: list[ObservedTallies],
    distance: float,
    literal: bool,
):
    """Either a single KeyRateReport or a grouped ExtractionResult."""
    options = {
        "n_zz_all_intensities": bool(run["n_zz_all_intensities"]),
        "literal_paper_formulas": literal,
    }
    if len(slices) == 1 and cfg.m_groups == 1:
        return analyze_tallies(slices[0], cfg, sec, **options)
    classifier = DriftClassifier.from_channel(
        ch, cfg, distance, negated_exponent=bool(run["rho_negated_exponent"])
    )
    return group_and_extract(slices, cfg.m_groups, cfg, sec, classifier, **options)


def _grid(run: RunConfig, cfg: ProtocolConfig) -> Iterator[tuple[ProtocolConfig, int, float]]:
    """Every (block size, distance) point of a scan, with the distance's index.

    The block sizes are ``n_values``, or ``n_total`` when that is empty. In
    Monte Carlo mode, point ``i`` of each block size uses stream ``seed + i``.
    """
    start = float(run["scan_min_km"])
    stop = float(run["scan_max_km"])
    step = float(run["scan_step_km"])
    if step <= 0:
        raise ConfigError(f"scan_step_km must be > 0, got {step}")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    distances = [start + i * step for i in range(max(count, 0))]
    distances = [value for value in distances if value <= stop + 1e-9]
    for n_total in run["n_values"] or (cfg.n_total,):
        cfg_n = replace(cfg, n_total=n_total)
        for index, distance in enumerate(distances):
            yield cfg_n, index, distance


def _flags_of(flags: Mapping[str, float]) -> str:
    tokens = {key for key in ("negative_length", "c44_clamped", "c_clamped") if flags.get(key)}
    if any(key.endswith("_degenerate") for key in flags):
        tokens.add("degenerate")
    return ";".join(sorted(tokens))


def _render_report(report, n_total: int) -> list[str]:
    lines = [
        f"n_total = {n_total}",
        f"s0_zz_lower = {_fmt(report.s0_zz_lower)}",
        f"s1_zz_lower = {_fmt(report.s1_zz_lower)}",
        f"c44_lower = {_fmt(report.c44_lower)}",
        f"i_e = {_fmt(report.i_e)}",
        f"e_zz = {_fmt(report.e_zz)}",
        f"n_zz = {report.n_zz}",
        f"key_length = {_fmt(report.key_length)}",
        f"key_rate = {_fmt(report.key_rate)}",
    ]
    for key in sorted(report.intermediate):
        lines.append(f"intermediate.{key} = {_fmt(report.intermediate[key])}")
    return lines


def _render_extraction(result: ExtractionResult, n_total: int) -> list[str]:
    lines = []
    for outcome in result.outcomes:
        bucket = outcome.bucket
        label = "overflow" if bucket.index is None else str(bucket.index)
        lines.append(
            f"group {label}: rho=[{_fmt(bucket.rho_low)},{_fmt(bucket.rho_high)}) "
            f"slices={bucket.n_slices} pulses={bucket.n_pulses}"
        )
        if outcome.diagnostic is not None:
            lines.append(f"  skipped: {outcome.diagnostic}")
            continue
        report = outcome.report
        lines.append(
            f"  c44_lower={_fmt(report.c44_lower)} i_e={_fmt(report.i_e)} "
            f"e_zz={_fmt(report.e_zz)} key_length={_fmt(report.key_length)}"
        )
    lines.append(f"key_length = {_fmt(result.key_length)}")
    lines.append(f"key_rate = {_fmt(result.key_length / n_total)}")
    return lines


def _render(result, n_total: int) -> list[str]:
    if isinstance(result, ExtractionResult):
        return _render_extraction(result, n_total)
    return _render_report(result, n_total)


# ---------------------------------------------------------------------------
# subcommands: each takes the parsed arguments, the run configuration and the
# validated protocol, channel and security parameters, and returns its output
# lines and whether a key was produced


def cmd_point(args, run, cfg, ch, sec) -> tuple[list[str], bool]:
    distance = float(run["distance_km"])
    slices = _make_slices(run, cfg, ch, distance, int(run["seed"]))
    result = _analyze(run, cfg, ch, sec, slices, distance, args.literal_paper_formulas)
    if args.dump_tallies:
        with open(args.dump_tallies, "w", encoding="utf-8", newline="") as handle:
            write_tally_csv(slices, handle)
    lines = [f"distance_km = {_fmt(distance)}", f"mode = {run['mode']}"]
    return lines + _render(result, cfg.n_total), result.key_length > 0.0


def cmd_scan(args, run, cfg, ch, sec) -> tuple[list[str], bool]:
    rows = ["distance_km,n_total,key_rate,c44_lower,e_zz,s1_lower,flags"]
    any_key = False
    for cfg_n, index, distance in _grid(run, cfg):
        slices = _make_slices(run, cfg_n, ch, distance, int(run["seed"]) + index)
        result = _analyze(
            run, cfg_n, ch, sec, slices, distance, args.literal_paper_formulas
        )
        if isinstance(result, ExtractionResult):
            # per-group bounds do not aggregate; emit zeros plus a flag
            rate = result.key_length / cfg_n.n_total
            rows.append(f"{_fmt(distance)},{cfg_n.n_total},{_fmt(rate)},0,0,0,grouped")
        else:
            rate = result.key_rate
            rows.append(
                f"{_fmt(distance)},{cfg_n.n_total},{_fmt(rate)},"
                f"{_fmt(result.c44_lower)},{_fmt(result.e_zz)},"
                f"{_fmt(result.s1_zz_lower)},{_flags_of(result.intermediate)}"
            )
        any_key = any_key or rate > 0.0
    return rows, any_key


def cmd_compare(args, run, cfg, ch, sec) -> tuple[list[str], bool]:
    options = {
        "asymptotic": args.asymptotic,
        "literal_paper_formulas": args.literal_paper_formulas,
    }
    rows = ["distance_km,n_total,protocol,key_rate,c_lower,e_zz,flags"]
    any_key = False
    for cfg_n, _, distance in _grid(run, cfg):
        four = analyze_tallies(
            expected_tallies(cfg_n, ch, distance), cfg_n, sec,
            n_zz_all_intensities=bool(run["n_zz_all_intensities"]), **options,
        )
        results = [(baselines.FOUR_STATE, four, four.c44_lower, four.intermediate)]
        for runner in (baselines.run_six_four, baselines.run_six_state):
            base = runner(cfg_n, ch, sec, distance, **options)
            flags = {"c_clamped": base.clamped, "negative_length": base.negative_length}
            results.append((base.protocol, base, base.c_lower, flags))
        for protocol, result, c_lower, flags in results:
            rows.append(
                f"{_fmt(distance)},{cfg_n.n_total},{protocol},{_fmt(result.key_rate)},"
                f"{_fmt(c_lower)},{_fmt(result.e_zz)},{_flags_of(flags)}"
            )
            any_key = any_key or result.key_rate > 0.0
    return rows, any_key


def cmd_process(args, run, cfg, ch, sec) -> tuple[list[str], bool]:
    try:
        with open(args.tally_file, "r", encoding="utf-8") as handle:
            slices = read_tally_csv(handle)
        # the file's own block size, not the configured one
        cfg = replace(cfg, n_total=total_pulses(slices))
        if cfg.n_total == 0:
            raise TallyError("no pulses sent: the Z rows' sent counts sum to 0")
        result = _analyze(
            run, cfg, ch, sec, slices, float(run["distance_km"]), args.literal_paper_formulas
        )
    except (OSError, TallyError) as exc:
        raise TallyFileError(exc) from exc
    lines = [f"tally_file = {args.tally_file}"] + _render(result, cfg.n_total)
    return lines, result.key_length > 0.0


def cmd_simulate(args, run, cfg, ch, sec) -> tuple[list[str], bool]:
    montecarlo = RunConfig(dict(run.values, mode="montecarlo"), run.explicit)
    slices = _make_slices(montecarlo, cfg, ch, float(run["distance_km"]), int(run["seed"]))
    buffer = io.StringIO()
    write_tally_csv(slices, buffer)
    return buffer.getvalue().splitlines(), True


# ---------------------------------------------------------------------------
# argument plumbing


def _overridden(args) -> RunConfig:
    run = load_config(args.config)
    values = dict(run.values)
    explicit = set(run.explicit)
    overrides = {
        "distance": "distance_km",
        "n_total": "n_total",
        "mode": "mode",
        "seed": "seed",
        "groups": "m_groups",
        "drift": "drift",
    }
    for arg_name, key in overrides.items():
        value = getattr(args, arg_name, None)
        if value is not None:
            if key == "n_total":
                value = _as_count(key, value)
            values[key] = value
            explicit.add(key)
    return RunConfig(values, frozenset(explicit))


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="flat key=value configuration file")
    parser.add_argument("--distance", type=float, default=None, help="fiber length in km")
    parser.add_argument("--n-total", dest="n_total", default=None, help="total pulses")
    parser.add_argument(
        "--mode", choices=_CHOICES["mode"], default=None, help="statistics source"
    )
    parser.add_argument("--seed", type=int, default=None, help="random seed")
    parser.add_argument("--groups", type=int, default=None, help="drift group count")
    parser.add_argument(
        "--drift", choices=_CHOICES["drift"], default=None,
        help="drift model for sliced runs",
    )
    parser.add_argument("--out", default=None, help="write output to this path")
    parser.add_argument(
        "--literal-paper-formulas",
        action="store_true",
        help="restore the printed variants of the corrected formulas",
    )
    parser.add_argument(
        "--show-defaults",
        action="store_true",
        help="print the effective configuration with provenance and exit",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfiqkd",
        description="security analysis pipeline for a four-state "
        "reference-frame-independent QKD protocol",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_point = sub.add_parser("point", help="full pipeline at one distance")
    p_point.add_argument("--dump-tallies", default=None, help="also write the tallies as CSV")
    p_point.set_defaults(func=cmd_point)

    p_scan = sub.add_parser("scan", help="key rate versus distance as CSV")
    p_scan.set_defaults(func=cmd_scan)

    p_cmp = sub.add_parser("compare", help="protocol comparison as CSV")
    p_cmp.add_argument(
        "--asymptotic", action="store_true",
        help="drop fluctuation and block-size penalty terms",
    )
    p_cmp.set_defaults(func=cmd_compare)

    p_proc = sub.add_parser("process", help="re-analyze a tally file")
    p_proc.add_argument("tally_file")
    p_proc.set_defaults(func=cmd_process)

    p_sim = sub.add_parser("simulate", help="write Monte Carlo tally files")
    p_sim.set_defaults(func=cmd_simulate)

    for sub_parser in (p_point, p_scan, p_cmp, p_proc, p_sim):
        _add_common(sub_parser)
    return parser


def main(
    argv: Sequence[str] | None = None,
    out: TextIO | None = None,
    err: TextIO | None = None,
) -> int:
    """Load and override the configuration, validate it, run the subcommand
    and write its output; the exit code says whether a key was produced."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        run = _overridden(args)
        if args.show_defaults:
            out.write("\n".join(run.provenance_lines()) + "\n")
            return EXIT_OK
        cfg, ch, sec = run.protocol_config(), run.channel_params(), run.security_params()
        problems = validate_config(cfg, ch, sec)
        for problem in problems:
            print(f"config error: {problem}", file=err)
        if problems:
            return EXIT_ERROR
        lines, key = args.func(args, run, cfg, ch, sec)
        text = "\n".join(lines) + "\n"
        if args.out is None:
            out.write(text)
        else:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        return EXIT_OK if key else EXIT_NO_KEY
    except TallyFileError as exc:
        print(f"tally file error: {exc}", file=err)
        return EXIT_ERROR
    except (ConfigError, TallyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
