"""Command-line front end.

Subcommands
-----------
point      full pipeline at one distance, every intermediate bound printed
scan       key rate versus distance as CSV
compare    four-state, six-four and six-state rates side by side as CSV
process    re-analyze a tally file (optionally per-slice with grouping)
simulate   write Monte Carlo tally files

Configuration is a flat ``key = value`` text file; every key missing from
the file falls back to a built-in default. ``COMMANDS`` lists the keys each
subcommand reads. A subcommand offers flags only for those keys, and keeps
the default of any other key in the file, with a notice on stderr.
``--show-defaults`` prints the keys the subcommand reads with the provenance
of each value. Exit codes: 0 success with a positive key, 2 success with
zero key, 1 error, usage errors included.
"""
from __future__ import annotations

import argparse
import io
import math
import sys
import warnings
from array import array
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, fields, replace
from decimal import Decimal, InvalidOperation
from itertools import chain, compress, product
from typing import Collection, Iterator, Mapping, Sequence, TextIO

import numpy as np

from . import baselines
from .channel import absorption, expected_tallies
from .decoy import DecoyPreconditionError, setting
from .core import (
    ALL_CELLS,
    FIELDS,
    MAX_PULSES,
    TWO_PI,
    ChannelParams,
    ProtocolConfig,
    SecurityParams,
    TallyBatch,
    TallyError,
    intensity_triple,
)
from .keyrate import (
    ExtractionResult,
    analyze_batch,
    analyze_classes,
    analyze_tallies,
    four_state,
    group_and_extract,
    total_pulses,
)
from .simulate import DriftTrace, drift_beta, sample_drifting_tallies

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

# The subcommands that read a key, from the code each one runs. The tallies
# read the channel, intensities, basis choice and block size; analyze_tallies
# the intensities, security parameters and ZZ-count option; grouping only the
# group count, since the drift classifier reads the slices' counts alone.
_TALLIES = ("point", "scan", "compare", "simulate")
_ANALYZERS = ("point", "scan", "compare", "process")
_EVERY = ("point", "scan", "compare", "process", "simulate")
_GRID = ("scan", "compare")
_DRIFTING = ("point", "simulate")

# key -> (default, parser, provenance, the subcommands that read it)
_SCHEMA: dict[str, tuple[object, type | str, str, tuple[str, ...]]] = {
    "e0": (_CH.e0, float, _HW, _TALLIES),
    "alpha_db_per_km": (_CH.alpha_db_per_km, float, _HW, _TALLIES),
    "eta_z_db": (_CH.eta_z_db, float, _HW, _TALLIES),
    "eta_xy_db": (_CH.eta_xy_db, float, _HW, _TALLIES),
    "e_d": (_CH.e_d, float, _HW, _TALLIES),
    "eta_det": (_CH.eta_det, float, _HW, _TALLIES),
    "beta_rad": (_CH.beta, float, _ASSUMED, _TALLIES),
    "mu": (_MU.mean_photons, float, _PROTO, _EVERY),
    "nu": (_NU.mean_photons, float, _PROTO, _EVERY),
    "omega": (_OMEGA.mean_photons, float, _PROTO, _EVERY),
    "p_mu": (_MU.probability, float, _PROTO, _EVERY),
    "p_nu": (_NU.probability, float, _PROTO, _EVERY),
    "p_omega": (_OMEGA.probability, float, _PROTO, _EVERY),
    "p_z_alice": (_PC.p_z_alice, float, _PROTO, _TALLIES),
    "p_x0": (None, "optional_float", _DERIVED, _TALLIES),
    "p_y0": (None, "optional_float", _DERIVED, _TALLIES),
    "p_z_bob": (_PC.p_z_bob, float, _ASSUMED, _TALLIES),
    "n_total": (_PC.n_total, "count", _PROTO, _TALLIES),
    "m_groups": (_PC.m_groups, int, _ASSUMED, ("point", "process")),
    "eps_bar": (_SEC.eps_bar, float, _HW, _ANALYZERS),
    "eps_ec": (_SEC.eps_ec, float, _HW, _ANALYZERS),
    "eps_pa": (_SEC.eps_pa, float, _HW, _ANALYZERS),
    "f_ec": (_SEC.f_ec, float, _HW, _ANALYZERS),
    "distance_km": (200.0, float, _ASSUMED, _DRIFTING),
    "mode": ("analytic", "mode", _ASSUMED, ("point", "scan")),
    "seed": (0, int, _ASSUMED, ("point", "scan", "simulate")),
    "scan_min_km": (0.0, float, _ASSUMED, _GRID),
    "scan_max_km": (200.0, float, _ASSUMED, _GRID),
    "scan_step_km": (10.0, float, _ASSUMED, _GRID),
    "n_values": ((), "counts", _ASSUMED, _GRID),
    "drift": ("fixed", "drift", _ASSUMED, _DRIFTING),
    "n_slices": (1, int, _ASSUMED, _DRIFTING),
    "drift_beta0_rad": (0.0, float, _ASSUMED, _DRIFTING),
    "drift_rate_rad": (TWO_PI, float, _ASSUMED, _DRIFTING),
    "drift_amplitude_rad": (math.pi / 4.0, float, _ASSUMED, _DRIFTING),
    "drift_period": (1.0, float, _ASSUMED, _DRIFTING),
    "n_zz_all_intensities": (True, bool, _ASSUMED, _ANALYZERS),
}
MAX_SLICES = 10**6  # slices a drift trace may have; each slice's counts take 576 B
MAX_GROUPS = 10**4  # drift groups a run may have; each takes its own (24, 3) sums
# keys whose parser admits values the run cannot use -> (test, requirement), each;
# a derived key, None in the run, is not checked
_NON_NEGATIVE = (lambda x: 0.0 <= x < math.inf, "must be finite and >= 0")
_FINITE = (math.isfinite, "must be finite")
_UNIT = (lambda p: 0.0 <= p <= 1.0, "must be in [0,1]")
_AT_LEAST_ONE = (lambda n: n >= 1, "must be >= 1")
_RANGES = {
    **dict.fromkeys(("e0", "e_d", "eta_det", "p_mu", "p_nu", "p_omega", "p_z_alice", "p_x0", "p_y0"),
                    [_UNIT]),
    **dict.fromkeys(("alpha_db_per_km", "eta_z_db", "eta_xy_db", "mu", "nu", "omega", "distance_km",
                     "scan_min_km"), [_NON_NEGATIVE]),
    **dict.fromkeys(("scan_max_km", "drift_beta0_rad", "drift_rate_rad", "drift_amplitude_rad"),
                    [_FINITE]),
    **{key: [(lambda eps: 0.0 < eps < 1.0 and math.isfinite(2.0 / eps),
              f"must be in (0,1) with 2/{key} finite")] for key in ("eps_bar", "eps_ec", "eps_pa")},
    # the leak term is f_ec times a count of up to 2^62
    "f_ec": [(lambda f: 1.0 <= f < math.inf, "must be finite and >= 1"),
             (lambda f: not math.isfinite(f) or f * MAX_PULSES < math.inf, "must keep f_ec*2^62 finite")],
    "beta_rad": [(lambda beta: 0.0 <= beta < TWO_PI, "must be in [0, 2*pi)")],
    "p_z_bob": [(lambda p: 0.0 < p < 1.0, "must be in (0,1)")],
    "scan_step_km": [(lambda step: 0.0 < step < math.inf, "must be finite and > 0")],
    "n_slices": [_AT_LEAST_ONE, (lambda n: n <= MAX_SLICES, f"exceeds the slice budget {MAX_SLICES}")],
    "m_groups": [_AT_LEAST_ONE, (lambda m: m <= MAX_GROUPS, f"exceeds the group budget {MAX_GROUPS}")],
    "drift_period": [(lambda period: period > 0.0 and math.isfinite(TWO_PI / period),
                      "must be > 0 with 2*pi/drift_period finite")],
}
# subcommand -> the config keys it reads
COMMANDS: dict[str, frozenset[str]] = {
    command: frozenset(key for key, spec in _SCHEMA.items() if command in spec[3])
    for command in _EVERY
}

# flag -> (the config key it sets, or else the subcommands that take it; help)
_FLAGS: dict[str, tuple[str | tuple[str, ...], str]] = {
    "--config": (_EVERY, "flat key=value configuration file"),
    "--distance": ("distance_km", "fiber length in km"),
    "--n-total": ("n_total", "total pulses"),
    "--mode": ("mode", "statistics source"),
    "--seed": ("seed", "random seed"),
    "--groups": ("m_groups", "drift group count"),
    "--drift": ("drift", "drift model for sliced runs"),
    "--out": (_EVERY, "write output to this path"),
    "--dump-tallies": (("point",), "also write the tallies as CSV"),
    "--literal-paper-formulas": (_ANALYZERS, "restore the printed formula variants"),
    "--asymptotic": (("compare",), "drop fluctuation and block-size penalty terms"),
    "--show-defaults": (_EVERY, "print the configuration read, with provenance, and exit"),
}
_SWITCHES = ("--literal-paper-formulas", "--asymptotic", "--show-defaults")


def command_flags(command: str) -> list[str]:
    """The flags ``command`` takes, in the order of its help."""
    return [
        flag for flag, (key, _) in _FLAGS.items()
        if (key in COMMANDS[command] if isinstance(key, str) else command in key)
    ]


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
    origin: dict[str, str]  # key -> "config file" or "flag"
    reads: frozenset[str]  # the others keep their defaults
    ignored: tuple[str, ...]  # keys of the file outside ``reads``

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
        return [
            f"{key} = {_fmt(self.values[key])}  "
            f"({self.origin.get(key, 'default: ' + _SCHEMA[key][2])})"
            for key in sorted(self.reads)
        ]


def load_config(path: str | None, reads: Collection[str] = _SCHEMA) -> RunConfig:
    """Read a ``key = value`` file; unknown and repeated keys are rejected as
    a group. Keys outside ``reads`` keep their defaults and are listed in
    ``ignored``."""
    values = {key: spec[0] for key, spec in _SCHEMA.items()}
    origin: dict[str, str] = {}
    ignored: set[str] = set()
    if path is not None:
        problems = []
        seen: dict[str, int] = {}  # key -> the first line that names it
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
                key, _, raw = stripped.partition("=")
                key = key.strip()
                first = seen.setdefault(key, lineno)
                if key not in _SCHEMA:
                    problems.append(f"line {lineno}: unknown key {key!r}")
                elif first != lineno:
                    problems.append(f"line {lineno}: key {key!r} repeats line {first}")
                elif key not in reads:
                    ignored.add(key)
                else:
                    values[key] = _parse_value(key, raw, _SCHEMA[key][1])
                    origin[key] = "config file"
        if problems:
            raise ConfigError("; ".join(problems))
    return RunConfig(values, origin, frozenset(reads), tuple(sorted(ignored)))


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

_ROW_BY_LABELS = {
    (s.value, b.value, k.value): row for row, (s, b, k) in enumerate(ALL_CELLS)
}
# buffer entries of a slice none of whose cells has been read
_UNREAD_SLICE = array("q", [-1] * (len(ALL_CELLS) * len(FIELDS)))
# one file row as the tokenizer reads it, without and with the slice column
_ROW_DTYPE = {
    sliced: np.dtype(
        [("slice", np.int64)] * sliced
        + [(name, "S8") for name in _TALLY_HEADER[:3]]
        + [(name, np.int64) for name in FIELDS]
    )
    for sliced in (False, True)
}
# a whole table's labels in ALL_CELLS order, each read as an int64 as
# _append_tables reads the label columns of _ROW_DTYPE
_TABLE_LABELS = np.array(list(_ROW_BY_LABELS), dtype="S8").view(np.int64)
_WRITE_TABLES = 16  # tables per format call: bounds the Python ints held at once


def write_tally_csv(batch: TallyBatch, out: TextIO) -> None:
    """Write tallies as CSV, each table's rows led by its slice index in a
    slice column, which one table of slice 0 goes without."""
    sliced = len(batch) > 1 or any(batch.slices)
    out.write(",".join(["slice"] * sliced + _TALLY_HEADER) + "\n")
    # "" first, so that prefix.join(rows) puts a table's slice index before each row
    rows = ["", *("{},{},{},%d,%d,%d\n".format(*labels) for labels in _ROW_BY_LABELS)]
    for start in range(0, len(batch), _WRITE_TABLES):
        tables = batch.counts[start : start + _WRITE_TABLES]
        prefixes = [f"{i}," for i in batch.slices[start : start + len(tables)]] if sliced else [""]
        text = "".join(prefix.join(rows) for prefix in prefixes)
        out.write(text % tuple(tables.ravel().tolist()))


def read_tally_csv(handle: TextIO) -> TallyBatch:
    """Parse a tally CSV into one tally table per slice, in slice order.

    Parse and consistency errors carry the offending line number; cell
    constraint violations name the slice and the cell.

    The file is read in blocks of whole lines, and every count goes
    straight into an int64 buffer, so the whole text and its lines are
    never held at once; the buffer is freed before the tables are checked.
    Each block, a whole multiple of 24 lines but the last, takes one of
    two paths. A block of whole tables as ``write_tally_csv`` writes them
    goes through numpy's tokenizer in one call and is appended to the
    buffer in one copy (``_read_block``). Any other block is read line by
    line, which stores its rows up to the first error and names that
    error; it reads the same, only slower.
    """
    blocks = _line_blocks(handle)
    lines = next(blocks, None)
    if lines is None:
        raise TallyError("line 1: empty tally file")
    header = [col.strip() for col in lines.pop(0).split(",")]
    sliced = header == ["slice"] + _TALLY_HEADER
    if not sliced and header != _TALLY_HEADER:
        raise TallyError(f"line 1: unexpected header {','.join(header)!r}")

    # (sent, detected, errors) per cell of every slice in order of first
    # appearance, 72 entries a slice; -1 marks a cell not read yet
    flat = array("q")
    start_of: dict[int, int] = {}  # slice index -> its first entry in flat
    lineno = 2
    for lines in _whole_tables(chain([lines], blocks)):
        if not _read_block(lines, sliced, flat, start_of):
            _read_lines(lines, lineno, sliced, flat, start_of)
        lineno += len(lines)
    if not start_of:
        raise TallyError("line 2: no tally rows")

    order = sorted(start_of)
    by_first_line = np.frombuffer(flat, dtype=np.int64).reshape(len(order), len(ALL_CELLS), -1)
    # both copy, so no table shares memory with flat
    if order == list(start_of):
        counts = by_first_line.copy()
    else:
        first = np.fromiter(map(start_of.__getitem__, order), np.int64, len(order))
        counts = by_first_line[first // len(_UNREAD_SLICE)]
    del flat, by_first_line
    return TallyBatch(counts, order)


def _line_blocks(handle: TextIO, block: int = 1 << 16) -> Iterator[list[str]]:
    """The lines of ``handle`` as ``str.splitlines`` cuts them, line ends
    kept, one non-empty list per read.

    Reads ``block`` characters at a time. The last piece of each read is
    carried into the next one, so a line, or a ``\\r\\n``, cut by a read
    boundary comes out whole. A read is never shorter than the carried
    piece, which keeps a very long line linear in its length.
    """
    tail = ""
    while chunk := handle.read(max(block, len(tail))):
        pieces = (tail + chunk).splitlines(keepends=True)
        tail = pieces.pop()
        if pieces:
            yield pieces
    if tail:
        yield [tail]


def _whole_tables(blocks: Iterator[list[str]]) -> Iterator[list[str]]:
    """The lines of ``blocks`` cut at whole multiples of 24 lines, at most
    23 carried into the next block, so that a file as ``write_tally_csv``
    writes it reaches ``_read_block`` as whole tables."""
    carry: list[str] = []
    for lines in blocks:
        lines = carry + lines
        cut = len(lines) - len(lines) % len(ALL_CELLS)
        carry = lines[cut:]
        del lines[cut:]
        if lines:
            yield lines
    if carry:
        yield carry


def _read_block(lines: list[str], sliced: bool, flat: array, start_of: dict[int, int]) -> bool:
    """Append ``lines`` to ``flat`` in one copy if numpy's tokenizer reads
    them, in one call, as whole tables as ``write_tally_csv`` writes them
    (``_append_tables``).

    Returns False, with no count stored, for any other block (shuffled
    rows, blank lines, a slice read before, or a row that might not be
    valid); the line reader then reads it, or names its error.
    """
    # numpy's integer parser takes some non-ASCII letters for digits ("Ǿ"
    # reads as 462), and it drops a label's trailing NULs, which would make
    # a bad label good
    text = "".join(lines)
    if not text.isascii() or "\x00" in text:
        return False
    table = _tokenized(lines, sliced)
    # numpy skips empty lines
    return table is not None and len(table) == len(lines) and _append_tables(table, sliced, flat, start_of)


def _append_tables(table: np.ndarray, sliced: bool, flat: array, start_of: dict[int, int]) -> bool:
    """Append the counts of ``table`` to ``flat`` in one copy if it holds
    whole tables of consecutive slices, none read before, each with its
    cells in ``ALL_CELLS`` order and every label and count valid; False,
    with nothing stored, for any other table."""
    n = len(table) // len(ALL_CELLS)
    if n * len(ALL_CELLS) != len(table):
        return False
    # a row's 8-byte words: its slice index when sliced, labels, counts
    words = table.view(np.int64).reshape(n, len(ALL_CELLS), -1)
    counts = words[:, :, -len(FIELDS) :]
    # tiled, the labels compare faster than broadcast; a negative count
    # read as a uint64 is at least 2^63
    labels = np.tile(_TABLE_LABELS, (n, 1, 1))
    if (words[:, :, sliced : sliced + 3] != labels).any() or counts.view(np.uint64).max() > MAX_PULSES:
        return False
    slices = words[:, :, 0] if sliced else np.zeros((n, 1), dtype=np.int64)
    first = int(slices[0, 0])
    # with no index negative, no difference wraps
    if slices.min() < 0 or (slices - first != np.arange(n)[:, None]).any():
        return False
    indices = range(first, first + n)
    if not start_of.keys().isdisjoint(indices):
        return False
    base, size = len(flat), len(_UNREAD_SLICE)
    start_of.update(zip(indices, range(base, base + n * size, size)))
    flat.frombytes(counts.tobytes())
    return True


def _tokenized(lines: list[str], sliced: bool) -> np.ndarray | None:
    """The rows of ``lines`` as numpy's tokenizer reads them, or None where
    it fails or warns."""
    try:
        # older numpy parses "1.0" as an integer, with only a DeprecationWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(
                lines, delimiter=",", comments=None, ndmin=1, dtype=_ROW_DTYPE[sliced]
            )
    except (ValueError, Warning):
        return None


def _read_lines(
    lines: list[str], lineno: int, sliced: bool, flat: array, start_of: dict[int, int]
) -> None:
    """Store the rows of ``lines``, the first at ``lineno``, one at a time,
    raising the first error with its line number."""
    offset = 1 if sliced else 0
    width = len(_TALLY_HEADER) + offset
    for lineno, line in enumerate(lines, start=lineno):
        parts = line.split(",")
        if len(parts) != width:
            if not line.strip():
                continue
            raise TallyError(
                f"line {lineno}: expected {width} columns, got {len(parts)}"
            )
        slice_index, row, (sent, detected, errors) = _checked_row(parts, lineno, offset)
        base = start_of.get(slice_index)
        if base is None:
            base = start_of[slice_index] = len(flat)
            flat.extend(_UNREAD_SLICE)
        at = base + row * len(FIELDS)
        if flat[at] >= 0:
            raise TallyError(f"line {lineno}: duplicate cell ({parts[offset].strip()},...)")
        flat[at] = sent
        flat[at + 1] = detected
        flat[at + 2] = errors


def _checked_row(parts: list[str], lineno: int, offset: int) -> tuple[int, int, list[int]]:
    """The slice index, count-array row and counts of a row cut at its
    commas, checked field by field; raises the row's first error."""
    slice_index = _int_field(parts[0], lineno, "slice") if offset else 0
    if slice_index < 0:
        raise TallyError(f"line {lineno}: column slice: {parts[0].strip()!r} is negative")
    labels = (parts[offset].strip(), parts[offset + 1].strip(), parts[offset + 2].strip())
    row = _ROW_BY_LABELS.get(labels)
    if row is None:
        raise TallyError(f"line {lineno}: bad cell label ({','.join(labels)})")
    counts = []
    for raw, column in zip(parts[offset + 3 :], FIELDS):
        value = _int_field(raw, lineno, column)
        if not 0 <= value <= MAX_PULSES:
            raise TallyError(
                f"line {lineno}: column {column}: {raw.strip()!r} is outside "
                f"[0, {MAX_PULSES}]"
            )
        counts.append(value)
    return slice_index, row, counts


def _int_field(raw: str, lineno: int, column: str) -> int:
    """Blanks, an optional sign and ASCII digits: on ASCII text without
    ``_``, what int() takes, which is numpy's int64 grammar without its
    64-bit bound."""
    text = raw.strip()
    if "_" not in text and text.isascii():
        try:
            return int(text)
        except ValueError:  # also past int()'s limit on digits
            pass
    raise TallyError(f"line {lineno}: column {column}: not an integer: {text!r}")


# ---------------------------------------------------------------------------
# shared runner pieces

_CHUNK = 512  # points per channel call: bounds the memory of a scan or drift trace
MAX_GRID_POINTS = 10**6  # distances a scan or compare grid may have; _grid lists them all


def _grid_count(start: float, stop: float, step: float) -> float:
    """Points of a scan grid, at most 0 when it is empty; ``inf`` when too many to count."""
    steps = (stop - start) / step
    return max(steps, 0) if math.isinf(steps) else int(math.floor(steps + 1e-9)) + 1


def _make_slices(
    run: RunConfig, cfg: ProtocolConfig, ch: ChannelParams, mode: object
) -> TallyBatch:
    """Produce per-slice tallies per ``mode`` and the configured drift model."""
    distance, seed = float(run["distance_km"]), int(run["seed"])
    n_slices = int(run["n_slices"])
    if n_slices == 1:  # the whole block at the channel's angle
        trace = DriftTrace((ch.beta,), cfg.n_total)
    else:
        params = {
            "beta0": float(run["drift_beta0_rad"]),
            "rate": float(run["drift_rate_rad"]),
            "amplitude": float(run["drift_amplitude_rad"]),
            "period": float(run["drift_period"]),
        }
        trace = drift_beta(
            str(run["drift"]), params, n_slices, pulses_per_slice=cfg.n_total // n_slices
        )
    if mode != "analytic":
        return sample_drifting_tallies(cfg, ch, distance, trace, seed)
    slice_cfg = replace(cfg, n_total=trace.pulses_per_slice)
    # filled in place: no list of per-chunk arrays is held beside the batch
    counts = np.empty((n_slices, len(ALL_CELLS), len(FIELDS)), dtype=np.int64)
    for first in range(0, n_slices, _CHUNK):
        betas = trace.betas[first : first + _CHUNK]
        counts[first : first + len(betas)] = expected_tallies(
            slice_cfg, ch, [distance] * len(betas), betas
        ).counts
    return TallyBatch(counts)


def _options(args, run: RunConfig) -> dict[str, bool]:
    """The analysis options of a run, as every protocol's analysis takes them."""
    return {
        "asymptotic": bool(args.asymptotic),
        "n_zz_all_intensities": bool(run["n_zz_all_intensities"]),
        "literal_paper_formulas": args.literal_paper_formulas,
    }


def _analyze(cfg, sec, slices, options) -> tuple[list[str], bool]:
    """The report of ``slices``, as one block or by drift group, and whether
    it yields a key."""
    if len(slices) == 1 and cfg.m_groups == 1:
        report = analyze_tallies(slices[0], cfg, sec, **options)
        return _render_report(report, cfg.n_total), report.key_length > 0.0
    result = group_and_extract(slices, cfg.m_groups, cfg, sec, **options)
    return _render_extraction(result, cfg.n_total), result.key_length > 0.0


def _grid(run: RunConfig, cfg, ch, mode) -> Iterator[tuple[list, list, np.ndarray | None, TallyBatch]]:
    """The scan grid, block size outer and distance inner, ``_CHUNK`` points a batch: each
    point's block size (``n_values``, or ``n_total`` when that is empty), distance, row of
    the grid's one ``absorption`` table (None in Monte Carlo mode) and tallies. In Monte
    Carlo mode, point ``i`` of each block size uses stream ``seed + i``."""
    start, stop, step = (float(run[key]) for key in ("scan_min_km", "scan_max_km", "scan_step_km"))
    distances = [start + i * step for i in range(_grid_count(start, stop, step))]  # finite, see main
    distances = [value for value in distances if value <= stop + 1e-9]
    sizes, seed = run["n_values"] or (cfg.n_total,), int(run["seed"])
    per_size = len(distances)
    table = absorption(ch, cfg.intensities, distances) if mode == "analytic" else None
    for first in range(0, per_size * len(sizes), _CHUNK):
        points = range(first, min(first + _CHUNK, per_size * len(sizes)))
        block_sizes = [sizes[j // per_size] for j in points]
        at = [distances[j % per_size] for j in points]
        if mode == "analytic":
            rows = table[np.arange(points.start, points.stop) % per_size]
            yield block_sizes, at, rows, expected_tallies(cfg, ch, at, n_total=block_sizes, absorbed=rows)
        else:
            yield block_sizes, at, None, TallyBatch(np.concatenate([  # one-slice traces
                sample_drifting_tallies(
                    replace(cfg, n_total=n), ch, d, DriftTrace((ch.beta,), n), seed + j % per_size
                ).counts
                for j, n, d in zip(points, block_sizes, at)
            ]))


def _csv_rows(lead, distances, sizes, columns, flags: Mapping[str, np.ndarray]) -> list[str]:
    """A chunk's CSV rows: distance, block size, the ``lead`` fields, the result
    ``columns`` (``%.12g`` for a float64 one, else ``_fmt``) and the names of the
    set ``flags`` among a report's bool columns, any ``*_degenerate`` as ``degenerate``
    and any ``*_nonphysical`` as ``nonphysical``."""
    floats = [column.dtype == np.float64 for column in columns]
    template = ",".join(["%s", "%d", *lead] + ["%.12g" if f else "%s" for f in floats] + ["%s"])
    values = [c.tolist() if f else list(map(_fmt, c.tolist())) for c, f in zip(columns, floats)]
    shown = ("c44_clamped", "c_clamped", "ie_mixing_clamped", "ie_radicand_clamped", "negative_length")
    marks = {key: flags[key] for key in shown if key in flags}
    for mark in ("degenerate", "nonphysical"):
        marks[mark] = np.zeros(len(distances), dtype=bool)
        for key in (key for key in flags if key.endswith("_" + mark)):
            marks[mark] |= flags[key]
    names = sorted(marks)  # a point's marks as a bitmask, the first name its highest bit
    code = sum(marks[name] << (len(names) - 1 - j) for j, name in enumerate(names))
    labels = [";".join(compress(names, bits)) for bits in product((0, 1), repeat=len(names))]
    flagged = map(labels.__getitem__, code.tolist())
    text = {d: "%.12g" % d for d in dict.fromkeys(distances)}  # each distinct distance once
    return [template % row for row in zip(map(text.__getitem__, distances), sizes, *values, flagged)]


def _render_report(report, n_total: int) -> list[str]:
    lines = [f"n_total = {n_total}"]
    lines += [f"{f.name} = {_fmt(getattr(report, f.name))}" for f in fields(report)[:-1]]
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
        # report_at keeps a flag only where it is set
        nonphysical = any(key.endswith("_nonphysical") for key in report.intermediate)
        lines.append(
            f"  c44_lower={_fmt(report.c44_lower)} i_e={_fmt(report.i_e)} "
            f"e_zz={_fmt(report.e_zz)} key_length={_fmt(report.key_length)}"
            + " nonphysical" * nonphysical
        )
    lines.append(f"key_length = {_fmt(result.key_length)}")
    lines.append(f"key_rate = {_fmt(result.key_length / n_total)}")
    return lines


# ---------------------------------------------------------------------------
# subcommands: each takes the parsed arguments, the run configuration and the
# validated protocol, channel and security parameters, and returns its output
# lines and whether a key was produced


def cmd_point(args, run, cfg, ch, sec) -> tuple[list[str], bool]:
    """Full pipeline at one distance."""
    slices = _make_slices(run, cfg, ch, run["mode"])
    lines, key = _analyze(cfg, sec, slices, _options(args, run))
    if args.dump_tallies:
        with open(args.dump_tallies, "w", encoding="utf-8", newline="") as handle:
            write_tally_csv(slices, handle)
    head = [f"distance_km = {_fmt(run['distance_km'])}", f"mode = {run['mode']}"]
    return head + lines, key


def cmd_scan(args, run, cfg, ch, sec) -> tuple[list[str], bool]:
    """Key rate versus distance as CSV."""
    options = _options(args, run)
    rows = ["distance_km,n_total,key_rate,c44_lower,e_zz,s1_lower,flags"]
    any_key = False
    for sizes, distances, _, block in _grid(run, cfg, ch, run["mode"]):
        result = analyze_batch(block, cfg, sec, n_total=sizes, **options)
        columns = (result.key_rate, result.c44_lower, result.e_zz, result.s1_zz_lower)
        rows += _csv_rows((), distances, sizes, columns, result.intermediate)
        any_key = any_key or bool((result.key_rate > 0.0).any())
        del block, result  # before the next block is computed
    return rows, any_key


def cmd_compare(args, run, cfg, ch, sec) -> tuple[list[str], bool]:
    """Protocol comparison as CSV."""
    options = _options(args, run)
    rows = ["distance_km,n_total,protocol,key_rate,c_lower,e_zz,flags"]
    any_key = False
    for sizes, distances, absorbed, block in _grid(run, cfg, ch, "analytic"):
        six = (protocol(cfg, ch, distances, sizes, absorbed)
               for protocol in (baselines.six_four, baselines.six_state))
        reports = analyze_classes([four_state(block), *six], cfg, sec, sizes, **options)
        protocols = [_csv_rows(
            (name,), distances, sizes, (r.key_rate, r.c44_lower, r.e_zz), r.intermediate
        ) for name, r in zip(baselines.PROTOCOLS, reports)]
        for point_rows in zip(*protocols):
            rows += point_rows
        any_key = any_key or any(bool((r.key_rate > 0.0).any()) for r in reports)
        del block, reports  # before the next block is computed
    return rows, any_key


def cmd_process(args, run, cfg, ch, sec) -> tuple[list[str], bool]:
    """Re-analyze a tally file."""
    try:
        with open(args.tally_file, "r", encoding="utf-8") as handle:
            slices = read_tally_csv(handle)
        # the file's own block size, not the configured one
        cfg = replace(cfg, n_total=total_pulses(slices))
        if cfg.n_total == 0:
            raise TallyError("no pulses sent: the Z rows' sent counts sum to 0")
        lines, key = _analyze(cfg, sec, slices, _options(args, run))
    except (OSError, TallyError) as exc:
        raise TallyFileError(exc) from exc
    return [f"tally_file = {args.tally_file}"] + lines, key


def cmd_simulate(args, run, cfg, ch, sec) -> tuple[list[str], bool]:
    """Write Monte Carlo tally files."""
    slices = _make_slices(run, cfg, ch, "montecarlo")
    buffer = io.StringIO()
    write_tally_csv(slices, buffer)
    return buffer.getvalue().splitlines(), True


# ---------------------------------------------------------------------------
# argument plumbing


class _NotRead(argparse.Action):
    """A flag of another subcommand: naming it is a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        command = parser.prog.rsplit(" ", 1)[-1]
        parser.exit(EXIT_ERROR, f"error: {command} does not read {option_string}\n")


def build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The parser of ``argv``: only the subcommand it names (its first token that is
    not an option) gets its arguments. A subcommand named first is the only one
    built; otherwise the others get just their help line, for the top-level help
    or usage error."""
    invoked = next((token for token in argv if not token.startswith("-")), None)
    alone = invoked in _EVERY and argv[0] == invoked
    parser = argparse.ArgumentParser(
        prog="rfiqkd",
        description="security analysis pipeline for a four-state "
        "reference-frame-independent QKD protocol",
    )
    # the usage line names every subcommand, also when one is built
    metavar = "{%s}" % ",".join(_EVERY) if alone else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    runners = (cmd_point, cmd_scan, cmd_compare, cmd_process, cmd_simulate)
    for command, func in zip(_EVERY, runners):
        if alone and command != invoked:
            continue
        sub_parser = sub.add_parser(command, help=func.__doc__)
        sub_parser.set_defaults(func=func)
        if command != invoked:
            continue
        if command == "process":
            sub_parser.add_argument("tally_file")
        offered = command_flags(command)
        for flag, (key, help_text) in _FLAGS.items():
            if flag not in offered:
                sub_parser.add_argument(flag, nargs="?", action=_NotRead, help=argparse.SUPPRESS)
            elif flag in _SWITCHES:
                sub_parser.add_argument(flag, action="store_true", help=help_text)
            else:
                dest = key if isinstance(key, str) else None
                sub_parser.add_argument(flag, dest=dest, choices=_CHOICES.get(dest), help=help_text)
    return parser


def _run_config(args) -> RunConfig:
    """The subcommand's configuration: the file's values, then its flags'."""
    run = load_config(args.config, COMMANDS[args.command])
    for key in (key for key, _ in _FLAGS.values() if key in run.reads):
        raw = getattr(args, key)
        if raw is not None:
            run.values[key] = _parse_value(key, raw, _SCHEMA[key][1])
            run.origin[key] = "flag"
    return run


def _joint_problems(run: RunConfig, cfg: ProtocolConfig, problems: list[str]) -> list[str]:
    """The checks of keys taken together, after each key's own (``problems``):
    the probability sums; the decoy bounds' preconditions, the drift angles
    and the block size's split into slices, each once the keys it reads are
    in range; and the grid budget, once all else passes."""
    failed = {problem.partition(":")[0] for problem in problems}
    sums = {"p_mu + p_nu + p_omega": sum(entry.probability for entry in cfg.intensities),
            "p_z_alice + p_x0 + p_y0": cfg.p_z_alice + cfg.p_x0 + cfg.p_y0}
    joint = [f"{keys} must sum to 1, got {total!r}"
             for keys, total in sums.items() if abs(total - 1.0) > 1e-12]
    if failed.isdisjoint(("mu", "nu", "omega", "p_mu", "p_nu", "p_omega")):
        try:
            setting(cfg.intensities, None)
        except DecoyPreconditionError as exc:
            joint.append(str(exc))
    # a trace's extreme angles, from its ends: n_slices = 1 takes the channel's angle
    drift = ("n_slices", "drift_beta0_rad", "drift_rate_rad", "drift_amplitude_rad")
    n, beta0, rate, amplitude = map(run.__getitem__, drift)
    if "n_slices" not in failed and cfg.n_total % n:
        joint.append(f"n_total={cfg.n_total} is not divisible by n_slices={n}")
    if n > 1 and failed.isdisjoint(drift):
        if run["drift"] == "linear" and not math.isfinite(beta0 + rate * ((n - 1) / n)):
            joint.append(f"drift_beta0_rad + drift_rate_rad*(n_slices-1)/n_slices must be finite, "
                         f"got {beta0} + {rate}*{n - 1}/{n}")
        if run["drift"] == "sinusoidal" and not math.isfinite(abs(beta0) + abs(amplitude)):
            joint.append(f"drift_beta0_rad +/- drift_amplitude_rad must be finite, "
                         f"got {beta0} +/- {amplitude}")
    lo, hi, step = run["scan_min_km"], run["scan_max_km"], run["scan_step_km"]
    if not problems and not joint and (count := _grid_count(lo, hi, step)) > MAX_GRID_POINTS:
        size = "are too many to count" if math.isinf(count) else (
            f"give {count:.12g} distances, over the {MAX_GRID_POINTS} a grid may have")
        joint.append(f"scan_step_km: {step} km steps over [{lo}, {hi}] km {size}")
    return joint


def main(
    argv: Sequence[str] | None = None,
    out: TextIO | None = None,
    err: TextIO | None = None,
) -> int:
    """Load and override the configuration, validate it, run the subcommand
    and write its output; the exit code says whether a key was produced."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    argv = sys.argv[1:] if argv is None else argv
    try:
        # argparse prints help and usage errors to sys.stdout and sys.stderr
        with redirect_stdout(out), redirect_stderr(err):
            args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == EXIT_OK else EXIT_ERROR
    try:
        run = _run_config(args)
        if run.ignored:
            print(f"note: {args.command} ignores config keys {', '.join(run.ignored)}", file=err)
        if args.show_defaults:
            out.write("\n".join(run.provenance_lines()) + "\n")
            return EXIT_OK
        cfg, ch, sec = run.protocol_config(), run.channel_params(), run.security_params()
        problems = sorted(
            f"{key}: {need}, got {run[key]}" for key, checks in _RANGES.items()
            for ok, need in checks if run[key] is not None and not ok(run[key])
        )
        problems += _joint_problems(run, cfg, problems)
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
