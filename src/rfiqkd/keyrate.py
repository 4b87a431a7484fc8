"""Finite-key secret-key length, drift classification and group extraction.

``analyze_batch`` is the complete estimator stack: it takes the tally tables
of n points and produces one key-length report whose fields are arrays, with
every intermediate bound recorded. ``analyze_tallies`` is the same for one
table. Both run ``analyze_classes``, the estimator the baselines share.
``group_and_extract`` applies it per drift group after classifying time
slices by their X-basis error statistics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import reduce

import numpy as np

from .core import (
    ALL_CELLS,
    CELL_INDEX,
    FIELDS,
    KINDS,
    MAX_PULSES,
    TWO_PI,
    BasisLabel,
    IntensityKind,
    KeyRateReport,
    ObservedTallies,
    ProtocolConfig,
    SecurityParams,
    StateLabel,
    TallyBatch,
    TallyError,
    cell_name,
)
from . import decoy, security
from .security import binary_entropies

__all__ = [
    "KeyLength",
    "key_length",
    "DriftClassifier",
    "CLASSIFY_ROWS",
    "GroupBucket",
    "group_slices",
    "total_pulses",
    "BucketOutcome",
    "ExtractionResult",
    "group_and_extract",
    "analyze_batch",
    "analyze_classes",
    "analyze_tallies",
    "four_state",
]


@dataclass(frozen=True)
class KeyLength:
    """Clamped secret-key length together with the raw (signed) value;
    numbers, or arrays with one entry per point."""

    length: float
    raw: float

    @property
    def negative(self) -> bool:
        return self.raw < 0.0


def key_length(
    s0: float,
    s1: float,
    i_e: float,
    n_zz: float,
    e_zz: float,
    sec: SecurityParams,
    n_total: int,
    asymptotic: bool = False,
) -> KeyLength:
    """Secret-key length of one block, clamped at zero.

    ``s0`` and ``s1`` are the lower bounds on vacuum and single-photon
    detections in the key basis, ``i_e`` the leaked-information bound,
    ``n_zz``/``e_zz`` the sifted-key size and its error rate.
    ``asymptotic=True`` drops the block-size penalty terms of
    Lim et al. (PRA 89, 022307, 2014), leaving the asymptotic formula.
    Every input but ``sec`` may be an array with one entry per point.
    """
    raw = s0 + s1 * (1.0 - i_e) - n_zz * sec.f_ec * binary_entropies(e_zz)
    if not asymptotic:
        # numpy's sqrt rounds as math's; object arrays hold Python floats here
        root = np.sqrt(np.asarray(n_zz * math.log2(2.0 / sec.eps_bar), dtype=float))
        # the block-size term's log2 once per distinct size; a grid chunk holds a few
        sizes = np.ravel(n_total).tolist()
        log2_of = {n: math.log2(n + 1.0) for n in set(sizes)}
        block = np.array([log2_of[n] for n in sizes]).reshape(np.shape(n_total))
        raw = (
            raw
            - math.log2(2.0 / sec.eps_ec)
            - 2.0 * math.log2(2.0 / sec.eps_pa)
            - 7.0 * root
            - 30.0 * block
        )
    return KeyLength(np.where(0.0 > raw, 0.0, raw), raw)


class DriftClassifier:
    """Per-slice frame-angle estimate from the slice's own counts.

    A namespace for one function: ``perfbench`` traces it by this name.
    """

    @staticmethod
    def classify(x0: list[int], y0: list[int]) -> float | None:
        """The angle ``atan2(1 - 2 e_Y0X, 1 - 2 e_X0X) mod 2*pi``, or None.

        ``x0`` and ``y0`` are the (detected, errors) counts of rows
        ``CLASSIFY_ROWS``: the signal-intensity X0 and Y0 cells measured in
        X, whose error rates ``e_X0X`` and ``e_Y0X`` form the correlator pair
        of Laing et al. (PRA 82, 012304, 2010). Each ``1 - 2e`` is the cosine
        or the sine of the angle times the same visibility, so no channel,
        intensity or distance input is needed. A slice without detections in
        either cell is degenerate, has no angle and belongs in the overflow
        group.
        """
        (xx_detected, xx_errors), (yx_detected, yx_errors) = x0, y0
        if xx_detected == 0 or yx_detected == 0:
            return None
        rho = math.atan2(1 - 2 * yx_errors / yx_detected, 1 - 2 * xx_errors / xx_detected)
        return rho % TWO_PI


# Count-array rows of the signal-intensity X0 and Y0 cells measured in X
CLASSIFY_ROWS = [
    CELL_INDEX[(state, BasisLabel.X, IntensityKind.MU)]
    for state in (StateLabel.X0, StateLabel.Y0)
]
# Count-array rows measured in Z: their sent column holds every pulse once
_Z_ROWS = [row for row, (_, basis, _) in enumerate(ALL_CELLS) if basis is BasisLabel.Z]


@dataclass(frozen=True, eq=False)
class GroupBucket:
    """One drift group: its summed (24, 3) counts, read-only and laid out as
    a ``TallyBatch`` table, plus the angle interval it covers."""

    index: int | None  # None marks the overflow group
    rho_low: float
    rho_high: float
    counts: np.ndarray
    n_slices: int
    n_pulses: int


def _sent_sums(sent: np.ndarray) -> np.ndarray:
    """Exact column sums of an (n, 24) sent array, as Python ints.

    The high and low 31 bits are summed apart, which cannot wrap in int64
    for fewer than 2**32 slices, and joined as Python ints.
    """
    high, low = (sent >> 31).sum(axis=0), (sent & (2**31 - 1)).sum(axis=0)
    return high.astype(object) * 2**31 + low.astype(object)


def _slice_groups(batch: TallyBatch, m_groups: int) -> np.ndarray:
    """Each slice's group, ``DriftClassifier.classify``'s angle over the group
    width, or ``m_groups`` for the overflow group.

    int64 to float64 is exact below 2**53, so with every classify count below
    2**52 each quotient is the correctly rounded one of the scalar's int
    division. A slice with a larger count takes the scalar itself.
    """
    width = TWO_PI / m_groups
    rows = batch.counts[:, CLASSIFY_ROWS, 1:]  # (slice, (X0, Y0), (detected, errors))
    detected, errors = rows[..., 0], rows[..., 1]
    live = (detected > 0).all(axis=1)
    ratio = np.divide(2 * errors, detected, out=np.zeros(detected.shape), where=live[:, None])
    cos, sin = (1 - ratio).T.tolist()
    # math's atan2, then Python's float % and int() as numpy's remainder and truncation
    rho = np.remainder(list(map(math.atan2, sin, cos)), TWO_PI)
    group = np.minimum((rho / width).astype(np.intp), m_groups - 1)
    group[~live] = m_groups
    for i in np.flatnonzero((rows >= 2**52).any(axis=(1, 2))).tolist():
        angle = DriftClassifier.classify(*rows[i].tolist())
        group[i] = m_groups if angle is None else min(int(angle / width), m_groups - 1)
    return group


def group_slices(batch: TallyBatch, m_groups: int) -> tuple[GroupBucket, ...]:
    """Assign per-slice tallies to uniform angle groups.

    With one group, classification is skipped and everything is pooled,
    which makes the grouped pipeline identical to the ungrouped one.
    Degenerate slices land in a dedicated overflow group. A summed count
    above ``MAX_PULSES`` raises ``TallyError`` naming the group.
    """
    if m_groups < 1:
        raise ValueError(f"m_groups must be >= 1, got {m_groups}")
    width = TWO_PI / m_groups
    overflow = m_groups  # row of the overflow group
    if m_groups == 1:
        group = np.zeros(len(batch), dtype=np.intp)
    else:
        group = _slice_groups(batch, m_groups)
    n_slices = np.bincount(group, minlength=m_groups + 1).tolist()
    sums = np.zeros((m_groups + 1, len(ALL_CELLS), len(FIELDS)), dtype=np.int64)
    sent = np.zeros((m_groups + 1, len(ALL_CELLS)), dtype=object)
    for i in np.flatnonzero(n_slices):
        # a group of every slice needs no copy of the batch
        members = batch.counts if n_slices[i] == len(batch) else batch.counts[group == i]
        sent[i] = _sent_sums(members[:, :, 0])
        # sent bounds the other two fields: they wrap only if sent does
        sums[i] = members.sum(axis=0)
    over = np.argwhere(sent > MAX_PULSES)
    if len(over):
        i, row = over[0]
        raise TallyError(
            f"group {'overflow' if i == overflow else i}: cell {cell_name(ALL_CELLS[row])}: "
            f"summed sent={sent[i, row]} exceeds the 64-bit count budget {MAX_PULSES}"
        )
    sums.flags.writeable = False

    def bucket(i: int, index: int | None, rho_low: float, rho_high: float) -> GroupBucket:
        return GroupBucket(index, rho_low, rho_high, sums[i], n_slices[i], sum(sent[i, _Z_ROWS]))

    buckets = [bucket(i, i, i * width, (i + 1) * width) for i in range(m_groups)]
    if n_slices[overflow]:
        buckets.append(bucket(overflow, None, 0.0, TWO_PI))
    return tuple(buckets)


def total_pulses(batch: TallyBatch) -> int:
    """Pulses sent over all slices, summed exactly from the Z rows' sent column."""
    return sum(_sent_sums(batch.counts[:, :, 0])[_Z_ROWS])


@dataclass(frozen=True)
class BucketOutcome:
    bucket: GroupBucket
    report: KeyRateReport | None
    key_length: float
    diagnostic: str | None = None


@dataclass(frozen=True)
class ExtractionResult:
    key_length: float
    outcomes: tuple[BucketOutcome, ...]


# Event classes whose detection counts must be nonzero at signal and decoy
# intensity for a group to be analyzable at all.
_REQUIRED_CLASSES = (
    ((StateLabel.Z0, StateLabel.Z1), BasisLabel.Z),
    ((StateLabel.Z0,), BasisLabel.X),
    ((StateLabel.Z1,), BasisLabel.X),
    ((StateLabel.X0,), BasisLabel.X),
    ((StateLabel.Y0,), BasisLabel.X),
)
# Count-array rows of each required class's cells per intensity, one list per
# state; the analysis reads the key class, then the four X-basis classes
_CLASS_ROWS = {
    (states, basis): [[CELL_INDEX[(state, basis, kind)] for kind in KINDS] for state in states]
    for states, basis in _REQUIRED_CLASSES
}
_ZZ = _REQUIRED_CLASSES[0]
_X_ROWS = [_CLASS_ROWS[key] for key in _REQUIRED_CLASSES[1:]]


def _missing_cells(counts: np.ndarray) -> str | None:
    """The first required class without detections at signal or decoy
    intensity in a (24, 3) count array, or None."""
    for (states, basis), rows in _CLASS_ROWS.items():
        # counts are >= 0: a class has none where none of its cells has any
        detected = counts[rows, 1].any(axis=0).tolist()
        for kind, found in zip((IntensityKind.MU, IntensityKind.NU), detected):
            if not found:
                names = "+".join(s.value for s in states)
                return f"no detections for ({names},{basis.value}) at {kind.value}"
    return None


def group_and_extract(
    batch: TallyBatch,
    m_groups: int,
    cfg: ProtocolConfig,
    sec: SecurityParams,
    **analysis_options,
) -> ExtractionResult:
    """Classify slices, run the full pipeline per group, sum the key lengths.

    Groups with insufficient counts contribute zero length and carry a
    diagnostic instead of a report. Summation order is fixed by group
    index, so results do not depend on evaluation order.
    """
    buckets = group_slices(batch, m_groups)
    problems = [
        "empty group" if bucket.n_slices == 0 else _missing_cells(bucket.counts)
        for bucket in buckets
    ]
    analyzed = [bucket for bucket, problem in zip(buckets, problems) if problem is None]
    reports = iter(())
    if analyzed:  # one block of every analyzable group, each with its own block size
        counts = TallyBatch(np.stack([bucket.counts for bucket in analyzed]))
        n_total = [max(bucket.n_pulses, 1) for bucket in analyzed]
        block = analyze_batch(counts, cfg, sec, n_total=n_total, **analysis_options)
        reports = (report_at(block, i) for i in range(len(analyzed)))
    outcomes = []
    total = 0.0
    for bucket, problem in zip(buckets, problems):
        if problem is not None:
            outcomes.append(BucketOutcome(bucket, None, 0.0, problem))
            continue
        report = next(reports)
        outcomes.append(BucketOutcome(bucket, report, report.key_length))
        total += report.key_length
    return ExtractionResult(total, tuple(outcomes))


def analyze_batch(
    batch: TallyBatch,
    cfg: ProtocolConfig,
    sec: SecurityParams,
    asymptotic: bool = False,
    n_zz_all_intensities: bool = True,
    literal_paper_formulas: bool = False,
    n_total=None,
) -> KeyRateReport:
    """Run decoy estimation, channel-quality bounds and the key-length formula
    on every table of ``batch``. ``n_total`` holds each table's block size,
    by default ``cfg.n_total``.

    Each field and ``intermediate`` entry is an array with one entry per
    table; a flag (``*_clamped``, ``*_degenerate``, ``*_nonphysical``,
    ``negative_length``) is a bool array. A table with a non-physical bound
    gets key length 0; the others are not affected by it.

    ``asymptotic=True`` collapses every interval onto its point estimate
    and drops the block-size penalty terms, which yields the asymptotic
    rate used as an upper reference.
    """
    sizes = [cfg.n_total] * len(batch) if n_total is None else n_total
    return analyze_classes(
        [four_state(batch)], cfg, sec, sizes, asymptotic, n_zz_all_intensities, literal_paper_formulas
    )[0]


def four_state(batch: TallyBatch):
    """rfi44 as ``analyze_classes`` takes a protocol: the class sums of the tally
    rows of ``batch``'s key class and four X-basis classes, and its leak bound."""
    key, tests = (_class_sums(batch.counts, rows) for rows in (_CLASS_ROWS[_ZZ], _X_ROWS))
    return key, tests, _leak_four_state


def _class_sums(counts: np.ndarray, rows) -> np.ndarray:
    """Detections and errors of the classes whose cells are ``rows`` of (n, 24, 3)
    counts, as one (2, n, ..., 3) array; uint64 holds the sum of two cells."""
    sums = counts[:, rows, 1:].astype(np.uint64).sum(axis=-3)
    return sums.transpose(-1, *range(sums.ndim - 1))


def analyze_classes(
    protocols, cfg: ProtocolConfig, sec: SecurityParams, n_total, asymptotic: bool = False,
    n_zz_all_intensities: bool = True, literal_paper_formulas: bool = False,
) -> list[KeyRateReport]:
    """The estimator every protocol shares, on n points of block sizes
    ``n_total``, one report per protocol. A protocol is a ``(key, tests, leak)``
    triple of class counts: the key class's (detections, errors) at (signal,
    decoy, vacuum) intensity, (n, 3) each, and the test classes', (n, classes,
    3) each. ``leak(bounds, e_zz, intermediate, literal)`` maps the test classes'
    ``ClassBounds`` to the lower end of the protocol's channel statistic
    (``c44_lower``) and ``i_e``, adding its own entries to ``intermediate``, among
    them a ``*_nonphysical`` flag for any non-physical bound of the test classes.
    A point with any ``*_nonphysical`` entry set has key length 0. Every
    protocol's key classes run through one decoy chain, and all their test
    classes through another; each entry is its own class's result."""
    setting = decoy.setting(cfg.intensities, None if asymptotic else sec.eps_bar, literal_paper_formulas)
    # each block size as its float, which Python's int-to-float arithmetic would take
    sizes = np.array(n_total, dtype=float)
    # exact before stacking: a block holding an object part stays object
    keys = [decoy.exact_counts(key) for key, _, _ in protocols]
    tests = [decoy.exact_counts(classes) for _, classes, _ in protocols]
    s0_zz, s1_zz = decoy.yield_bounds(np.stack([detected for detected, _ in keys], axis=-2), setting)
    bounds = decoy.class_bounds(*np.concatenate(tests, axis=-2), setting)
    ends = np.cumsum([0] + [t.shape[-2] for t in tests]).tolist()
    # the sifted key: every intensity, or the signal intensity only
    kinds = 3 if n_zz_all_intensities else 1
    reports = []
    for p, ((zz_detected, zz_errors), (_, _, leak)) in enumerate(zip(keys, protocols)):
        inter = {f"{name}_{end}": getattr(bound, end)[:, p]
                 for name, bound in (("s0_zz", s0_zz), ("s1_zz", s1_zz))
                 for end in ("lower", "point", "upper", "clamped", "nonphysical")}
        own = bounds if len(protocols) == 1 else decoy.ClassBounds(
            *(b[:, ends[p]:ends[p + 1]] for b in vars(bounds).values()))
        n_zz = sum(zz_detected[:, k] for k in range(kinds))
        e_zz, _ = decoy.divide(sum(zz_errors[:, k] for k in range(kinds)), n_zz, 0.0)
        c_lower, i_e = leak(own, e_zz, inter, literal_paper_formulas)

        s0, s1 = inter["s0_zz_lower"], inter["s1_zz_lower"]
        kl = key_length(s0, s1, i_e, n_zz, e_zz, sec, sizes, asymptotic)
        inter["negative_length"] = kl.negative
        inter["key_length_raw"] = kl.raw
        flags = [flag for name, flag in inter.items() if name.endswith("_nonphysical")]
        length = np.where(reduce(np.logical_or, flags), 0.0, kl.length)
        rate = np.asarray(length / sizes, dtype=float)
        reports.append(KeyRateReport(s0, s1, c_lower, i_e, e_zz, n_zz, length, rate, inter))
    return reports


# each X-basis class's chain in ``intermediate``: (bound, end) -> the four classes' names
_X_ENTRIES = {
    (name, end): [f"{name}_{states[0].value.lower()}x_{end}" for states, _ in _REQUIRED_CLASSES[1:]]
    for name in ("s0", "s1", "t", "e")
    for end in ("lower", "point", "upper", "clamped", "degenerate", "nonphysical")
}


def _leak_four_state(xs: decoy.ClassBounds, e_zz, inter: dict, literal: bool):
    """rfi44: each X-basis class's chain recorded, then c44 and its leak bound."""
    for (name, end), keys in _X_ENTRIES.items():
        value = getattr(getattr(xs, name), end)
        if isinstance(value, np.ndarray):  # a flag left at its default is not recorded
            inter.update(zip(keys, value.T))
    e = xs.e  # each class's error-rate bound, from its columns
    cb = security.c_bounds(*(decoy.BoundedCount(*ends) for ends in zip(e.lower.T, e.point.T, e.upper.T)),
                           literal_c1_lower=literal)
    for name in ("c1_lower", "c1_upper", "c2_lower", "c2_upper"):
        inter[name] = getattr(cb, name)
    inter["c44_clamped"] = cb.clamped
    inter["c44_nonphysical"] = cb.nonphysical
    return cb.c44_lower, security.ie_4state(cb.c44_lower)


def analyze_tallies(
    tallies: ObservedTallies, cfg: ProtocolConfig, sec: SecurityParams, **options
) -> KeyRateReport:
    """``analyze_batch`` of one table, as that table's report."""
    return report_at(analyze_batch(TallyBatch(tallies.counts[None]), cfg, sec, **options), 0)


def report_at(report: KeyRateReport, i: int) -> KeyRateReport:
    """Entry ``i`` of a batch report: numbers, and in ``intermediate`` a flag
    only where it is set, as 1.0."""
    values = {f.name: getattr(report, f.name).item(i) for f in fields(report)[:-1]}
    inter = {}
    for name, column in report.intermediate.items():
        if column.dtype != bool:
            inter[name] = column.item(i)
        elif column[i]:
            inter[name] = 1.0
    return KeyRateReport(**values, intermediate=inter)
