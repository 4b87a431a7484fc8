"""Finite-key secret-key length, drift classification and group extraction.

``analyze_tallies`` is the complete estimator stack: it takes one block of
observed counts and produces a key-length report with every intermediate
bound recorded. ``group_and_extract`` applies it per drift group after
classifying time slices by their X-basis error statistics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import itemgetter

import numpy as np

from .core import (
    ALL_CELLS,
    CELL_INDEX,
    FIELDS,
    MAX_PULSES,
    TWO_PI,
    BasisLabel,
    IntensityKind,
    KeyRateReport,
    ObservedTallies,
    ProtocolConfig,
    SecurityParams,
    StateLabel,
    TallyError,
    cell_name,
    zero_tallies,
)
from . import decoy, security
from .security import binary_entropy

__all__ = [
    "KeyLength",
    "key_length",
    "RhoResult",
    "DriftClassifier",
    "GroupBucket",
    "GroupedData",
    "group_slices",
    "total_pulses",
    "BucketOutcome",
    "ExtractionResult",
    "group_and_extract",
    "analyze_tallies",
]


@dataclass(frozen=True)
class KeyLength:
    """Clamped secret-key length together with the raw (signed) value."""

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
    """
    raw = s0 + s1 * (1.0 - i_e) - n_zz * sec.f_ec * binary_entropy(e_zz)
    if not asymptotic:
        raw = (
            raw
            - math.log2(2.0 / sec.eps_ec)
            - 2.0 * math.log2(2.0 / sec.eps_pa)
            - 7.0 * math.sqrt(n_zz * math.log2(2.0 / sec.eps_bar))
            - 30.0 * math.log2(n_total + 1.0)
        )
    return KeyLength(max(raw, 0.0), raw)


@dataclass(frozen=True)
class RhoResult:
    """Drift-classification angle; a degenerate slice has no usable angle."""

    rho: float
    degenerate: bool = False


class DriftClassifier:
    """Per-slice frame-angle estimate from the slice's own counts."""

    def classify(self, tallies: ObservedTallies) -> RhoResult:
        """The angle ``atan2(1 - 2 e_Y0X, 1 - 2 e_X0X) mod 2*pi``.

        ``e_X0X`` and ``e_Y0X`` are the observed error rates of the
        signal-intensity X0 and Y0 cells measured in X, the correlator pair
        of Laing et al. (PRA 82, 012304, 2010). Each ``1 - 2e`` is the cosine
        or the sine of the angle times the same visibility, so no channel,
        intensity or distance input is needed. A slice without detections in
        either cell is degenerate and belongs in the overflow group.
        """
        (_, xx_detected, xx_errors), (_, yx_detected, yx_errors) = tallies.counts[
            _CLASSIFY_ROWS
        ].tolist()
        if xx_detected == 0 or yx_detected == 0:
            return RhoResult(0.0, degenerate=True)
        rho = math.atan2(1 - 2 * yx_errors / yx_detected, 1 - 2 * xx_errors / xx_detected)
        return RhoResult(rho % TWO_PI)


# Count-array rows of the signal-intensity X0 and Y0 cells measured in X
_CLASSIFY_ROWS = [
    CELL_INDEX[(state, BasisLabel.X, IntensityKind.MU)]
    for state in (StateLabel.X0, StateLabel.Y0)
]
# Count-array rows measured in Z: their sent column holds every pulse once
_Z_ROWS = [row for row, (_, basis, _) in enumerate(ALL_CELLS) if basis is BasisLabel.Z]
_pick_z = itemgetter(*_Z_ROWS)


@dataclass(frozen=True)
class GroupBucket:
    """One drift group: accumulated tallies plus the angle interval it covers."""

    index: int | None  # None marks the overflow group
    rho_low: float
    rho_high: float
    tallies: ObservedTallies
    n_slices: int
    n_pulses: int


@dataclass(frozen=True)
class GroupedData:
    buckets: tuple[GroupBucket, ...]

    def total_tallies(self) -> ObservedTallies:
        total = zero_tallies()
        for bucket in self.buckets:
            total = total + bucket.tallies
        return total


def group_slices(
    slices: list[ObservedTallies],
    m_groups: int,
) -> GroupedData:
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
    classify = DriftClassifier().classify

    def group_of(entry: ObservedTallies) -> int:
        if m_groups == 1:
            return 0
        result = classify(entry)
        if result.degenerate:
            return overflow
        return min(int(result.rho / width), m_groups - 1)

    group = np.fromiter(map(group_of, slices), np.intp, len(slices))
    stack = np.array([entry.counts for entry in slices], dtype=np.int64).reshape(
        len(slices), len(ALL_CELLS), len(FIELDS)
    )
    # sent bounds the other two fields. Its high and low 31 bits are summed
    # apart, which cannot wrap in int64 for fewer than 2**32 slices, and
    # joined as Python ints, so the budget check below is exact.
    high = np.zeros((m_groups + 1, len(ALL_CELLS)), dtype=np.int64)
    low = np.zeros_like(high)
    np.add.at(high, group, stack[:, :, 0] >> 31)
    np.add.at(low, group, stack[:, :, 0] & (2**31 - 1))
    sent = high.astype(object) * 2**31 + low.astype(object)
    over = np.argwhere(sent > MAX_PULSES)
    if len(over):
        i, row = over[0]
        raise TallyError(
            f"group {'overflow' if i == overflow else i}: cell {cell_name(ALL_CELLS[row])}: "
            f"summed sent={sent[i, row]} exceeds the 64-bit count budget {MAX_PULSES}"
        )
    sums = np.zeros((m_groups + 1, len(ALL_CELLS), len(FIELDS)), dtype=np.int64)
    np.add.at(sums, group, stack)
    n_slices = np.bincount(group, minlength=m_groups + 1).tolist()

    def bucket(i: int, index: int | None, rho_low: float, rho_high: float) -> GroupBucket:
        tallies = ObservedTallies(sums[i])
        return GroupBucket(index, rho_low, rho_high, tallies, n_slices[i], sum(sent[i, _Z_ROWS]))

    buckets = [bucket(i, i, i * width, (i + 1) * width) for i in range(m_groups)]
    if n_slices[overflow]:
        buckets.append(bucket(overflow, None, 0.0, TWO_PI))
    return GroupedData(tuple(buckets))


def total_pulses(slices: list[ObservedTallies]) -> int:
    """Pulses sent over all slices, summed exactly from the Z rows' sent column."""
    # Python ints, so the sum cannot wrap; no stacked copy of the slices
    return sum(sum(_pick_z(entry.counts[:, 0].tolist())) for entry in slices)


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
    grouped: GroupedData


# Event classes whose detection counts must be nonzero at signal and decoy
# intensity for a group to be analyzable at all.
_REQUIRED_CLASSES = (
    ((StateLabel.Z0, StateLabel.Z1), BasisLabel.Z),
    ((StateLabel.Z0,), BasisLabel.X),
    ((StateLabel.Z1,), BasisLabel.X),
    ((StateLabel.X0,), BasisLabel.X),
    ((StateLabel.Y0,), BasisLabel.X),
)


def _missing_cells(tallies: ObservedTallies) -> str | None:
    for states, basis in _REQUIRED_CLASSES:
        detected = tallies.class_detected(states, basis)
        for kind, value in zip((IntensityKind.MU, IntensityKind.NU), detected[:2]):
            if value == 0:
                names = "+".join(s.value for s in states)
                return f"no detections for ({names},{basis.value}) at {kind.value}"
    return None


def group_and_extract(
    slices: list[ObservedTallies],
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
    grouped = group_slices(slices, m_groups)
    outcomes = []
    total = 0.0
    for bucket in grouped.buckets:
        if bucket.n_slices == 0:
            outcomes.append(BucketOutcome(bucket, None, 0.0, "empty group"))
            continue
        problem = _missing_cells(bucket.tallies)
        if problem is not None:
            outcomes.append(BucketOutcome(bucket, None, 0.0, problem))
            continue
        bucket_cfg = replace(cfg, n_total=max(bucket.n_pulses, 1))
        report = analyze_tallies(bucket.tallies, bucket_cfg, sec, **analysis_options)
        outcomes.append(BucketOutcome(bucket, report, report.key_length))
        total += report.key_length
    return ExtractionResult(total, tuple(outcomes), grouped)


def analyze_tallies(
    tallies: ObservedTallies,
    cfg: ProtocolConfig,
    sec: SecurityParams,
    asymptotic: bool = False,
    n_zz_all_intensities: bool = True,
    literal_paper_formulas: bool = False,
) -> KeyRateReport:
    """Run decoy estimation, channel-quality bounds and the key-length formula.

    ``asymptotic=True`` collapses every interval onto its point estimate
    and drops the block-size penalty terms, which yields the asymptotic
    rate used as an upper reference.
    """
    eps = None if asymptotic else sec.eps_bar
    inter: dict[str, float] = {}

    def record(name: str, bound: decoy.BoundedCount) -> None:
        inter[f"{name}_lower"] = bound.lower
        inter[f"{name}_point"] = bound.point
        inter[f"{name}_upper"] = bound.upper
        if bound.clamped:
            inter[f"{name}_clamped"] = 1.0
        if bound.degenerate:
            inter[f"{name}_degenerate"] = 1.0

    zz_states = (StateLabel.Z0, StateLabel.Z1)
    zz_detected = tallies.class_detected(zz_states, BasisLabel.Z)
    zz_errors = tallies.class_errors(zz_states, BasisLabel.Z)
    s0_zz, s1_zz = decoy.yield_bounds(
        zz_detected, cfg.intensities, eps, literal_paper_formulas
    )
    record("s0_zz", s0_zz)
    record("s1_zz", s1_zz)

    rates: dict[StateLabel, decoy.BoundedCount] = {}
    for state in (StateLabel.Z0, StateLabel.Z1, StateLabel.X0, StateLabel.Y0):
        cls = decoy.class_bounds(
            tallies.class_detected((state,), BasisLabel.X),
            tallies.class_errors((state,), BasisLabel.X),
            cfg.intensities,
            eps,
            literal_paper_formulas,
        )
        tag = state.value.lower() + "x"
        for name in ("s0", "s1", "t", "e"):
            record(f"{name}_{tag}", getattr(cls, name))
        rates[state] = cls.e

    cb = security.c_bounds(
        rates[StateLabel.Z0],
        rates[StateLabel.Z1],
        rates[StateLabel.X0],
        rates[StateLabel.Y0],
        literal_c1_lower=literal_paper_formulas,
    )
    inter["c1_lower"] = cb.c1_lower
    inter["c1_upper"] = cb.c1_upper
    inter["c2_lower"] = cb.c2_lower
    inter["c2_upper"] = cb.c2_upper
    if cb.clamped:
        inter["c44_clamped"] = 1.0
    i_e = security.ie_4state(cb.c44_lower)

    # the sifted key: every intensity, or the signal intensity only
    kinds = 3 if n_zz_all_intensities else 1
    n_zz = sum(zz_detected[:kinds])
    m_zz = sum(zz_errors[:kinds])
    e_zz = m_zz / n_zz if n_zz > 0 else 0.0

    kl = key_length(
        s0_zz.lower, s1_zz.lower, i_e, n_zz, e_zz, sec, cfg.n_total, asymptotic
    )
    if kl.negative:
        inter["negative_length"] = 1.0
    inter["key_length_raw"] = kl.raw

    return KeyRateReport(
        s0_zz_lower=s0_zz.lower,
        s1_zz_lower=s1_zz.lower,
        c44_lower=cb.c44_lower,
        i_e=i_e,
        e_zz=e_zz,
        n_zz=n_zz,
        key_length=kl.length,
        key_rate=kl.length / cfg.n_total,
        intermediate=inter,
    )
