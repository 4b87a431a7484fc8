"""Shared domain types.

Everything here is an immutable value object. Instances are cheap to copy
with :func:`dataclasses.replace` and safe to share between workers.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

MAX_PULSES = 2**62  # counts are held in 64-bit integers

TWO_PI = 2.0 * math.pi


class StateLabel(enum.Enum):
    """States prepared at the transmitter. There is no X1 or Y1."""

    Z0 = "Z0"
    Z1 = "Z1"
    X0 = "X0"
    Y0 = "Y0"


class BasisLabel(enum.Enum):
    """Measurement bases at the receiver. There is no Y basis."""

    Z = "Z"
    X = "X"


class IntensityKind(enum.Enum):
    MU = "mu"  # signal
    NU = "nu"  # decoy
    OMEGA = "omega"  # vacuum


STATES = (StateLabel.Z0, StateLabel.Z1, StateLabel.X0, StateLabel.Y0)
BASES = (BasisLabel.Z, BasisLabel.X)
KINDS = (IntensityKind.MU, IntensityKind.NU, IntensityKind.OMEGA)

CellKey = tuple[StateLabel, BasisLabel, IntensityKind]

ALL_CELLS: tuple[CellKey, ...] = tuple(
    (s, b, k) for s in STATES for b in BASES for k in KINDS
)


@dataclass(frozen=True)
class IntensityClass:
    """One pulse-intensity setting: mean photon number and selection probability."""

    kind: IntensityKind
    mean_photons: float
    probability: float


@dataclass(frozen=True)
class ChannelParams:
    """Physical-layer constants of the fiber link and receiver."""

    e0: float = 0.01  # intrinsic error probability
    alpha_db_per_km: float = 0.19  # fiber loss
    eta_z_db: float = 4.0  # receiver Z-path loss
    eta_xy_db: float = 9.0  # receiver XY-path loss
    e_d: float = 1.3e-7  # dark-count probability per gate
    eta_det: float = 0.6  # detector efficiency
    beta: float = 0.0  # reference-frame rotation angle, radians


@dataclass(frozen=True)
class SecurityParams:
    """Failure-probability budget and error-correction efficiency."""

    eps_bar: float = 1e-10  # smooth min-entropy estimation accuracy
    eps_ec: float = 1e-10  # error-correction failure probability
    eps_pa: float = 1e-10  # privacy-amplification failure probability
    f_ec: float = 1.1  # error-correction efficiency (>= 1)


def intensity_triple(
    mu: float,
    nu: float,
    omega: float,
    p_mu: float,
    p_nu: float,
    p_omega: float,
) -> tuple[IntensityClass, IntensityClass, IntensityClass]:
    return (
        IntensityClass(IntensityKind.MU, mu, p_mu),
        IntensityClass(IntensityKind.NU, nu, p_nu),
        IntensityClass(IntensityKind.OMEGA, omega, p_omega),
    )


@dataclass(frozen=True)
class ProtocolConfig:
    """Source intensities, state/basis probabilities and block bookkeeping.

    ``p_x0`` and ``p_y0`` default to ``(1 - p_z_alice) / 2`` each.
    """

    intensities: tuple[IntensityClass, IntensityClass, IntensityClass] = intensity_triple(
        0.55, 0.28, 0.0, 0.54, 0.36, 0.10
    )
    p_z_alice: float = 0.77
    p_x0: float | None = None
    p_y0: float | None = None
    p_z_bob: float = 0.5
    n_total: int = 3_000_000_000_000
    m_groups: int = 1

    def __post_init__(self) -> None:
        rest = (1.0 - self.p_z_alice) / 2.0
        if self.p_x0 is None:
            object.__setattr__(self, "p_x0", rest)
        if self.p_y0 is None:
            object.__setattr__(self, "p_y0", rest)

    def state_probability(self, state: StateLabel) -> float:
        if state is StateLabel.Z0 or state is StateLabel.Z1:
            return self.p_z_alice / 2.0
        if state is StateLabel.X0:
            return float(self.p_x0)
        return float(self.p_y0)

    def basis_probability(self, basis: BasisLabel) -> float:
        return self.p_z_bob if basis is BasisLabel.Z else 1.0 - self.p_z_bob

    def intensity(self, kind: IntensityKind) -> IntensityClass:
        for entry in self.intensities:
            if entry.kind is kind:
                return entry
        raise KeyError(kind)


class TallyError(ValueError):
    """A tally table violates a structural constraint."""


# Row of each cell in the count array; the three columns are FIELDS.
CELL_INDEX: dict[CellKey, int] = {key: row for row, key in enumerate(ALL_CELLS)}
FIELDS = ("sent", "detected", "errors")
_TABLE = (len(ALL_CELLS), len(FIELDS))  # shape of one count array
# (pair name, Z row, X row) of each (state, intensity) pair
_PAIR_ROWS = tuple(
    (
        f"({state.value},{kind.value})",
        CELL_INDEX[(state, BasisLabel.Z, kind)],
        CELL_INDEX[(state, BasisLabel.X, kind)],
    )
    for state in STATES
    for kind in KINDS
)


@dataclass(frozen=True)
class ObservedTallies:
    """Detection and error counts for all 24 (state, basis, intensity) cells.

    ``counts`` is a read-only int64 array of shape (24, 3): one row per cell
    in ``ALL_CELLS`` order, columns ``FIELDS``. The constructor copies the
    array it is given.

    ``sent`` is the number of pulses emitted with that (state, intensity)
    pair; the same value appears in both basis rows of a pair because the
    receiver's passive basis choice happens after emission. Every count lies
    in [0, MAX_PULSES].
    """

    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = self.counts
        if not isinstance(counts, np.ndarray) or counts.shape != _TABLE or counts.dtype != np.int64:
            raise TallyError(
                f"expected an int64 array of shape {_TABLE}, got "
                f"{getattr(counts, 'dtype', type(counts).__name__)} {np.shape(counts)}"
            )
        problem = _table_problem(counts.tolist())
        if problem is not None:
            raise TallyError(problem)
        array = counts.copy()
        array.flags.writeable = False
        object.__setattr__(self, "counts", array)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ObservedTallies):
            return NotImplemented
        return bool(np.array_equal(self.counts, other.counts))

    def _class_sums(
        self, states: Iterable[StateLabel], basis: BasisLabel, field: int
    ) -> tuple[int, int, int]:
        states = tuple(states)
        column = self.counts[:, field].tolist()  # Python ints: the sums cannot wrap
        return tuple(  # type: ignore[return-value]
            sum(column[CELL_INDEX[(s, basis, k)]] for s in states) for k in KINDS
        )

    def class_detected(
        self, states: Iterable[StateLabel], basis: BasisLabel
    ) -> tuple[int, int, int]:
        """Detections per intensity (mu, nu, omega) summed over ``states``."""
        return self._class_sums(states, basis, 1)

    def class_errors(
        self, states: Iterable[StateLabel], basis: BasisLabel
    ) -> tuple[int, int, int]:
        return self._class_sums(states, basis, 2)

    def __add__(self, other: "ObservedTallies") -> "ObservedTallies":
        # sent bounds the other two fields; compared so that nothing wraps
        over = self.counts[:, 0] > MAX_PULSES - other.counts[:, 0]
        if over.any():
            row = int(np.argmax(over))
            raise TallyError(
                f"cell {cell_name(ALL_CELLS[row])}: summed sent="
                f"{int(self.counts[row, 0]) + int(other.counts[row, 0])} exceeds the "
                f"64-bit count budget {MAX_PULSES}"
            )
        return ObservedTallies(self.counts + other.counts)


@dataclass(frozen=True, eq=False)
class TallyBatch:
    """The tally tables of n time slices, checked as a whole.

    ``counts`` is a read-only int64 array of shape (n, 24, 3); table ``i``
    is laid out as ``ObservedTallies.counts`` and belongs to slice
    ``slices[i]``, by default ``i``; ``batch[i]`` is its ``ObservedTallies``.
    A cell whose ``sent`` is negative is missing. The constructor makes an
    array that owns its memory read-only in place, and copies any other array.

    A table that ``ObservedTallies`` would refuse makes the constructor
    raise the same message, prefixed ``slice k: `` for the first such
    table; a table with missing cells names them instead.
    """

    counts: np.ndarray
    slices: Sequence[int] = ()

    def __post_init__(self) -> None:
        counts = self.counts
        if not isinstance(counts, np.ndarray) or counts.shape[1:] != _TABLE or counts.dtype != np.int64:
            raise TallyError(
                f"expected an int64 array of shape (n, 24, 3), got "
                f"{getattr(counts, 'dtype', type(counts).__name__)} {np.shape(counts)}"
            )
        if counts.base is not None:
            counts = counts.copy()
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        if not self.slices:
            object.__setattr__(self, "slices", range(len(counts)))
        sent, detected, errors = counts[:, :, 0], counts[:, :, 1], counts[:, :, 2]
        # a negative sent, so a missing cell, fails one of these too
        bad = (sent > MAX_PULSES) | (detected > sent) | (errors > detected) | (errors < 0)
        pairs = sent.reshape(len(counts), len(STATES), len(BASES), len(KINDS))
        bad_table = bad.any(axis=1) | (pairs[:, :, 0] != pairs[:, :, 1]).any(axis=(1, 2))
        if bad_table.any():
            first = int(bad_table.argmax())
            rows = counts[first].tolist()
            missing = [key for key, row in zip(ALL_CELLS, rows) if row[0] < 0]
            if missing:
                problem = (
                    f"expected {len(ALL_CELLS)} cells, got {len(ALL_CELLS) - len(missing)}; "
                    f"missing {missing}"
                )
            else:
                problem = _table_problem(rows)
            raise TallyError(f"slice {self.slices[first]}: {problem}")

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, i: int) -> ObservedTallies:
        return ObservedTallies(self.counts[i])


def _table_problem(rows: list[list[int]]) -> str | None:
    """The first constraint that one table's count rows violate, or None.

    In Python ints: on a single table this beats numpy's per-call overhead.
    """
    for key, (sent, detected, errors) in zip(ALL_CELLS, rows):
        if not 0 <= errors <= detected <= sent:
            return (
                f"cell {cell_name(key)}: need 0 <= errors <= detected <= sent, "
                f"got sent={sent} detected={detected} errors={errors}"
            )
        if sent > MAX_PULSES:
            return f"cell {cell_name(key)}: sent={sent} exceeds the 64-bit count budget {MAX_PULSES}"
    for pair, z_row, x_row in _PAIR_ROWS:
        if rows[z_row][0] != rows[x_row][0]:
            return (
                f"pair {pair}: sent differs between the Z and X rows, "
                f"{rows[z_row][0]} != {rows[x_row][0]}"
            )
    return None


def cell_name(key: CellKey) -> str:
    state, basis, kind = key
    return f"({state.value},{basis.value},{kind.value})"


@dataclass(frozen=True)
class KeyRateReport:
    """Final key-length result with every intermediate bound kept for audit.
    A baseline's report holds that protocol's statistic C in ``c44_lower``."""

    s0_zz_lower: float
    s1_zz_lower: float
    c44_lower: float
    i_e: float
    e_zz: float
    n_zz: float  # an int where a class total reaches 10^12
    key_length: float
    key_rate: float
    intermediate: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "intermediate", MappingProxyType(dict(self.intermediate)))
