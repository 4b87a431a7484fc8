"""Monte Carlo tally generation with photon-number ground truth.

Sampling is hierarchical and entirely count-based, so block sizes of 1e12
pulses stay cheap. A drift trace is drawn ``BLOCK`` consecutive slices at a
time, each block in array draws over all its slices from one generator, in
this order:

1. a multinomial split of each slice's pulses over the 12 (state, intensity)
   pairs, states Z0, Z1, X0, Y0 times intensities mu, nu, omega;
2. a binomial split of each pair over the receiver's passive basis choice
   (the Z share), which gives the 24 routed groups in ``ALL_CELLS`` order;
3a. a multinomial split of each routed group over an error, a correct
    detection, or none;
3b. for ``sample_tallies`` only, a multinomial split of each group's errors
    over the photon classes n = 0, 1 and >= 2, then one of its correct
    detections. Pulses are independent, so 3a and 3b have the law of a
    photon-number, detection and error chain, with no Poisson tail cut off,
    and 3b comes last, so the observable counts do not depend on it.

Block ``j`` (slices ``j*BLOCK`` on) draws from a generator seeded with
``(seed mod 2**64, j, 5)``, so blocks can be sampled in any order, or in
parallel, with bit-identical results. ``STREAM_VERSION`` changes whenever
the draws do: version 1 used 13 streams per slice, version 2 one generator
per slice, version 3 one per block over photon numbers up to a Poisson cap,
version 4 one seven-outcome draw over the three photon classes, version 5
the observable outcomes first and the classes last.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Literal, Mapping, Sequence

import numpy as np

from .channel import _misalignment, transmittance
from .core import (
    ALL_CELLS,
    CELL_INDEX,
    FIELDS,
    KINDS,
    MAX_PULSES,
    STATES,
    TWO_PI,
    BasisLabel,
    ChannelParams,
    ObservedTallies,
    ProtocolConfig,
    StateLabel,
    TallyBatch,
)

STREAM_VERSION = 5

BLOCK = 128  # slices of a drift trace per generator and per array draw

_PAIRS = tuple((s, k) for s in STATES for k in KINDS)


@dataclass(frozen=True)
class OracleTallies:
    """Observable tallies plus the photon-number side information.

    Read-only int64 arrays in ``ALL_CELLS`` order: ``sent`` has shape (24,),
    ``detected`` and ``errors`` have shape (24, 3), whose columns count the
    pulses that carried 0, 1 and at least 2 photons.
    """

    sent: np.ndarray
    detected: np.ndarray
    errors: np.ndarray

    def __post_init__(self) -> None:
        for counts in (self.sent, self.detected, self.errors):
            counts.flags.writeable = False

    @property
    def counts(self) -> np.ndarray:
        """The observable (24, 3) counts, laid out as ``ObservedTallies.counts``."""
        return np.stack((self.sent, self.detected.sum(axis=1), self.errors.sum(axis=1)), axis=1)

    def observed(self) -> ObservedTallies:
        return ObservedTallies(self.counts)

    def true_counts(
        self, states: Iterable[StateLabel], basis: BasisLabel, photons: int
    ) -> tuple[int, int]:
        """True (detections, errors) from pulses that carried ``photons``, 0 or 1."""
        if photons < 0:
            raise ValueError(f"photons must be >= 0, got {photons}")
        if photons > 1:
            raise ValueError(
                f"photons must be 0 or 1, got {photons}: pulses of 2 or more photons are pooled"
            )
        rows = [CELL_INDEX[(state, basis, kind)] for state in states for kind in KINDS]
        return (
            sum(self.detected[rows, photons].tolist()),
            sum(self.errors[rows, photons].tolist()),
        )


def _class_probabilities(mean: float, eta: float) -> tuple[list[float], list[float]]:
    """Per pulse of mean photon number ``mean``, by photon class 0, 1, >= 2: the
    probability of the class, and of the class with at least one photon detected
    through a path of transmittance ``eta``. The clamps undo rounding at tiny
    means and at ``eta = 1``, so that no probability is negative."""
    p1 = mean * math.exp(-mean)
    p2 = max(-math.expm1(-mean) - p1, 0.0)
    s1 = p1 * eta
    s2 = min(max(-math.expm1(-mean * eta) - s1, 0.0), p2)
    return [math.exp(-mean), p1, p2], [0.0, s1, s2]


class _Sampler:
    """The draws of one trace: its constants once, then one call per block of slices."""

    def __init__(self, cfg: ProtocolConfig, ch: ChannelParams, distance_km: float) -> None:
        self.pair_probs = np.array(
            [cfg.state_probability(s) * cfg.intensity(k).probability for s, k in _PAIRS]
        )
        self.p_z_bob = cfg.p_z_bob
        self.e0 = ch.e0
        emitted, lit = np.array(
            [
                _class_probabilities(
                    cfg.intensity(k).mean_photons, transmittance(distance_km, b, ch)
                )
                for _, b, k in ALL_CELLS
            ]
        ).transpose(1, 0, 2)
        # Per pulse and photon class, (24, 3): a photon detected (lit), or none
        # but a dark count, which is an error half of the time.
        dark_error = 0.5 * ch.e_d * (emitted - lit)
        # Step 3b's laws, (24, 2, 3): an error, then a correct detection, in
        # each class is class_base + e_mis * class_slope. Step 3a's are their
        # sums over the classes, then none: base + e_mis * slope, (24, 3).
        self.class_base = np.stack((dark_error, lit + dark_error), axis=1)
        self.class_slope = np.stack((lit, -lit), axis=1)
        missed = np.maximum(1.0 - lit.sum(axis=1) - 2.0 * dark_error.sum(axis=1), 0.0)
        self.base = np.column_stack((self.class_base.sum(axis=2), missed))
        self.slope = np.column_stack((self.class_slope.sum(axis=2), np.zeros_like(missed)))

    def block(
        self, betas: Sequence[float], n_pulses: int, seed: int, index: int
    ) -> tuple[np.ndarray, np.ndarray, Callable[[], tuple[np.ndarray, np.ndarray]]]:
        """Block ``index`` of a trace, one slice of ``n_pulses`` per angle in ``betas``:
        ``sent`` of shape (b, 24), ``outcomes`` (b, 24, 3), each routed group's errors,
        correct detections and pulses with none, and ``split``, which draws step 3b
        and returns ``detected`` and ``errors`` (b, 24, 3) by photon class."""
        if not 0 <= n_pulses <= MAX_PULSES:
            raise ValueError(f"n_pulses {n_pulses} is outside the 64-bit count budget [0, 2**62]")
        b = len(betas)
        rng = np.random.default_rng((int(seed) % 2**64, index, STREAM_VERSION))
        # (slice, state, 1, intensity), so that the basis axis slots in as in ALL_CELLS
        sent = rng.multinomial(n_pulses, self.pair_probs, size=b).reshape(b, len(STATES), 1, -1)
        routed_z = rng.binomial(sent, self.p_z_bob)
        routed = np.concatenate((routed_z, sent - routed_z), axis=2).reshape(b, -1)
        # math's cos and sin, then the scalar formula's operations elementwise
        cos_b, sin_b = (np.array(list(map(f, betas))) for f in (math.cos, math.sin))
        e_mis = np.empty((b, len(ALL_CELLS), 1))
        for column, (state, basis, _) in enumerate(ALL_CELLS):
            e_mis[:, column, 0] = _misalignment(state, basis, self.e0, cos_b, sin_b)
        pvals = e_mis * self.slope
        pvals += self.base
        outcomes = rng.multinomial(routed, pvals)

        def split() -> tuple[np.ndarray, np.ndarray]:
            probs = e_mis[..., None] * self.class_slope + self.class_base
            totals = probs.sum(axis=3, keepdims=True)  # 0 where 3a drew none to split
            np.divide(probs, totals, out=probs, where=totals > 0.0)
            errors, correct = rng.multinomial(outcomes[:, :, :2], probs).transpose(2, 0, 1, 3)
            return errors + correct, errors

        return np.concatenate((sent, sent), axis=2).reshape(b, -1), outcomes, split


def sample_tallies(
    cfg: ProtocolConfig, ch: ChannelParams, distance_km: float, seed: int
) -> OracleTallies:
    """Draw one full block of tallies at the channel's rotation angle, a one-slice
    trace, and then its photon classes."""
    sent, _, split = _Sampler(cfg, ch, distance_km).block((ch.beta,), cfg.n_total, seed, 0)
    return OracleTallies(sent[0], *(array[0] for array in split()))


@dataclass(frozen=True)
class DriftTrace:
    """Rotation angle per time slice, all angles wrapped into [0, 2*pi)."""

    betas: tuple[float, ...]
    pulses_per_slice: int

    @property
    def n_slices(self) -> int:
        return len(self.betas)

    @property
    def n_total(self) -> int:
        return self.n_slices * self.pulses_per_slice


DriftModel = Literal["fixed", "linear", "sinusoidal"]


def drift_beta(
    model: DriftModel,
    params: Mapping[str, float],
    n_slices: int,
    pulses_per_slice: int = 1,
) -> DriftTrace:
    """Synthesize a rotation-angle trace.

    ``params`` keys: ``beta0`` for all models; ``rate`` (total sweep in
    radians over the run) for ``linear``; ``amplitude`` and ``period``
    (as a fraction of the run) for ``sinusoidal``. Each key the model uses
    is required. The three models are deterministic.
    """
    if n_slices < 1:
        raise ValueError(f"n_slices must be >= 1, got {n_slices}")
    t = np.arange(n_slices) / n_slices  # the scalar i / n_slices, exact as float64 below 2**53
    # Python's float arithmetic and %: an angle that overflows is inf, then nan, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if model == "fixed":
            angles = np.full(n_slices, float(params["beta0"]))
        elif model == "linear":
            beta0, rate = float(params["beta0"]), float(params["rate"])
            angles = beta0 + rate * t
        elif model == "sinusoidal":
            beta0, amplitude, period = (float(params[k]) for k in ("beta0", "amplitude", "period"))
            angles = beta0 + amplitude * np.array(list(map(math.sin, (TWO_PI * t / period).tolist())))
        else:
            raise ValueError(f"unknown drift model {model!r}")
        betas = tuple(np.remainder(angles, TWO_PI).tolist())
    return DriftTrace(betas, pulses_per_slice)


def sample_drifting_tallies(
    cfg: ProtocolConfig, ch: ChannelParams, distance_km: float, trace: DriftTrace, seed: int
) -> TallyBatch:
    """One table per slice of ``trace``, at its angle, drawn ``BLOCK`` slices at a time."""
    if trace.n_total != cfg.n_total:
        raise ValueError(
            f"trace covers {trace.n_total} pulses but the configuration "
            f"expects {cfg.n_total}"
        )
    sampler = _Sampler(cfg, ch, distance_km)
    counts = np.empty((trace.n_slices, len(ALL_CELLS), len(FIELDS)), dtype=np.int64)
    for index, first in enumerate(range(0, trace.n_slices, BLOCK)):
        sent, outcomes, _ = sampler.block(
            trace.betas[first : first + BLOCK], trace.pulses_per_slice, seed, index
        )
        tables = counts[first : first + BLOCK]
        tables[:, :, 0] = sent
        np.add(outcomes[:, :, 0], outcomes[:, :, 1], out=tables[:, :, 1])
        tables[:, :, 2] = outcomes[:, :, 0]
    return TallyBatch(counts)
