"""Monte Carlo tally generation with photon-number ground truth.

Sampling is hierarchical and entirely count-based, so block sizes of 1e12
pulses stay cheap. A drift trace is drawn ``BLOCK`` consecutive slices at a
time, each block in five array draws over all its slices from one
generator, in this order:

1. a multinomial split of each slice's pulses over the 12 (state, intensity)
   pairs, states Z0, Z1, X0, Y0 times intensities mu, nu, omega;
2. a binomial split of each pair over the receiver's passive basis choice
   (the Z share), which gives the 24 routed groups in ``ALL_CELLS`` order;
3. a multinomial split of each routed group over emitted photon numbers,
   every Poisson pmf zero-padded to the widest photon-number cap;
4. a binomial draw of the detections per group and photon number;
5. a binomial draw of the errors among those detections.

Block ``j`` (slices ``j*BLOCK`` on) draws from a generator seeded with
``(seed mod 2**64, j, 2)``, so blocks can be sampled in any order, or in
parallel, with bit-identical results. ``STREAM_VERSION`` changes whenever
the draws do: version 1 used 13 streams per slice, version 2 one generator
per slice, version 3 one per block. A block of one slice (``sample_tallies``,
a one-slice trace) draws exactly what version 2 drew.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Literal, Mapping, Sequence

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

POISSON_TAIL = 1e-12

STREAM_VERSION = 3

BLOCK = 128  # slices of a drift trace per generator and per array draw

_PAIRS = tuple((s, k) for s in STATES for k in KINDS)


@dataclass(frozen=True)
class OracleTallies:
    """Observable tallies plus the photon-number side information.

    Read-only int64 arrays in ``ALL_CELLS`` order: ``sent`` has shape (24,),
    ``detected`` and ``errors`` have shape (24, P), where column n counts the
    pulses that carried n photons.
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
        """True (detections, errors) from pulses that carried ``photons``."""
        if photons < 0:
            raise ValueError(f"photons must be >= 0, got {photons}")
        if photons >= self.detected.shape[1]:
            return 0, 0
        rows = [CELL_INDEX[(state, basis, kind)] for state in states for kind in KINDS]
        return (
            sum(self.detected[rows, photons].tolist()),
            sum(self.errors[rows, photons].tolist()),
        )


def poisson_pmf_capped(mean: float, tail: float = POISSON_TAIL) -> np.ndarray:
    """Poisson pmf truncated at the smallest cap with tail mass below ``tail``.

    The residual mass is folded onto the cap entry so the vector sums to 1.
    """
    if mean < 0:
        raise ValueError(f"mean must be >= 0, got {mean}")
    probs = [math.exp(-mean)]
    cumulative = probs[0]
    n = 0
    while 1.0 - cumulative > tail:
        n += 1
        probs.append(probs[-1] * mean / n)
        cumulative += probs[-1]
    probs[-1] += max(1.0 - cumulative, 0.0)
    return np.asarray(probs)


class _Sampler:
    """The draws of one trace: its constants once, then one call per block of slices."""

    def __init__(self, cfg: ProtocolConfig, ch: ChannelParams, distance_km: float) -> None:
        self.pair_probs = np.array(
            [cfg.state_probability(s) * cfg.intensity(k).probability for s, k in _PAIRS]
        )
        self.p_z_bob = cfg.p_z_bob
        self.e0 = ch.e0
        pmfs = [poisson_pmf_capped(cfg.intensity(k).mean_photons) for _, _, k in ALL_CELLS]
        width = max(map(len, pmfs))
        self.pmf = np.array([np.pad(pmf, (0, width - len(pmf))) for pmf in pmfs])
        self.cap = np.array([len(pmf) - 1 for pmf in pmfs])
        self.short = self.cap < width - 1
        eta = np.array([transmittance(distance_km, b, ch) for _, b, _ in ALL_CELLS])
        self.survive = 1.0 - (1.0 - eta[:, None]) ** np.arange(width)
        dark = ch.e_d * (1.0 - self.survive)
        self.yields = self.survive + dark
        self.dark_errors = 0.5 * dark

    def block(
        self, betas: Sequence[float], n_pulses: int, seed: int, index: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Block ``index`` of a trace, one slice of ``n_pulses`` per angle in ``betas``:
        ``sent`` of shape (b, 24), ``detected`` and ``errors`` of shape (b, 24, P)."""
        if not 0 <= n_pulses <= MAX_PULSES:
            raise ValueError(f"n_pulses {n_pulses} is outside the 64-bit count budget [0, 2**62]")
        b = len(betas)
        # version 2's third seed word: a block of one slice draws a version-2 slice
        rng = np.random.default_rng((int(seed) % 2**64, index, 2))
        # (slice, state, 1, intensity), so that the basis axis slots in as in ALL_CELLS
        sent = rng.multinomial(n_pulses, self.pair_probs, size=b).reshape(b, len(STATES), 1, -1)
        routed_z = rng.binomial(sent, self.p_z_bob)
        routed = np.concatenate((routed_z, sent - routed_z), axis=2).reshape(b, -1)
        photons = rng.multinomial(routed, self.pmf)
        # Rounding in a pmf's tail can leave photons in the last, padded
        # column; they belong on the row's own cap, as in an unpadded draw.
        spill = np.where(self.short, photons[:, :, -1], 0)
        photons[:, :, -1] -= spill
        photons[:, np.arange(len(ALL_CELLS)), self.cap] += spill
        detected = rng.binomial(photons, self.yields)
        # math's cos and sin, then the scalar formula's operations elementwise
        cos_b, sin_b = (np.array([f(beta) for beta in betas]) for f in (math.cos, math.sin))
        e_mis = np.empty((b, len(ALL_CELLS)))
        for column, (state, basis, _) in enumerate(ALL_CELLS):
            e_mis[:, column] = _misalignment(state, basis, self.e0, cos_b, sin_b)
        # zero where the yield is zero: no photon and no dark count, no detection
        error_prob = np.divide(
            e_mis[:, :, None] * self.survive + self.dark_errors, self.yields,
            out=np.zeros(detected.shape), where=self.yields > 0.0,
        )
        errors = rng.binomial(detected, error_prob)
        return np.concatenate((sent, sent), axis=2).reshape(b, -1), detected, errors


def sample_tallies(
    cfg: ProtocolConfig, ch: ChannelParams, distance_km: float, seed: int
) -> OracleTallies:
    """Draw one full block of tallies at the channel's rotation angle: a one-slice trace."""
    drawn = _Sampler(cfg, ch, distance_km).block((ch.beta,), cfg.n_total, seed, 0)
    return OracleTallies(*(array[0] for array in drawn))


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
    if model == "fixed":
        beta0 = float(params["beta0"])
        angle = lambda t: beta0
    elif model == "linear":
        beta0, rate = float(params["beta0"]), float(params["rate"])
        angle = lambda t: beta0 + rate * t
    elif model == "sinusoidal":
        beta0, amplitude, period = (float(params[k]) for k in ("beta0", "amplitude", "period"))
        angle = lambda t: beta0 + amplitude * math.sin(TWO_PI * t / period)
    else:
        raise ValueError(f"unknown drift model {model!r}")
    betas = tuple(angle(i / n_slices) % TWO_PI for i in range(n_slices))
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
        sent, detected, errors = sampler.block(
            trace.betas[first : first + BLOCK], trace.pulses_per_slice, seed, index
        )
        tables = counts[first : first + BLOCK]
        tables[:, :, 0] = sent
        detected.sum(axis=2, out=tables[:, :, 1])
        errors.sum(axis=2, out=tables[:, :, 2])
    return TallyBatch(counts)
