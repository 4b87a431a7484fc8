"""Monte Carlo tally generation with photon-number ground truth.

Sampling is hierarchical and entirely count-based, so block sizes of 1e12
pulses stay cheap. Each slice takes five array draws from one generator,
in this order:

1. a multinomial split of the slice's pulses over the 12 (state, intensity)
   pairs, states Z0, Z1, X0, Y0 times intensities mu, nu, omega;
2. a binomial split of each pair over the receiver's passive basis choice
   (the Z share), which gives the 24 routed groups in ``ALL_CELLS`` order;
3. a multinomial split of each routed group over emitted photon numbers,
   every Poisson pmf zero-padded to the widest photon-number cap;
4. a binomial draw of the detections per group and photon number;
5. a binomial draw of the errors among those detections.

The generator of slice ``i`` is seeded with ``(seed mod 2**64, i,
STREAM_VERSION)``, so slices can be sampled in any order, or in parallel,
with bit-identical results. ``STREAM_VERSION`` changes whenever the draws
do; version 1 used 13 streams per slice and one scalar draw per count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Literal, Mapping

import numpy as np

from .channel import misalignment_error, transmittance
from .core import (
    ALL_CELLS,
    BASES,
    CELL_INDEX,
    KINDS,
    MAX_PULSES,
    STATES,
    TWO_PI,
    BasisLabel,
    ChannelParams,
    ObservedTallies,
    ProtocolConfig,
    StateLabel,
)

POISSON_TAIL = 1e-12

STREAM_VERSION = 2

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
    """The draws of one trace: its constants once, then one call per slice."""

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

    def slice(self, beta: float, n_pulses: int, seed: int, slice_index: int) -> OracleTallies:
        if not 0 <= n_pulses <= MAX_PULSES:
            raise ValueError(f"n_pulses {n_pulses} is outside the 64-bit count budget [0, 2**62]")
        rng = np.random.default_rng((int(seed) % 2**64, int(slice_index), STREAM_VERSION))
        # (state, 1, intensity), so that the basis axis slots in as in ALL_CELLS
        sent = rng.multinomial(n_pulses, self.pair_probs).reshape(len(STATES), 1, len(KINDS))
        routed_z = rng.binomial(sent, self.p_z_bob)
        routed = np.concatenate((routed_z, sent - routed_z), axis=1).reshape(-1)
        photons = rng.multinomial(routed, self.pmf)
        # Rounding in a pmf's tail can leave photons in the last, padded
        # column; they belong on the row's own cap, as in an unpadded draw.
        spill = np.where(self.short, photons[:, -1], 0)
        photons[:, -1] -= spill
        photons[np.arange(len(ALL_CELLS)), self.cap] += spill
        detected = rng.binomial(photons, self.yields)
        e_mis = np.repeat(
            [misalignment_error(s, b, beta, self.e0) for s in STATES for b in BASES], len(KINDS)
        )
        # zero where the yield is zero: no photon and no dark count, no detection
        error_prob = np.divide(
            e_mis[:, None] * self.survive + self.dark_errors, self.yields,
            out=np.zeros_like(self.yields), where=self.yields > 0.0,
        )
        errors = rng.binomial(detected, error_prob)
        return OracleTallies(np.concatenate((sent, sent), axis=1).reshape(-1), detected, errors)


def _sample_block(
    cfg: ProtocolConfig,
    ch: ChannelParams,
    distance_km: float,
    beta: float,
    n_pulses: int,
    seed: int,
    slice_index: int,
) -> OracleTallies:
    """Draw slice ``slice_index`` of a trace on its own."""
    return _Sampler(cfg, ch, distance_km).slice(beta, n_pulses, seed, slice_index)


def sample_tallies(
    cfg: ProtocolConfig, ch: ChannelParams, distance_km: float, seed: int
) -> OracleTallies:
    """Draw one full block of tallies at the channel's rotation angle."""
    return _sample_block(
        cfg, ch, distance_km, ch.beta, cfg.n_total, seed, slice_index=0
    )


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
    (as a fraction of the run) for ``sinusoidal``. The three models are
    deterministic.
    """
    if n_slices < 1:
        raise ValueError(f"n_slices must be >= 1, got {n_slices}")
    beta0 = float(params.get("beta0", 0.0))
    betas = []
    for i in range(n_slices):
        t = i / n_slices
        if model == "fixed":
            value = beta0
        elif model == "linear":
            value = beta0 + float(params.get("rate", TWO_PI)) * t
        elif model == "sinusoidal":
            period = float(params.get("period", 1.0))
            value = beta0 + float(params.get("amplitude", math.pi / 4)) * math.sin(
                TWO_PI * t / period
            )
        else:
            raise ValueError(f"unknown drift model {model!r}")
        betas.append(value % TWO_PI)
    return DriftTrace(tuple(betas), pulses_per_slice)


def sample_drifting_tallies(
    cfg: ProtocolConfig,
    ch: ChannelParams,
    distance_km: float,
    trace: DriftTrace,
    seed: int,
) -> list[OracleTallies]:
    """Draw one block per slice, replacing the rotation angle slice by slice."""
    if trace.n_total != cfg.n_total:
        raise ValueError(
            f"trace covers {trace.n_total} pulses but the configuration "
            f"expects {cfg.n_total}"
        )
    sampler = _Sampler(cfg, ch, distance_km)
    return [
        sampler.slice(beta, trace.pulses_per_slice, seed, i)
        for i, beta in enumerate(trace.betas)
    ]
