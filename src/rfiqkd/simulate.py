"""Monte Carlo tally generation with photon-number ground truth.

Sampling is hierarchical and entirely count-based so block sizes of 1e12
pulses stay cheap: a multinomial split of the block over (state, intensity)
pairs, a binomial split over the receiver's passive basis choice, a
multinomial photon-number split per routed group, then binomial detection
and error draws per photon-number class.

Random streams are derived deterministically from ``(seed, slice_index,
stream)`` where stream 0 drives the (state, intensity) split and stream
``1 + pair_index`` drives everything inside one pair (pairs ordered as
states Z0, Z1, X0, Y0 times intensities mu, nu, omega). Slices and pairs
can therefore be sampled in any order, or in parallel, with bit-identical
results.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Literal, Mapping

import numpy as np

from .channel import misalignment_error, transmittance
from .core import (
    ALL_CELLS,
    BASES,
    KINDS,
    MAX_PULSES,
    STATES,
    TWO_PI,
    BasisLabel,
    CellKey,
    ChannelParams,
    ObservedTallies,
    ProtocolConfig,
    StateLabel,
)

POISSON_TAIL = 1e-12

_PAIRS = tuple((s, k) for s in STATES for k in KINDS)


@dataclass(frozen=True)
class OracleCell:
    """One cell's counts partitioned by emitted photon number."""

    sent: int
    detected_by_photons: tuple[int, ...]
    errors_by_photons: tuple[int, ...]

    @property
    def detected(self) -> int:
        return int(sum(self.detected_by_photons))

    @property
    def errors(self) -> int:
        return int(sum(self.errors_by_photons))


@dataclass(frozen=True)
class OracleTallies:
    """Observable tallies plus the photon-number side information."""

    cells: Mapping[CellKey, OracleCell]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", MappingProxyType(dict(self.cells)))

    def observed(self) -> ObservedTallies:
        cells = map(self.cells.__getitem__, ALL_CELLS)
        return ObservedTallies(
            np.array([(c.sent, c.detected, c.errors) for c in cells], dtype=np.int64)
        )

    def true_counts(
        self, states: Iterable[StateLabel], basis: BasisLabel, photons: int
    ) -> tuple[int, int]:
        """True (detections, errors) from pulses that carried ``photons``."""
        det = 0
        err = 0
        for state in states:
            for kind in KINDS:
                cell = self.cells[(state, basis, kind)]
                if photons < len(cell.detected_by_photons):
                    det += cell.detected_by_photons[photons]
                    err += cell.errors_by_photons[photons]
        return det, err


def poisson_pmf_capped(mean: float, tail: float = POISSON_TAIL) -> np.ndarray:
    """Poisson pmf truncated at the smallest cap with tail mass below ``tail``.

    The residual mass is folded onto the cap entry so the vector sums to 1.
    """
    if mean < 0:
        raise ValueError(f"mean must be >= 0, got {mean}")
    if mean == 0.0:
        return np.array([1.0])
    probs = [math.exp(-mean)]
    cumulative = probs[0]
    n = 0
    while 1.0 - cumulative > tail:
        n += 1
        probs.append(probs[-1] * mean / n)
        cumulative += probs[-1]
    probs[-1] += max(1.0 - cumulative, 0.0)
    return np.asarray(probs)


def _stream(seed: int, slice_index: int, stream: int) -> np.random.Generator:
    entropy = (int(seed) % 2**64, int(slice_index), int(stream))
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _sample_block(
    cfg: ProtocolConfig,
    ch: ChannelParams,
    distance_km: float,
    beta: float,
    n_pulses: int,
    seed: int,
    slice_index: int,
) -> OracleTallies:
    if n_pulses < 0:
        raise ValueError(f"n_pulses must be >= 0, got {n_pulses}")
    if n_pulses > MAX_PULSES:
        raise ValueError(f"n_pulses {n_pulses} exceeds the 64-bit count budget")

    pair_probs = np.array(
        [cfg.state_probability(s) * cfg.intensity(k).probability for s, k in _PAIRS]
    )
    split_rng = _stream(seed, slice_index, 0)
    sent_per_pair = split_rng.multinomial(n_pulses, pair_probs)

    eta_by_basis = {b: transmittance(distance_km, b, ch) for b in BASES}
    pmf_by_kind = {
        k: poisson_pmf_capped(cfg.intensity(k).mean_photons) for k in KINDS
    }

    cells: dict[CellKey, OracleCell] = {}
    for pair_index, (state, kind) in enumerate(_PAIRS):
        rng = _stream(seed, slice_index, 1 + pair_index)
        sent = int(sent_per_pair[pair_index])
        routed_z = int(rng.binomial(sent, cfg.p_z_bob)) if sent > 0 else 0
        routed = {BasisLabel.Z: routed_z, BasisLabel.X: sent - routed_z}
        pmf = pmf_by_kind[kind]
        for basis in BASES:
            eta = eta_by_basis[basis]
            e_mis = misalignment_error(state, basis, beta, ch.e0)
            group = routed[basis]
            photon_counts = (
                rng.multinomial(group, pmf) if group > 0 else np.zeros(len(pmf), dtype=np.int64)
            )
            detected = []
            errors = []
            for n_photons, count in enumerate(photon_counts):
                survive = 1.0 - (1.0 - eta) ** n_photons
                yield_n = survive + ch.e_d * (1.0 - survive)
                det = int(rng.binomial(int(count), yield_n)) if count > 0 else 0
                if det > 0 and yield_n > 0.0:
                    err_prob = (e_mis * survive + 0.5 * ch.e_d * (1.0 - survive)) / yield_n
                    err = int(rng.binomial(det, err_prob))
                else:
                    err = 0
                detected.append(det)
                errors.append(err)
            cells[(state, basis, kind)] = OracleCell(
                sent, tuple(detected), tuple(errors)
            )
    return OracleTallies(cells)


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
    return [
        _sample_block(
            cfg, ch, distance_km, beta, trace.pulses_per_slice, seed, slice_index=i
        )
        for i, beta in enumerate(trace.betas)
    ]
