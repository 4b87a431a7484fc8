"""Analytic model of the fiber channel, receiver paths and detectors.

The model is the standard threshold-detector weak-coherent-pulse one: a
pulse of intensity k is detected with probability ``1 - (1-e_d) * exp(-eta*k)``
and the misalignment error is sinusoidal in the reference-frame rotation
angle, scaled so that a rotation of zero reproduces the intrinsic error.

``expected_tallies`` evaluates many (distance, angle) points in one numpy pass, bit
for bit equal to the per-cell formula: transcendentals stay in ``math`` per point
(two ``10 ** x``, six ``exp(-eta * k)``, ``cos``, ``sin``), as numpy's ``exp``, ``power``
and ``log2`` differ from ``math``'s on 4.7 %, 5.3 % and 0.19 % of 10^6 uniform inputs.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import cos, exp, sin
from typing import Sequence

import numpy as np

from .core import (
    ALL_CELLS,
    BASES,
    KINDS,
    STATES,
    BasisLabel,
    ChannelParams,
    IntensityClass,
    ObservedTallies,
    ProtocolConfig,
    StateLabel,
)


@dataclass(frozen=True)
class CellExpectation:
    """Per-pulse detection probability and per-detection error probability."""

    gain: float
    qber: float


def transmittance(distance_km: float, path: BasisLabel, ch: ChannelParams) -> float:
    """Overall efficiency of one receiver path at the given fiber length.

    Detector efficiency is folded in; the Z and X paths differ only by
    their fixed receiver losses in dB.
    """
    path_db = ch.eta_z_db if path is BasisLabel.Z else ch.eta_xy_db
    total_db = ch.alpha_db_per_km * distance_km + path_db
    return 10.0 ** (-total_db / 10.0) * ch.eta_det


def quadrature_error(e0: float, projection: float) -> float:
    """Misalignment error of a state whose ideal outcome projects onto the
    measured axis with the given signed overlap (1 for a perfect match)."""
    return (1.0 - (1.0 - 2.0 * e0) * projection) / 2.0


def misalignment_error(
    state: StateLabel, basis: BasisLabel, beta: float, e0: float
) -> float:
    """Single-photon error probability of a cell before dark counts.

    Z states measured in Z see only the intrinsic error. Any state whose
    ideal outcome is balanced in the chosen basis sits at 1/2. The X0 and
    Y0 states read out the two quadratures of the rotation angle.
    """
    return _misalignment(state, basis, e0, cos(beta), sin(beta))


def _misalignment(state, basis, e0, cos_beta, sin_beta):
    """``misalignment_error`` from the angle's quadratures, floats or arrays."""
    if basis is BasisLabel.Z:
        if state is StateLabel.Z0 or state is StateLabel.Z1:
            return e0
        return 0.5
    if state is StateLabel.X0:
        return quadrature_error(e0, cos_beta)
    if state is StateLabel.Y0:
        return quadrature_error(e0, sin_beta)
    return 0.5


def pulse_probabilities(absorbed, e_mis, e_d):
    """Per-pulse probabilities of a detection and of an erroneous detection,
    from ``absorbed = exp(-eta * k)``; floats or numpy arrays."""
    return 1.0 - (1.0 - e_d) * absorbed, e_d / 2.0 + e_mis * (1.0 - absorbed)


def _gain_and_qber(absorbed, e_mis, e_d) -> tuple[np.ndarray, np.ndarray]:
    """Gain and error rate per detection, 1/2 where the gain is zero."""
    gain, error = pulse_probabilities(absorbed, e_mis, e_d)
    qber = np.divide(error, gain, out=np.full(np.shape(gain), 0.5), where=gain > 0.0)
    return gain, np.minimum(qber, 1.0)


def cell_expectation(
    state: StateLabel,
    basis: BasisLabel,
    k: IntensityClass,
    distance_km: float,
    ch: ChannelParams,
    beta: float | None = None,
) -> CellExpectation:
    """Expected gain and error rate of one cell.

    ``beta`` overrides the channel's rotation angle (used when replaying a
    drift trace).
    """
    eta = transmittance(distance_km, basis, ch)
    e_mis = misalignment_error(state, basis, ch.beta if beta is None else beta, ch.e0)
    gain, qber = _gain_and_qber(exp(-eta * k.mean_photons), e_mis, ch.e_d)
    return CellExpectation(float(gain), float(qber))


def expected_tallies(
    cfg: ProtocolConfig,
    ch: ChannelParams,
    distances: Sequence[float],
    betas: Sequence[float] | None = None,
) -> list[ObservedTallies]:
    """Expected counts for every cell, rounded to the nearest integer, one table
    per distance. Point ``i`` takes the rotation angle ``betas[i]`` (used when
    replaying a drift trace), by default the channel's."""
    betas = [ch.beta] * len(distances) if betas is None else betas
    if len(betas) != len(distances):
        raise ValueError(f"{len(betas)} rotation angles for {len(distances)} distances")
    kinds = [cfg.intensity(kind) for kind in KINDS]
    # one exp per point and (path, intensity); ALL_CELLS repeats those six per state
    absorbed = np.tile(np.array([
        [exp(-transmittance(d, b, ch) * k.mean_photons) for b in BASES for k in kinds]
        for d in distances
    ]).reshape(len(distances), len(BASES) * len(KINDS)), len(STATES))
    cos_b, sin_b = np.array([cos(b) for b in betas]), np.array([sin(b) for b in betas])
    e_mis = np.empty_like(absorbed)
    for column, (state, basis, _) in enumerate(ALL_CELLS):
        e_mis[:, column] = _misalignment(state, basis, ch.e0, cos_b, sin_b)
    gain, qber = _gain_and_qber(absorbed, e_mis, ch.e_d)
    sent = [cfg.n_total * cfg.state_probability(s) * cfg.intensity(k).probability
            for s, _, k in ALL_CELLS]
    detected = gain * [x * cfg.basis_probability(b) for x, (_, b, _) in zip(sent, ALL_CELLS)]
    sent_i = np.rint(sent)
    det_i = np.minimum(np.rint(detected), sent_i)
    err_i = np.minimum(np.rint(detected * qber), det_i)
    counts = np.stack(np.broadcast_arrays(sent_i, det_i, err_i), axis=-1).astype(np.int64)
    return [ObservedTallies(table) for table in counts]
