"""Analytic model of the fiber channel, receiver paths and detectors.

The model is the standard threshold-detector weak-coherent-pulse one: a
pulse of intensity k is detected with probability ``1 - (1-e_d) * exp(-eta*k)``
and the misalignment error is sinusoidal in the reference-frame rotation
angle, scaled so that a rotation of zero reproduces the intrinsic error.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import cos, exp, sin

import numpy as np

from .core import (
    ALL_CELLS,
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
    if basis is BasisLabel.Z:
        if state is StateLabel.Z0 or state is StateLabel.Z1:
            return e0
        return 0.5
    if state is StateLabel.X0:
        return quadrature_error(e0, cos(beta))
    if state is StateLabel.Y0:
        return quadrature_error(e0, sin(beta))
    return 0.5


def pulse_probabilities(
    eta: float, mean_photons: float, e_mis: float, e_d: float
) -> tuple[float, float]:
    """Per-pulse probabilities of a detection and of an erroneous detection."""
    absorbed = exp(-eta * mean_photons)
    return 1.0 - (1.0 - e_d) * absorbed, e_d / 2.0 + e_mis * (1.0 - absorbed)


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
    angle = ch.beta if beta is None else beta
    e_mis = misalignment_error(state, basis, angle, ch.e0)
    gain, error = pulse_probabilities(eta, k.mean_photons, e_mis, ch.e_d)
    if gain <= 0.0:
        return CellExpectation(0.0, 0.5)
    return CellExpectation(gain, min(error / gain, 1.0))


def expected_tallies(
    cfg: ProtocolConfig,
    ch: ChannelParams,
    distance_km: float,
    beta: float | None = None,
) -> ObservedTallies:
    """Expected counts for every cell, rounded to the nearest integer."""
    rows = []
    for state, basis, kind in ALL_CELLS:
        k = cfg.intensity(kind)
        sent = cfg.n_total * cfg.state_probability(state) * k.probability
        exp_cell = cell_expectation(state, basis, k, distance_km, ch, beta=beta)
        detected = sent * cfg.basis_probability(basis) * exp_cell.gain
        errors = detected * exp_cell.qber
        sent_i = round(sent)
        det_i = min(round(detected), sent_i)
        err_i = min(round(errors), det_i)
        rows.append((sent_i, det_i, err_i))
    return ObservedTallies(np.array(rows, dtype=np.int64))
