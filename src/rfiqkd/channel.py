"""Analytic model of the fiber channel, receiver paths and detectors.

The model is the standard threshold-detector weak-coherent-pulse one: a
pulse of intensity k is detected with probability ``1 - (1-e_d) * exp(-eta*k)``
and the misalignment error is sinusoidal in the reference-frame rotation
angle, scaled so that a rotation of zero reproduces the intrinsic error.

``expected_tallies`` evaluates many (distance, angle, block size) points in one
numpy pass, bit for bit equal to the per-cell formula: transcendentals stay in
``math`` (``cos`` and ``sin`` per distinct angle; two ``10 ** x`` and six ``exp(-eta * k)`` per
distinct distance, in ``absorption``), as numpy's ``exp``, ``power`` and ``log2`` differ
from ``math``'s on 4.7 %, 5.3 % and 0.19 % of 10^6 uniform inputs.
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
    ProtocolConfig,
    StateLabel,
    TallyBatch,
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


def _gain_and_qber(absorbed, e_mis, e_d) -> tuple[np.ndarray, np.ndarray]:
    """Per-pulse detection probability and error rate per detection, 1/2 where the
    gain is zero, from ``absorbed = exp(-eta * k)``; floats or numpy arrays, the
    error rate in the shape ``absorbed`` and ``e_mis`` broadcast to."""
    gain, error = 1.0 - (1.0 - e_d) * absorbed, e_d / 2.0 + e_mis * (1.0 - absorbed)
    qber = np.divide(error, gain, out=np.full(np.shape(error), 0.5), where=gain > 0.0)
    return gain, np.minimum(qber, 1.0)


def expected_counts(pulses, absorbed, e_mis, e_d) -> tuple[np.ndarray, np.ndarray]:
    """Expected (detections, errors) of cells that send ``pulses`` each, arrays
    that broadcast with ``absorbed`` and ``e_mis`` as in ``_gain_and_qber``: the
    detections ``rint(gain * pulses)``, and the errors the error rate times the
    unrounded detections, rounded, at most the detections. Every protocol's
    analytic counts come from here."""
    gain, qber = _gain_and_qber(absorbed, e_mis, e_d)
    detected = gain * pulses
    errors = np.rint(qber * detected)
    np.rint(detected, out=detected)
    return detected, np.minimum(errors, detected, out=errors)


def cell_expectation(
    state: StateLabel,
    basis: BasisLabel,
    k: IntensityClass,
    distance_km: float,
    ch: ChannelParams,
    beta: float | None = None,
) -> CellExpectation:
    """Expected gain and error rate of one cell; ``beta`` overrides the channel's
    rotation angle (used when replaying a drift trace)."""
    eta = transmittance(distance_km, basis, ch)
    e_mis = misalignment_error(state, basis, ch.beta if beta is None else beta, ch.e0)
    gain, qber = _gain_and_qber(exp(-eta * k.mean_photons), e_mis, ch.e_d)
    return CellExpectation(float(gain), float(qber))


def absorption(ch: ChannelParams, intensities, distances: Sequence[float]) -> np.ndarray:
    """``exp(-eta * k)`` of each point (row) by receiver path, in ``BASES`` order, then
    intensity (column); each distinct distance is evaluated in ``math`` once."""
    distinct, width = dict.fromkeys(distances), len(BASES) * len(intensities)  # first-seen order
    table = np.fromiter((
        exp(-eta * k.mean_photons)
        for d in distinct for eta in [transmittance(d, path, ch) for path in BASES] for k in intensities
    ), float, len(distinct) * width).reshape(len(distinct), width)
    if len(distinct) == len(distances):
        return table
    row_of = {d: row for row, d in enumerate(distinct)}
    return table[[row_of[d] for d in distances]]


def expected_tallies(
    cfg: ProtocolConfig,
    ch: ChannelParams,
    distances: Sequence[float],
    betas: Sequence[float] | None = None,
    n_total=None,
    absorbed: np.ndarray | None = None,
) -> TallyBatch:
    """Expected counts for every cell, rounded to the nearest integer, one table
    per distance. Point ``i`` takes the rotation angle ``betas[i]`` (used when
    replaying a drift trace), by default the channel's, and the block size
    ``n_total[i]``, by default ``cfg.n_total``. ``absorbed`` holds the rows of
    ``absorption`` at ``distances`` when the caller has them."""
    betas = [ch.beta] * len(distances) if betas is None else betas
    if len(betas) != len(distances):
        raise ValueError(f"{len(betas)} rotation angles for {len(distances)} distances")
    # ALL_CELLS repeats the six (path, intensity) columns once per state
    rows = absorption(ch, [cfg.intensity(k) for k in KINDS], distances) if absorbed is None else absorbed
    absorbed = np.tile(rows, len(STATES))
    angles = list(dict.fromkeys(betas))  # each distinct angle's row once: a grid has one
    cos_b, sin_b = np.array([cos(b) for b in angles]), np.array([sin(b) for b in angles])
    e_mis = np.empty((len(angles), len(ALL_CELLS)))
    for column, (state, basis, _) in enumerate(ALL_CELLS):
        e_mis[:, column] = _misalignment(state, basis, ch.e0, cos_b, sin_b)
    if 1 < len(angles) < len(betas):
        row_of = {b: row for row, b in enumerate(angles)}
        e_mis = e_mis[[row_of[b] for b in betas]]
    # n_total * p_state * p_intensity (* p_basis), in the per-cell order of operations
    block = np.array(cfg.n_total if n_total is None else n_total, dtype=float).reshape(-1, 1)
    sent = block * [cfg.state_probability(s) for s, _, _ in ALL_CELLS]
    sent *= [cfg.intensity(k).probability for _, _, k in ALL_CELLS]
    pulses = sent * [cfg.basis_probability(b) for _, b, _ in ALL_CELLS]
    detected, errors = expected_counts(pulses, absorbed, e_mis, ch.e_d)
    np.rint(sent, out=sent)
    np.minimum(detected, sent, out=detected)
    counts = np.empty((len(distances), len(ALL_CELLS), 3), dtype=np.int64)
    counts[:, :, 0], counts[:, :, 1], counts[:, :, 2] = sent, detected, np.minimum(errors, detected)
    return TallyBatch(counts)
