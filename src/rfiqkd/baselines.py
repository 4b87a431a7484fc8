"""Reference pipelines for the six-four and six-state protocol variants.

These exist only for side-by-side rate comparisons. They run on the same
channel model, decoy chain and key-length formula as the main pipeline but
work directly on event-class statistics (for example "X states measured in
X"), so no extra state labels are needed anywhere else in the package.
``distance_km`` is one distance, or an array of them evaluated as one block;
``n_total=`` gives each point its own block size, as in ``analyze_batch``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import decoy, security
from .channel import absorption, pulse_probabilities, quadrature_error
from .core import ChannelParams, ProtocolConfig, SecurityParams
from .keyrate import key_length

FOUR_STATE = "rfi44"
SIX_FOUR = "rfi64"
SIX_STATE = "rfi66"

# Receiver basis probabilities of the six-state variant (Z, X, Y).
SIX_STATE_BOB = (0.5, 0.25, 0.25)


@dataclass(frozen=True)
class BaselineReport:
    """Rate summary of one comparison pipeline at one distance, or arrays with
    one entry per distance."""

    protocol: str
    key_length: float
    key_rate: float
    c_lower: float
    i_e: float
    e_zz: float
    n_zz: float
    negative_length: bool
    clamped: bool


# (c_lower, i_e, clamped) per point from the correlator magnitudes and e_zz.
LeakBound = Callable[[list[np.ndarray], np.ndarray, bool], tuple[np.ndarray, ...]]


def _class_counts(
    cfg: ProtocolConfig,
    ch: ChannelParams,
    absorbed: np.ndarray,
    block: np.ndarray,
    alice_prob: float,
    bob_prob: float,
    e_mis: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Expected (detections, errors) of merged classes, (n, [classes,] 3) arrays,
    from each point's ``absorbed = exp(-eta * k)`` and block size, (n, [1,] 3)
    and (n, [1,] 1) arrays, and (classes, 1) receiver probabilities and errors."""
    scale = block * alice_prob * [k.probability for k in cfg.intensities] * bob_prob
    gain, error = pulse_probabilities(absorbed, e_mis, ch.e_d)
    detected = np.rint(scale * gain)
    return detected, np.minimum(np.rint(scale * error), detected)


def _run(
    protocol: str,
    leak: LeakBound,
    p_z_bob: float,
    quadratures: tuple[tuple[float, float], ...],
    cfg: ProtocolConfig,
    ch: ChannelParams,
    sec: SecurityParams,
    distance_km,
    asymptotic: bool,
    literal: bool,
    n_total,
) -> BaselineReport:
    """Shared pipeline: Z-prepared states measured in Z give the key; each
    ``(receiver probability, projection)`` pair in ``quadratures`` is one
    X- or Y-prepared class whose correlator feeds ``leak``. A distance array
    runs as one block and raises what the distances one by one raise first."""
    distances = np.atleast_1d(distance_km).tolist()
    absorbed = np.split(absorption(ch, cfg.intensities, distances), 2, axis=1)  # paths Z, X
    # block sizes as Python ints, as analyze_batch takes them
    sizes = np.array([cfg.n_total] * len(distances) if n_total is None else n_total, dtype=object)
    blocks = sizes.astype(float).reshape(-1, 1)
    setting = decoy.setting(cfg.intensities, None if asymptotic else sec.eps_bar, literal)
    p_half = (1.0 - cfg.p_z_alice) / 2.0
    bob_prob, projection = np.array(quadratures).T[..., None]  # (classes, 1) each
    e_mis = quadrature_error(ch.e0, projection)

    def evaluate(stop: int) -> BaselineReport:
        z, x, block = absorbed[0][:stop], absorbed[1][:stop, None], blocks[:stop]
        zz_detected, zz_errors = _class_counts(cfg, ch, z, block, cfg.p_z_alice, p_z_bob, ch.e0)
        # the quadrature classes as one (n, classes, 3) block
        detected, errors = _class_counts(cfg, ch, x, block[:, None], p_half, bob_prob, e_mis)
        e = decoy.class_bounds(detected, errors, setting).e
        correlators = list(security.abs_lower(1.0 - 2.0 * e.upper, 1.0 - 2.0 * e.lower).T)

        n_zz = zz_detected[:, 0] + zz_detected[:, 1] + zz_detected[:, 2]  # as sum() adds
        e_zz, _ = decoy.divide(zz_errors[:, 0] + zz_errors[:, 1] + zz_errors[:, 2], n_zz, 0.0)
        c_lower, i_e, clamped = leak(correlators, e_zz, literal)
        s0, s1 = decoy.yield_bounds(zz_detected, setting)
        kl = key_length(s0.lower, s1.lower, i_e, n_zz, e_zz, sec, sizes[:stop], asymptotic)
        return BaselineReport(
            protocol=protocol,
            key_length=kl.length,
            key_rate=np.asarray(kl.length / sizes[:stop], dtype=float),
            c_lower=c_lower,
            i_e=i_e,
            e_zz=e_zz,
            n_zz=n_zz,
            negative_length=kl.negative,
            clamped=clamped,
        )

    report = decoy.in_point_order(evaluate, len(distances))
    if np.ndim(distance_km):
        return report
    return BaselineReport(
        protocol, *(getattr(report, f.name).item(0) for f in fields(report)[1:])
    )


def _leak_six_four(correlators, e_zz, literal):
    raw = security.c_64(*correlators)
    c_lower = np.where(raw > 1.0, 1.0, raw)
    return c_lower, security.ie_4state(c_lower), raw > 1.0


def _leak_six_state(correlators, e_zz, literal):
    # per point in Python: powers, sqrt, log2 and the clamp warnings
    raw = np.array([
        security.c_6state(*point) for point in zip(*(c.tolist() for c in correlators))
    ])
    c_lower = np.where(raw > 2.0, 2.0, raw)
    i_e = np.array([
        # at e_zz >= 0.5 dark counts dominate; nothing is secret
        security.ie_6state(c, e, literal_radicand=literal) if e < 0.5 else 1.0
        for c, e in zip(c_lower.tolist(), e_zz.tolist())
    ])
    return c_lower, i_e, raw > 2.0


def run_six_four(
    cfg: ProtocolConfig,
    ch: ChannelParams,
    sec: SecurityParams,
    distance_km,
    asymptotic: bool = False,
    literal_paper_formulas: bool = False,
    n_total=None,
) -> BaselineReport:
    """Six states at the source, Z and X measurements at the receiver.

    The X and Y preparation bases each carry two orthogonal states with
    probability ``(1 - p_z_alice) / 4`` per state; orthogonal partners share
    the same error statistics, so each basis is handled as one merged class.
    """
    p_x_bob = 1.0 - cfg.p_z_bob
    quadratures = ((p_x_bob, math.cos(ch.beta)), (p_x_bob, math.sin(ch.beta)))
    return _run(
        SIX_FOUR, _leak_six_four, cfg.p_z_bob, quadratures, cfg, ch, sec,
        distance_km, asymptotic, literal_paper_formulas, n_total,
    )


def run_six_state(
    cfg: ProtocolConfig,
    ch: ChannelParams,
    sec: SecurityParams,
    distance_km,
    asymptotic: bool = False,
    literal_paper_formulas: bool = False,
    n_total=None,
) -> BaselineReport:
    """Six states at the source and three measurement bases at the receiver.

    The receiver picks Z, X and Y with fixed probabilities 0.5, 0.25 and
    0.25; the Y path shares the X path's receiver loss.
    """
    pb_z, pb_x, pb_y = SIX_STATE_BOB
    cos_b, sin_b = math.cos(ch.beta), math.sin(ch.beta)
    # (preparation, receiver) basis: xx, xy, yx, yy
    quadratures = ((pb_x, cos_b), (pb_y, -sin_b), (pb_x, sin_b), (pb_y, cos_b))
    return _run(
        SIX_STATE, _leak_six_state, pb_z, quadratures, cfg, ch, sec,
        distance_km, asymptotic, literal_paper_formulas, n_total,
    )
