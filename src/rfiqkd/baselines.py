"""Reference pipelines for the six-four and six-state protocol variants.

These exist only for side-by-side rate comparisons. They run on the same
channel model, decoy chain and key-length formula as the main pipeline but
work directly on event-class statistics (for example "X states measured in
X"), so no extra state labels are needed anywhere else in the package.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from . import decoy, security
from .channel import pulse_probabilities, quadrature_error, transmittance
from .core import BasisLabel, ChannelParams, ProtocolConfig, SecurityParams
from .keyrate import key_length

FOUR_STATE = "rfi44"
SIX_FOUR = "rfi64"
SIX_STATE = "rfi66"

# Receiver basis probabilities of the six-state variant (Z, X, Y).
SIX_STATE_BOB = (0.5, 0.25, 0.25)


@dataclass(frozen=True)
class BaselineReport:
    """Rate summary of one comparison pipeline at one distance."""

    protocol: str
    key_length: float
    key_rate: float
    c_lower: float
    i_e: float
    e_zz: float
    n_zz: float
    negative_length: bool
    clamped: bool


Counts = tuple[float, float, float]

# (c_lower, i_e, clamped) from the correlator magnitudes and e_zz.
LeakBound = Callable[[list[float], float, bool], tuple[float, float, bool]]


def _class_counts(
    cfg: ProtocolConfig,
    ch: ChannelParams,
    eta: float,
    alice_prob: float,
    bob_prob: float,
    e_mis: float,
) -> tuple[Counts, Counts]:
    """Expected (detections, errors) of one merged class per intensity."""
    detected = []
    errors = []
    for k in cfg.intensities:
        gain, error = pulse_probabilities(math.exp(-eta * k.mean_photons), e_mis, ch.e_d)
        n = round(cfg.n_total * alice_prob * k.probability * bob_prob * gain)
        m = min(round(cfg.n_total * alice_prob * k.probability * bob_prob * error), n)
        detected.append(float(n))
        errors.append(float(m))
    return tuple(detected), tuple(errors)


def _run(
    protocol: str,
    leak: LeakBound,
    p_z_bob: float,
    quadratures: tuple[tuple[float, float], ...],
    cfg: ProtocolConfig,
    ch: ChannelParams,
    sec: SecurityParams,
    distance_km: float,
    asymptotic: bool,
    literal: bool,
) -> BaselineReport:
    """Shared pipeline: Z-prepared states measured in Z give the key; each
    ``(receiver probability, projection)`` pair in ``quadratures`` is one
    X- or Y-prepared class whose correlator feeds ``leak``."""
    eps = None if asymptotic else sec.eps_bar
    eta_z = transmittance(distance_km, BasisLabel.Z, ch)
    eta_x = transmittance(distance_km, BasisLabel.X, ch)
    p_half = (1.0 - cfg.p_z_alice) / 2.0

    zz_detected, zz_errors = _class_counts(cfg, ch, eta_z, cfg.p_z_alice, p_z_bob, ch.e0)
    classes = [
        _class_counts(cfg, ch, eta_x, p_half, bob_prob, quadrature_error(ch.e0, projection))
        for bob_prob, projection in quadratures
    ]
    correlators = []
    for detected, errors in classes:
        e = decoy.class_bounds(detected, errors, cfg.intensities, eps, literal).e
        correlators.append(security.abs_lower(1.0 - 2.0 * e.upper, 1.0 - 2.0 * e.lower))

    n_zz = sum(zz_detected)
    e_zz = sum(zz_errors) / n_zz if n_zz > 0 else 0.0
    c_lower, i_e, clamped = leak(correlators, e_zz, literal)
    s0, s1 = decoy.yield_bounds(zz_detected, cfg.intensities, eps, literal)
    kl = key_length(
        s0.lower, s1.lower, i_e, n_zz, e_zz, sec, cfg.n_total, asymptotic
    )
    return BaselineReport(
        protocol=protocol,
        key_length=kl.length,
        key_rate=kl.length / cfg.n_total,
        c_lower=c_lower,
        i_e=i_e,
        e_zz=e_zz,
        n_zz=n_zz,
        negative_length=kl.negative,
        clamped=clamped,
    )


def _leak_six_four(correlators, e_zz, literal):
    raw = security.c_64(*correlators)
    c_lower = min(raw, 1.0)
    return c_lower, security.ie_4state(c_lower), raw > 1.0


def _leak_six_state(correlators, e_zz, literal):
    raw = security.c_6state(*correlators)
    c_lower = min(raw, 2.0)
    if e_zz < 0.5:
        i_e = security.ie_6state(c_lower, e_zz, literal_radicand=literal)
    else:
        i_e = 1.0  # dark-count dominated; nothing is secret
    return c_lower, i_e, raw > 2.0


def run_six_four(
    cfg: ProtocolConfig,
    ch: ChannelParams,
    sec: SecurityParams,
    distance_km: float,
    asymptotic: bool = False,
    literal_paper_formulas: bool = False,
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
        distance_km, asymptotic, literal_paper_formulas,
    )


def run_six_state(
    cfg: ProtocolConfig,
    ch: ChannelParams,
    sec: SecurityParams,
    distance_km: float,
    asymptotic: bool = False,
    literal_paper_formulas: bool = False,
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
        distance_km, asymptotic, literal_paper_formulas,
    )
