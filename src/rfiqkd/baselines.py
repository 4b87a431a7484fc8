"""Reference pipelines for the six-four and six-state protocol variants.

These exist only for side-by-side rate comparisons. Each is a leak bound on
``keyrate.analyze_classes``, the estimator of the main pipeline: the same
decoy chain, ``n_zz`` and key-length formula, fed with event-class statistics
(for example "X states measured in X") from the same channel model and
counting rule, ``channel.expected_counts``, so no extra state labels are
needed anywhere else in the package. A run returns a
``KeyRateReport`` whose ``c44_lower`` holds the protocol's own statistic C.
``distance_km`` is one distance, or an array of them evaluated as one block;
``n_total=`` gives each point its own block size, as in ``analyze_batch``, and
``absorbed=`` its row of ``channel.absorption``, as in ``expected_tallies``.
"""
from __future__ import annotations

import math

import numpy as np

from . import security
from .channel import absorption, expected_counts, quadrature_error
from .core import ChannelParams, KeyRateReport, ProtocolConfig, SecurityParams
from .decoy import BoundedCount, ClassBounds
from .keyrate import analyze_classes, report_at
# Unused here, but tracers that wrap every binding of key_length by module
# (perfbench/spans.py) look it up in this module too.
from .keyrate import key_length  # noqa: F401

# compare's names of the four-state protocol and of the two baselines
PROTOCOLS = ("rfi44", "rfi64", "rfi66")


def _protocol(leak, p_z_bob, quadratures, cfg, ch, distances, n_total, absorbed):
    """A baseline as ``analyze_classes`` takes a protocol: Z-prepared states
    measured in Z give the key; each ``(receiver probability, projection)``
    pair in ``quadratures`` is one X- or Y-prepared class whose bounds feed
    ``leak``. Each distance's entries are its own."""
    table = absorption(ch, cfg.intensities, distances) if absorbed is None else absorbed
    absorbed = np.split(table, 2, axis=1)  # paths Z, X
    blocks = np.array(n_total, dtype=object).astype(float).reshape(-1, 1)
    p_k, p_half = [k.probability for k in cfg.intensities], (1.0 - cfg.p_z_alice) / 2.0
    bob_prob, projection = np.array(quadratures).T[..., None]  # (classes, 1) each
    # pulses as block * p_alice * p_intensity * p_bob; the quadrature classes as one (n, classes, 3) block
    key = expected_counts(blocks * cfg.p_z_alice * p_k * p_z_bob, absorbed[0], ch.e0, ch.e_d)
    tests = expected_counts(blocks[:, None] * p_half * p_k * bob_prob, absorbed[1][:, None],
                            quadrature_error(ch.e0, projection), ch.e_d)
    return key, tests, leak


def six_four(cfg: ProtocolConfig, ch: ChannelParams, distances, n_total, absorbed=None):
    """rfi64's protocol at ``distances`` with block sizes ``n_total``, as ``run_six_four`` runs it."""
    p_x_bob = 1.0 - cfg.p_z_bob
    quadratures = ((p_x_bob, math.cos(ch.beta)), (p_x_bob, math.sin(ch.beta)))
    return _protocol(_leak_six_four, cfg.p_z_bob, quadratures, cfg, ch, distances, n_total, absorbed)


def six_state(cfg: ProtocolConfig, ch: ChannelParams, distances, n_total, absorbed=None):
    """rfi66's protocol at ``distances`` with block sizes ``n_total``, as ``run_six_state`` runs it."""
    pb_z, pb_x, pb_y = 0.5, 0.25, 0.25
    cos_b, sin_b = math.cos(ch.beta), math.sin(ch.beta)
    # (preparation, receiver) basis: xx, xy, yx, yy
    quadratures = ((pb_x, cos_b), (pb_y, -sin_b), (pb_x, sin_b), (pb_y, cos_b))
    return _protocol(_leak_six_state, pb_z, quadratures, cfg, ch, distances, n_total, absorbed)


def _run(protocol, cfg, ch, sec, distance_km, n_total, absorbed, *options) -> KeyRateReport:
    """One baseline's report; a distance array runs as one block."""
    distances = np.atleast_1d(distance_km).tolist()
    sizes = [cfg.n_total] * len(distances) if n_total is None else n_total
    (report,) = analyze_classes([protocol(cfg, ch, distances, sizes, absorbed)], cfg, sec, sizes, *options)
    return report if np.ndim(distance_km) else report_at(report, 0)


def _correlators(bounds: ClassBounds, inter: dict) -> list[np.ndarray]:
    """The smallest magnitude of each class's correlator 1 - 2e, one array per
    class. Records as ``c_nonphysical`` the points where a class's decoy chain
    gave a non-physical bound."""
    flags = np.array([bounds.s0.nonphysical, bounds.s1.nonphysical, bounds.t.nonphysical])
    inter["c_nonphysical"] = flags.reshape(3, len(flags[0]), -1).any(axis=(0, 2))
    e = bounds.e
    return list(security.abs_lower(1.0 - 2.0 * e.upper, 1.0 - 2.0 * e.lower).T)


def _leak_six_four(bounds, e_zz, inter, literal):
    raw = security.c_64(*_correlators(bounds, inter))
    c_lower = np.where(raw > 1.0, 1.0, raw)
    inter["c_clamped"] = raw > 1.0
    return c_lower, security.ie_4state(c_lower)


def _leak_six_state(bounds, e_zz, inter, literal):
    raw = security.c_6state(*_correlators(bounds, inter))
    c_lower = np.where(raw > 2.0, 2.0, raw)
    inter["c_clamped"] = raw > 2.0
    secret = e_zz < 0.5  # at e_zz >= 0.5 dark counts dominate; nothing is secret
    i_e, radicand, mixing = security.ie_6state(c_lower, np.where(secret, e_zz, 0.0), literal)
    inter["ie_radicand_clamped"], inter["ie_mixing_clamped"] = radicand & secret, mixing & secret
    return c_lower, np.where(secret, i_e, 1.0)


def run_six_four(
    cfg: ProtocolConfig,
    ch: ChannelParams,
    sec: SecurityParams,
    distance_km,
    asymptotic: bool = False,
    literal_paper_formulas: bool = False,
    n_total=None,
    n_zz_all_intensities: bool = True,
    absorbed: np.ndarray | None = None,
) -> KeyRateReport:
    """Six states at the source, Z and X measurements at the receiver.

    The X and Y preparation bases each carry two orthogonal states with
    probability ``(1 - p_z_alice) / 4`` per state; orthogonal partners share
    the same error statistics, so each basis is handled as one merged class.
    """
    return _run(six_four, cfg, ch, sec, distance_km, n_total, absorbed,
                asymptotic, n_zz_all_intensities, literal_paper_formulas)


def run_six_state(
    cfg: ProtocolConfig,
    ch: ChannelParams,
    sec: SecurityParams,
    distance_km,
    asymptotic: bool = False,
    literal_paper_formulas: bool = False,
    n_total=None,
    n_zz_all_intensities: bool = True,
    absorbed: np.ndarray | None = None,
) -> KeyRateReport:
    """Six states at the source and three measurement bases at the receiver.

    The receiver picks Z, X and Y with fixed probabilities 0.5, 0.25 and
    0.25; the Y path shares the X path's receiver loss.
    """
    return _run(six_state, cfg, ch, sec, distance_km, n_total, absorbed,
                asymptotic, n_zz_all_intensities, literal_paper_formulas)
