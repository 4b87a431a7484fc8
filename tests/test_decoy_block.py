"""The decoy chain against a per-point reference kept here.

``reference_class_bounds`` is the scalar chain as it stood before the chain
ran on arrays: Python numbers, one point at a time, an integer cap returned
as the integer itself, and a bound whose ends are not finite or cross
returned as [0, cap] with its ``nonphysical`` flag. Every bound and flag of
``decoy.class_bounds`` must equal it exactly, also at zero counts, at counts
near the 2^62 budget, without fluctuations and with the vacuous literal
upper end.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import exp, factorial, hypot, isfinite, log, log2, sqrt

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rfiqkd import decoy, intensity_triple
from rfiqkd.core import CELL_INDEX, KINDS, BasisLabel, StateLabel
from rfiqkd.decoy import DecoyPreconditionError


@dataclass(frozen=True)
class Ref:
    lower: float
    point: float
    upper: float
    clamped: bool = False
    degenerate: bool = False
    nonphysical: bool = False


def ref_tau(n, intensities):
    acc = 0.0
    for k in intensities:
        acc += exp(-k.mean_photons) * k.mean_photons**n * k.probability
    return acc / factorial(n)


def ref_interval(x, eps, literal_upper):
    if eps is None:
        delta_lower = delta_upper = 0.0
    else:
        b = log(1.0 / eps)
        delta_lower = b / 2.0 + sqrt(2.0 * b * x + b * b / 4.0)
        delta_upper = b + sqrt(2.0 * b * x + b * b)
    lower = x - delta_lower
    clamped = False
    if lower < 0.0:
        lower = 0.0
        clamped = True
    upper = x - delta_upper if literal_upper else x + delta_upper
    return Ref(lower, x, upper, clamped=clamped)


def ref_clamp(value, lo, hi):
    if value < lo:
        return lo, True
    if value > hi:
        return hi, True
    return value, False


def ref_worst_case(estimate, rising, falling, cap):
    raw_lower = estimate(*(iv.lower for iv in rising), *(iv.upper for iv in falling))
    raw_upper = estimate(*(iv.upper for iv in rising), *(iv.lower for iv in falling))
    lower, cl = ref_clamp(raw_lower, 0.0, cap)
    upper, cu = ref_clamp(raw_upper, 0.0, cap)
    point = estimate(*(iv.point for iv in rising + falling))
    if not (isfinite(raw_lower) and isfinite(raw_upper)) or lower > upper:
        return Ref(0.0, point, cap, clamped=cl or cu, nonphysical=True)
    return Ref(lower, point, upper, clamped=cl or cu)


def ref_vacuum(detected, intensities):
    mu_s, nu_s, om_s = intensities
    nu, om = nu_s.mean_photons, om_s.mean_photons
    if not nu > om:
        raise DecoyPreconditionError(f"need nu > omega, got nu={nu} omega={om}")
    iv_mu, iv_nu, iv_om = detected
    coef = ref_tau(0, intensities) / (nu - om)

    def estimate(n_om_star, n_nu_star):
        return coef * (
            nu * exp(om) * n_om_star / om_s.probability
            - om * exp(nu) * n_nu_star / nu_s.probability
        )

    total = iv_mu.point + iv_nu.point + iv_om.point
    return ref_worst_case(estimate, (iv_om,), (iv_nu,), total)


def ref_single_photon(detected, s0, intensities):
    mu_s, nu_s, om_s = intensities
    mu, nu, om = mu_s.mean_photons, nu_s.mean_photons, om_s.mean_photons
    denom = mu * (nu - om) - (nu * nu - om * om)
    if denom <= 0.0:
        raise DecoyPreconditionError(
            f"need mu*(nu-omega) > nu^2-omega^2, got mu={mu} nu={nu} omega={om}"
        )
    iv_mu, iv_nu, iv_om = detected
    t0 = ref_tau(0, intensities)
    coef = mu * ref_tau(1, intensities) / denom
    ratio = (nu * nu - om * om) / (mu * mu)

    def estimate(n_nu_star, s0_star, n_om_star, n_mu_star):
        return coef * (
            exp(nu) * n_nu_star / nu_s.probability
            - exp(om) * n_om_star / om_s.probability
            + ratio * (s0_star / t0 - exp(mu) * n_mu_star / mu_s.probability)
        )

    total = iv_mu.point + iv_nu.point + iv_om.point
    return ref_worst_case(estimate, (iv_nu, s0), (iv_om, iv_mu), total)


def ref_error_count(errors, intensities, cap):
    mu_s, nu_s, om_s = intensities
    nu, om = nu_s.mean_photons, om_s.mean_photons
    if not nu > om:
        raise DecoyPreconditionError(f"need nu > omega, got nu={nu} omega={om}")
    iv_nu, iv_om = errors
    coef = ref_tau(1, intensities) / (nu - om)

    def estimate(m_nu_star, m_om_star):
        return coef * (
            exp(nu) * m_nu_star / nu_s.probability
            - exp(om) * m_om_star / om_s.probability
        )

    return ref_worst_case(estimate, (iv_nu,), (iv_om,), cap)


def ref_error_rate(t, s1):
    degenerate = False
    if s1.upper > 0.0:
        lower = t.lower / s1.upper
    else:
        lower = 0.0
        degenerate = True
    if s1.lower > 0.0:
        upper = t.upper / s1.lower
    else:
        upper = 1.0
        degenerate = True
    point = t.point / s1.point if s1.point > 0.0 else 0.5
    lower, cl = ref_clamp(lower, 0.0, 1.0)
    upper, cu = ref_clamp(upper, 0.0, 1.0)
    point, _ = ref_clamp(point, 0.0, 1.0)
    return Ref(lower, point, upper, clamped=cl or cu, degenerate=degenerate)


def reference_class_bounds(detected, errors, intensities, eps, literal_upper):
    """(s0, s1, t, e) of one point, from Python-int counts."""
    intervals = tuple(ref_interval(n, eps, literal_upper) for n in detected)
    s0 = ref_vacuum(intervals, intensities)
    s1 = ref_single_photon(intervals, s0, intensities)
    error_intervals = tuple(ref_interval(m, eps, literal_upper) for m in errors[1:])
    t = ref_error_count(error_intervals, intensities, sum(errors))
    return s0, s1, t, ref_error_rate(t, s1)


def ref_entropy(p):
    return 0.0 if p in (0.0, 1.0) else -p * log2(p) - (1.0 - p) * log2(1.0 - p)


def ref_abs_lower(lower, upper):
    if lower > upper:
        raise ValueError(f"need lower <= upper, got {lower} > {upper}")
    return lower if lower > 0.0 else -upper if upper < 0.0 else 0.0


def reference_analysis(table, cfg, sec, literal=False):
    """(n_zz, e_zz, key_length) of one (24, 3) table in Python ints, as the
    per-point ``analyze_tallies`` computed them."""
    rows = table.tolist()

    def counts(states, basis, field):
        return [sum(rows[CELL_INDEX[(s, basis, k)]][field] for s in states) for k in KINDS]

    eps = sec.eps_bar
    zz = (StateLabel.Z0, StateLabel.Z1)
    zz_det, zz_err = counts(zz, BasisLabel.Z, 1), counts(zz, BasisLabel.Z, 2)
    intervals = tuple(ref_interval(n, eps, literal) for n in zz_det)
    s0 = ref_vacuum(intervals, cfg.intensities)
    s1 = ref_single_photon(intervals, s0, cfg.intensities)
    e = [
        reference_class_bounds(
            counts((state,), BasisLabel.X, 1), counts((state,), BasisLabel.X, 2),
            cfg.intensities, eps, literal,
        )[3]
        for state in (StateLabel.Z0, StateLabel.Z1, StateLabel.X0, StateLabel.Y0)
    ]
    c1_upper = e[0].upper + e[1].upper - 2.0 * e[2].lower
    c2_upper = e[0].upper + e[1].upper - 2.0 * e[3].lower
    c1_lower = e[0].lower + e[1].lower - 2.0 * (e[3] if literal else e[2]).upper
    c2_lower = e[0].lower + e[1].lower - 2.0 * e[3].upper
    c44 = min(hypot(ref_abs_lower(c1_lower, c1_upper), ref_abs_lower(c2_lower, c2_upper)), 1.0)
    i_e = ref_entropy((1.0 - c44) / 2.0)
    n_zz, m_zz = sum(zz_det), sum(zz_err)
    e_zz = m_zz / n_zz if n_zz > 0 else 0.0
    raw = (
        s0.lower + s1.lower * (1.0 - i_e) - n_zz * sec.f_ec * ref_entropy(e_zz)
        - log2(2.0 / sec.eps_ec)
        - 2.0 * log2(2.0 / sec.eps_pa)
        - 7.0 * sqrt(n_zz * log2(2.0 / sec.eps_bar))
        - 30.0 * log2(cfg.n_total + 1.0)
    )
    return n_zz, e_zz, max(raw, 0.0)


# -- inputs ------------------------------------------------------------------

BUDGET = 2**62


def count():
    """Zero, small, mid-size and near-budget counts."""
    return st.one_of(
        st.just(0),
        st.integers(0, 50),
        st.integers(0, 10**9),
        st.integers(0, 10**13),
        st.integers(BUDGET - 10**6, BUDGET),
    )


@st.composite
def point_counts(draw):
    """Detections and errors (errors <= detections) at (mu, nu, omega)."""
    detected = [draw(count()) for _ in range(3)]
    errors = [
        draw(st.one_of(st.just(0), st.just(n), st.integers(0, n), st.integers(max(n - 50, 0), n)))
        for n in detected
    ]
    return detected, errors


@st.composite
def chain_inputs(draw):
    om = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.2)))
    nu = om + draw(st.floats(0.01, 0.5))
    mu = nu + om + draw(st.floats(0.01, 0.8))
    weights = [draw(st.floats(0.05, 1.0)) for _ in range(3)]
    p_mu, p_nu, p_om = (w / sum(weights) for w in weights)
    table = intensity_triple(mu, nu, om, p_mu, p_nu, p_om)
    points = draw(st.lists(point_counts(), min_size=1, max_size=6))
    eps = draw(st.sampled_from([None, 1e-10, 1e-3, 0.3]))
    literal_upper = draw(st.booleans())
    return table, points, eps, literal_upper


def assert_point_matches(got, ref):
    for end in ("lower", "point", "upper"):
        # exact: an integer cap equals a float only where the float holds it
        assert getattr(got, end) == getattr(ref, end), (end, getattr(got, end), getattr(ref, end))
    for flag in ("clamped", "degenerate", "nonphysical"):
        assert bool(getattr(got, flag)) == getattr(ref, flag), flag


def at(value, i):
    """Point ``i`` of a bound's field; a default flag is one value for all points."""
    return np.asarray(value)[i] if np.ndim(value) else value


def point_of(bound, i):
    """Point ``i`` of a block's bound."""
    return decoy.BoundedCount(*(at(getattr(bound, end), i) for end in (
        "lower", "point", "upper", "clamped", "degenerate", "nonphysical")))


@settings(max_examples=300, deadline=None)
@given(chain_inputs())
def test_chain_matches_the_per_point_reference(inputs):
    table, points, eps, literal_upper = inputs
    refs = [reference_class_bounds(d, e, table, eps, literal_upper) for d, e in points]
    setting = decoy.setting(table, eps, literal_upper)
    # int64 arrays of shape (n, 3): each point as a block of one, then every point as one block
    detected = np.array([d for d, _ in points], dtype=np.int64)
    errors = np.array([e for _, e in points], dtype=np.int64)
    block = decoy.class_bounds(detected, errors, setting)
    for i, ref in enumerate(refs):
        one = decoy.class_bounds(detected[i : i + 1], errors[i : i + 1], setting)
        for bound, whole, ref_bound in zip((one.s0, one.s1, one.t, one.e),
                                           (block.s0, block.s1, block.t, block.e), ref):
            assert_point_matches(point_of(bound, 0), ref_bound)
            assert_point_matches(point_of(whole, i), ref_bound)
