"""Finite-size decoy-state estimation with closed-form two-decoy bounds.

All estimators work on the counts of one event class (for example "Z states
detected in the Z basis") split by source intensity. Statistical
fluctuations of each observed count are absorbed first, into one interval
per count, then the closed-form vacuum / single-photon expressions are
evaluated with the worst-case ends of those intervals.

Counts and bounds are arrays with one entry per point of a block; a number
is a block of one. Only the configuration constants need a transcendental,
once per call; per point the chain is arithmetic and ``sqrt``, which IEEE 754
rounds correctly in numpy and ``math`` alike, so each entry equals the
per-point result bit for bit (``exact_counts`` keeps the integer arithmetic
exact). A bound that fails at some points raises for the first of them, with
the point's index as the error's ``point``.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from math import exp, factorial, log
from typing import Callable

import numpy as np

from .core import IntensityClass


class DecoyPreconditionError(ValueError):
    """The intensity settings do not admit the closed-form bounds."""


class NonPhysicalEstimateError(ValueError):
    """An estimated interval came out with lower > upper after clamping."""


@dataclass(frozen=True)
class BoundedCount:
    """An estimated quantity with lower/upper bounds around a point value."""

    lower: float
    point: float
    upper: float
    clamped: bool = False
    degenerate: bool = False

    @property
    def width(self) -> float:
        return self.upper - self.lower


def raise_at(bad, error: type[ValueError], message: Callable[[int], str]) -> None:
    """Raise ``error(message(i))``, with ``point = i``, for the first point
    ``i`` where ``bad`` holds."""
    bad = np.asarray(bad)
    if bad.any():
        i = int(bad.argmax())
        exc = error(message(i))
        exc.point = i
        raise exc


def in_point_order(evaluate: Callable[[int], object], n: int):
    """``evaluate(n)``, a block evaluation of points [0, n), raising what
    evaluating the points one by one would raise first: an earlier point
    than the error's may fail at a later step, so those points go first."""
    try:
        return evaluate(n)
    except ValueError as exc:
        if getattr(exc, "point", 0) > 0:
            in_point_order(evaluate, exc.point)
        raise exc


def exact_counts(counts):
    """An array of counts as the chain takes it: integer counts whose totals
    over the last axis reach 10^12 as Python ints, whose arithmetic is the
    per-point one; below that int64 arithmetic gives the same numbers, and
    cli's 12 digits print an integral float as they print the int."""
    counts = np.asarray(counts)
    if counts.dtype.kind in "iu" and np.max(counts.sum(axis=-1, dtype=float), initial=0.0) >= 1e12:
        return counts.astype(object)
    return counts


def divide(num, den, fallback):
    """``num / den`` where ``den > 0``, else ``fallback``; and where ``den > 0``."""
    positive = np.asarray(den > 0.0)
    return np.where(positive, num / np.where(positive, den, 1.0), fallback), positive


def tau(n: int, intensities: tuple[IntensityClass, ...]) -> float:
    """Probability that a pulse (any intensity setting) carries n photons."""
    if n < 0:
        raise ValueError(f"photon number must be >= 0, got {n}")
    acc = 0.0
    for k in intensities:
        acc += exp(-k.mean_photons) * k.mean_photons**n * k.probability
    return acc / factorial(n)


def fluctuation_deltas(x, eps: float | None):
    """Downward and upward deviations of an observed count from its mean.

    ``eps`` is the probability that the mean escapes on either side.
    ``None`` disables fluctuations entirely (both deltas zero).
    """
    if eps is None:
        return 0.0, 0.0
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0,1), got {eps}")
    x = np.asarray(x)
    raise_at(x < 0, ValueError, lambda i: f"observed count must be >= 0, got {x.item(i)}")
    b = log(1.0 / eps)
    two_b = 2.0 * b  # as 2.0 * b * x groups; object counts give Python floats below
    delta_lower = b / 2.0 + np.sqrt(np.asarray(two_b * x + b * b / 4.0, dtype=float))
    delta_upper = b + np.sqrt(np.asarray(two_b * x + b * b, dtype=float))
    return delta_lower, delta_upper


def fluctuation_interval(x, eps: float | None, literal_upper: bool = False) -> BoundedCount:
    """Interval that contains the mean of an observed count.

    ``literal_upper`` subtracts the upward deviation instead of adding it,
    which produces an upper end below the observation. That variant exists
    only for side-by-side comparison; it is vacuous as a bound.
    """
    delta_lower, delta_upper = fluctuation_deltas(x, eps)
    lower = x - delta_lower
    clamped = lower < 0.0
    upper = x - delta_upper if literal_upper else x + delta_upper
    return BoundedCount(np.where(clamped, 0.0, lower), x, upper, clamped=clamped)


def _clamp(value, lo, hi):
    low, high = value < lo, value > hi
    return np.where(low, lo, np.where(high, hi, value)), low | high


def _worst_case(
    name: str,
    estimate: Callable[..., float],
    rising: tuple[BoundedCount, ...],
    falling: tuple[BoundedCount, ...],
    cap,
) -> BoundedCount:
    """Evaluate a closed form at the worst-case ends of its inputs.

    ``estimate`` takes the ``rising`` inputs (those it increases with) and
    then the ``falling`` ones. Its lower bound takes the rising inputs at
    their lower ends and the falling ones at their upper ends, and the
    upper bound the reverse. Both ends are clamped to [0, cap].
    """
    raw_lower = estimate(*(iv.lower for iv in rising), *(iv.upper for iv in falling))
    raw_upper = estimate(*(iv.upper for iv in rising), *(iv.lower for iv in falling))
    lower, cl = _clamp(raw_lower, 0.0, cap)
    upper, cu = _clamp(raw_upper, 0.0, cap)

    def held(end, raw, i):
        # a per-point evaluation returns the cap itself, an int for integer counts
        return np.asarray(cap).item(i) if np.asarray(raw > cap).item(i) else end.item(i)

    raise_at(lower > upper, NonPhysicalEstimateError, lambda i: (
        f"{name}: estimated lower bound {held(lower, raw_lower, i)!r} "
        f"exceeds upper bound {held(upper, raw_upper, i)!r}"
    ))
    point = estimate(*(iv.point for iv in rising + falling))
    return BoundedCount(lower, point, upper, clamped=cl | cu)


def vacuum_bound(
    detected: tuple[BoundedCount, BoundedCount, BoundedCount],
    intensities: tuple[IntensityClass, IntensityClass, IntensityClass],
) -> BoundedCount:
    """Bounds on the number of detections caused by vacuum pulses.

    ``detected`` holds the intervals of one event class's detections at (signal,
    decoy, vacuum) intensity. The result is clamped to [0, total detections].
    """
    mu_s, nu_s, om_s = intensities
    nu, om = nu_s.mean_photons, om_s.mean_photons
    if not nu > om:
        raise DecoyPreconditionError(f"need nu > omega, got nu={nu} omega={om}")
    iv_mu, iv_nu, iv_om = detected
    coef = tau(0, intensities) / (nu - om)
    nu_e_om, om_e_nu = nu * exp(om), om * exp(nu)

    def estimate(n_om_star, n_nu_star):
        return coef * (
            nu_e_om * n_om_star / om_s.probability - om_e_nu * n_nu_star / nu_s.probability
        )

    total = iv_mu.point + iv_nu.point + iv_om.point
    return _worst_case("vacuum count", estimate, (iv_om,), (iv_nu,), total)


def single_photon_bound(
    detected: tuple[BoundedCount, BoundedCount, BoundedCount],
    s0: BoundedCount,
    intensities: tuple[IntensityClass, IntensityClass, IntensityClass],
) -> BoundedCount:
    """Bounds on the number of detections caused by single-photon pulses."""
    mu_s, nu_s, om_s = intensities
    mu, nu, om = mu_s.mean_photons, nu_s.mean_photons, om_s.mean_photons
    denom = mu * (nu - om) - (nu * nu - om * om)
    if denom <= 0.0:
        raise DecoyPreconditionError(
            f"need mu*(nu-omega) > nu^2-omega^2, got mu={mu} nu={nu} omega={om}"
        )
    iv_mu, iv_nu, iv_om = detected
    t0 = tau(0, intensities)
    coef = mu * tau(1, intensities) / denom
    ratio = (nu * nu - om * om) / (mu * mu)
    e_mu, e_nu, e_om = exp(mu), exp(nu), exp(om)

    def estimate(n_nu_star, s0_star, n_om_star, n_mu_star):
        return coef * (
            e_nu * n_nu_star / nu_s.probability
            - e_om * n_om_star / om_s.probability
            + ratio * (s0_star / t0 - e_mu * n_mu_star / mu_s.probability)
        )

    total = iv_mu.point + iv_nu.point + iv_om.point
    return _worst_case(
        "single-photon count", estimate, (iv_nu, s0), (iv_om, iv_mu), total
    )


def error_count_bound(
    errors: tuple[BoundedCount, BoundedCount],
    intensities: tuple[IntensityClass, IntensityClass, IntensityClass],
    cap,
) -> BoundedCount:
    """Bounds on the number of single-photon errors of one event class.

    ``errors`` holds the intervals of its errors at decoy and vacuum intensity;
    ``cap``, its total observed errors, is the physical ceiling.
    """
    mu_s, nu_s, om_s = intensities
    nu, om = nu_s.mean_photons, om_s.mean_photons
    if not nu > om:
        raise DecoyPreconditionError(f"need nu > omega, got nu={nu} omega={om}")
    iv_nu, iv_om = errors
    coef = tau(1, intensities) / (nu - om)
    e_nu, e_om = exp(nu), exp(om)

    def estimate(m_nu_star, m_om_star):
        return coef * (
            e_nu * m_nu_star / nu_s.probability - e_om * m_om_star / om_s.probability
        )

    return _worst_case("single-photon error count", estimate, (iv_nu,), (iv_om,), cap)


def single_photon_error_rate(t: BoundedCount, s1: BoundedCount) -> BoundedCount:
    """Error rate of single-photon detections from count bounds.

    A vanishing single-photon lower bound forces the rate's upper end to 1
    and marks the result degenerate.
    """
    lower, upper_positive = divide(t.lower, s1.upper, 0.0)
    upper, lower_positive = divide(t.upper, s1.lower, 1.0)
    point, _ = _clamp(divide(t.point, s1.point, 0.5)[0], 0.0, 1.0)
    lower, cl = _clamp(lower, 0.0, 1.0)
    upper, cu = _clamp(upper, 0.0, 1.0)
    degenerate = ~(upper_positive & lower_positive)
    return BoundedCount(lower, point, upper, clamped=cl | cu, degenerate=degenerate)


@dataclass(frozen=True)
class ClassBounds:
    """Decoy chain of one event class, from vacuum count to error rate."""

    s0: BoundedCount
    s1: BoundedCount
    t: BoundedCount
    e: BoundedCount


def _first(bound: BoundedCount) -> BoundedCount:
    """The only point of a block of one."""
    return BoundedCount(*(np.ravel(getattr(bound, f.name))[0] for f in fields(bound)))


def yield_bounds(
    detected,
    intensities: tuple[IntensityClass, IntensityClass, IntensityClass],
    eps: float | None,
    literal_upper: bool = False,
) -> tuple[BoundedCount, BoundedCount]:
    """Vacuum and single-photon detection bounds of one event class from its
    detections at (signal, decoy, vacuum) intensity: an (n, 3) array of n
    points, or a triple, as a block of one."""
    detected = exact_counts(detected)
    if detected.ndim == 1:
        return tuple(map(_first, yield_bounds(detected[None], intensities, eps, literal_upper)))
    intervals = tuple(
        fluctuation_interval(detected[..., k], eps, literal_upper) for k in range(3)
    )
    s0 = vacuum_bound(intervals, intensities)
    return s0, single_photon_bound(intervals, s0, intensities)


def class_bounds(
    detected,
    errors,
    intensities: tuple[IntensityClass, IntensityClass, IntensityClass],
    eps: float | None,
    literal_upper: bool = False,
) -> ClassBounds:
    """The full chain: vacuum, single-photon, error count, then error rate.
    ``errors`` is laid out as ``detected``. The error count at signal intensity
    enters only the cap: it gets no interval."""
    detected, errors = exact_counts(np.stack((detected, errors)))  # errors <= detected: one rule
    if detected.ndim == 1:
        block = class_bounds(detected[None], errors[None], intensities, eps, literal_upper)
        return ClassBounds(*map(_first, (block.s0, block.s1, block.t, block.e)))
    s0, s1 = yield_bounds(detected, intensities, eps, literal_upper)
    intervals = tuple(fluctuation_interval(errors[..., k], eps, literal_upper) for k in (1, 2))
    cap = errors[..., 0] + errors[..., 1] + errors[..., 2]
    t = error_count_bound(intervals, intensities, cap)
    return ClassBounds(s0, s1, t, single_photon_error_rate(t, s1))
