"""Finite-size decoy-state estimation with closed-form two-decoy bounds.

All estimators work on the counts of one event class (for example "Z states
detected in the Z basis") split by source intensity. Statistical
fluctuations of each observed count are absorbed first, into one interval
per count, then the closed-form vacuum / single-photon expressions are
evaluated with the worst-case ends of those intervals.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import exp, factorial, log, sqrt
from typing import Callable

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


def tau(n: int, intensities: tuple[IntensityClass, ...]) -> float:
    """Probability that a pulse (any intensity setting) carries n photons."""
    if n < 0:
        raise ValueError(f"photon number must be >= 0, got {n}")
    acc = 0.0
    for k in intensities:
        acc += exp(-k.mean_photons) * k.mean_photons**n * k.probability
    return acc / factorial(n)


def fluctuation_deltas(x: float, eps: float | None) -> tuple[float, float]:
    """Downward and upward deviations of an observed count from its mean.

    ``eps`` is the probability that the mean escapes on either side.
    ``None`` disables fluctuations entirely (both deltas zero).
    """
    if eps is None:
        return 0.0, 0.0
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0,1), got {eps}")
    if x < 0:
        raise ValueError(f"observed count must be >= 0, got {x}")
    b = log(1.0 / eps)
    delta_lower = b / 2.0 + sqrt(2.0 * b * x + b * b / 4.0)
    delta_upper = b + sqrt(2.0 * b * x + b * b)
    return delta_lower, delta_upper


def fluctuation_interval(
    x: float, eps: float | None, literal_upper: bool = False
) -> BoundedCount:
    """Interval that contains the mean of an observed count.

    ``literal_upper`` subtracts the upward deviation instead of adding it,
    which produces an upper end below the observation. That variant exists
    only for side-by-side comparison; it is vacuous as a bound.
    """
    delta_lower, delta_upper = fluctuation_deltas(x, eps)
    lower = x - delta_lower
    clamped = False
    if lower < 0.0:
        lower = 0.0
        clamped = True
    upper = x - delta_upper if literal_upper else x + delta_upper
    return BoundedCount(lower, x, upper, clamped=clamped)


def _clamp(value: float, lo: float, hi: float) -> tuple[float, bool]:
    if value < lo:
        return lo, True
    if value > hi:
        return hi, True
    return value, False


def _worst_case(
    name: str,
    estimate: Callable[..., float],
    rising: tuple[BoundedCount, ...],
    falling: tuple[BoundedCount, ...],
    cap: float,
) -> BoundedCount:
    """Evaluate a closed form at the worst-case ends of its inputs.

    ``estimate`` takes the ``rising`` inputs (those it increases with) and
    then the ``falling`` ones. Its lower bound takes the rising inputs at
    their lower ends and the falling ones at their upper ends, and the
    upper bound the reverse. Both ends are clamped to [0, cap].
    """
    lower, cl = _clamp(
        estimate(*(iv.lower for iv in rising), *(iv.upper for iv in falling)), 0.0, cap
    )
    upper, cu = _clamp(
        estimate(*(iv.upper for iv in rising), *(iv.lower for iv in falling)), 0.0, cap
    )
    if lower > upper:
        raise NonPhysicalEstimateError(
            f"{name}: estimated lower bound {lower!r} exceeds upper bound {upper!r}"
        )
    point = estimate(*(iv.point for iv in rising + falling))
    return BoundedCount(lower, point, upper, clamped=cl or cu)


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
    t0 = tau(0, intensities)
    coef = t0 / (nu - om)

    def estimate(n_om_star: float, n_nu_star: float) -> float:
        return coef * (
            nu * exp(om) * n_om_star / om_s.probability
            - om * exp(nu) * n_nu_star / nu_s.probability
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
    t1 = tau(1, intensities)
    coef = mu * t1 / denom
    ratio = (nu * nu - om * om) / (mu * mu)

    def estimate(n_nu_star: float, s0_star: float, n_om_star: float, n_mu_star: float) -> float:
        return coef * (
            exp(nu) * n_nu_star / nu_s.probability
            - exp(om) * n_om_star / om_s.probability
            + ratio * (s0_star / t0 - exp(mu) * n_mu_star / mu_s.probability)
        )

    total = iv_mu.point + iv_nu.point + iv_om.point
    return _worst_case(
        "single-photon count", estimate, (iv_nu, s0), (iv_om, iv_mu), total
    )


def error_count_bound(
    errors: tuple[BoundedCount, BoundedCount],
    intensities: tuple[IntensityClass, IntensityClass, IntensityClass],
    cap: float,
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
    t1 = tau(1, intensities)
    coef = t1 / (nu - om)

    def estimate(m_nu_star: float, m_om_star: float) -> float:
        return coef * (
            exp(nu) * m_nu_star / nu_s.probability
            - exp(om) * m_om_star / om_s.probability
        )

    return _worst_case("single-photon error count", estimate, (iv_nu,), (iv_om,), cap)


def single_photon_error_rate(t: BoundedCount, s1: BoundedCount) -> BoundedCount:
    """Error rate of single-photon detections from count bounds.

    A vanishing single-photon lower bound forces the rate's upper end to 1
    and marks the result degenerate.
    """
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
    lower, cl = _clamp(lower, 0.0, 1.0)
    upper, cu = _clamp(upper, 0.0, 1.0)
    point, _ = _clamp(point, 0.0, 1.0)
    return BoundedCount(lower, point, upper, clamped=cl or cu, degenerate=degenerate)


@dataclass(frozen=True)
class ClassBounds:
    """Decoy chain of one event class, from vacuum count to error rate."""

    s0: BoundedCount
    s1: BoundedCount
    t: BoundedCount
    e: BoundedCount


def yield_bounds(
    detected: tuple[float, float, float],
    intensities: tuple[IntensityClass, IntensityClass, IntensityClass],
    eps: float | None,
    literal_upper: bool = False,
) -> tuple[BoundedCount, BoundedCount]:
    """Vacuum and single-photon detection bounds of one event class."""
    intervals = tuple(fluctuation_interval(n, eps, literal_upper) for n in detected)
    s0 = vacuum_bound(intervals, intensities)
    return s0, single_photon_bound(intervals, s0, intensities)


def class_bounds(
    detected: tuple[float, float, float],
    errors: tuple[float, float, float],
    intensities: tuple[IntensityClass, IntensityClass, IntensityClass],
    eps: float | None,
    literal_upper: bool = False,
) -> ClassBounds:
    """The full chain: vacuum, single-photon, error count, then error rate.
    The error count at signal intensity enters only the cap: it gets no interval."""
    s0, s1 = yield_bounds(detected, intensities, eps, literal_upper)
    intervals = tuple(fluctuation_interval(m, eps, literal_upper) for m in errors[1:])
    t = error_count_bound(intervals, intensities, sum(errors))
    return ClassBounds(s0, s1, t, single_photon_error_rate(t, s1))
