"""Finite-size decoy-state estimation with closed-form two-decoy bounds.

All estimators work on the counts of one event class (for example "Z states
detected in the Z basis") split by source intensity. Statistical
fluctuations of each observed count are absorbed first, into one interval
per count, then the closed-form vacuum / single-photon expressions are
evaluated with the worst-case ends of those intervals.

Counts and bounds are arrays with one entry per point of a block, and a class
axis after it runs every class of an analysis in one call. Only a ``Setting``'s
constants need a transcendental, once per analysis; per entry the chain is
arithmetic and ``sqrt``, which IEEE 754 rounds correctly in numpy and ``math``
alike, so each entry equals the per-point, per-class result bit for bit
(``exact_counts`` keeps the integer arithmetic exact). A bound whose worst-case
ends are not finite or cross is ``[0, cap]``, flagged ``nonphysical``: every
entry keeps its own result, whatever the entries beside it give.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import exp, factorial, isfinite, log, nan
from typing import Callable

import numpy as np

from .core import KINDS, MAX_PULSES, IntensityClass


class DecoyPreconditionError(ValueError):
    """The intensity settings or ε do not admit the closed-form bounds."""


@dataclass(frozen=True)
class BoundedCount:
    """An estimated quantity with lower/upper bounds around a point value."""

    lower: float
    point: float
    upper: float
    clamped: bool = False
    degenerate: bool = False
    nonphysical: bool = False

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def __getitem__(self, index) -> "BoundedCount":
        """The entries at ``index`` of each array field; a number, or a flag left
        at its default, stays."""
        return BoundedCount(*[f[index] if isinstance(f, np.ndarray) and f.ndim else f
                              for f in vars(self).values()])

    __iter__ = None  # indexing does not make a bound a sequence


def raise_at(bad, error: type[ValueError], message: Callable[[int], str]) -> None:
    """Raise ``error(message(i))`` for the first entry ``i`` (a flat index)
    where ``bad`` holds."""
    bad = np.asarray(bad)
    if np.count_nonzero(bad):
        raise error(message(int(bad.argmax())))


def exact_counts(counts):
    """An array of counts as the chain takes it: integer counts whose totals
    over the last axis reach 10^12 as Python ints, whose arithmetic is the
    per-point one; below that as float64, which holds every count and every
    sum of them exactly, and cli's 12 digits print an integral float as they
    print the int."""
    counts = np.asarray(counts)
    if counts.dtype.kind not in "iu":
        return counts
    if np.count_nonzero(counts.sum(axis=-1, dtype=float) >= 1e12):
        return counts.astype(object)
    return counts.astype(float)


def divide(num, den, fallback):
    """``num / den`` where ``den > 0``, else ``fallback``; and where ``den > 0``."""
    positive = np.asarray(den > 0.0)  # the quotient's other entries are left unset, then replaced
    return np.where(positive, np.divide(num, den, out=None, where=positive), fallback), positive


def tau(n: int, intensities: tuple[IntensityClass, ...]) -> float:
    """Probability that a pulse (any intensity setting) carries n photons."""
    if n < 0:
        raise ValueError(f"photon number must be >= 0, got {n}")
    acc = 0.0
    for k in intensities:
        acc += exp(-k.mean_photons) * k.mean_photons**n * k.probability
    return acc / factorial(n)


@dataclass(frozen=True)
class Setting:
    """The constants of the closed-form bounds for one (signal, decoy, vacuum)
    intensity triple and ε, built by ``setting``: the selection probabilities,
    τ0, e^k, the coefficients and ``b = log(1/ε)``, and each formula as a method."""

    p_mu: float
    p_nu: float
    p_om: float
    t0: float
    e_mu: float
    e_nu: float
    e_om: float
    nu_e_om: float
    om_e_nu: float
    vacuum_coef: float
    single_coef: float
    ratio: float
    error_coef: float
    b: float | None
    literal_upper: bool

    def vacuum(self, n_om, n_nu):
        return self.vacuum_coef * (self.nu_e_om * n_om / self.p_om - self.om_e_nu * n_nu / self.p_nu)

    def single_photon(self, n_nu, s0, n_om, n_mu):
        return self.single_coef * (
            self.e_nu * n_nu / self.p_nu
            - self.e_om * n_om / self.p_om
            + self.ratio * (s0 / self.t0 - self.e_mu * n_mu / self.p_mu)
        )

    def error_count(self, m_nu, m_om):
        return self.error_coef * (self.e_nu * m_nu / self.p_nu - self.e_om * m_om / self.p_om)


@lru_cache(maxsize=64)  # hashable, frozen arguments; a failing check is not kept
def setting(
    intensities: tuple[IntensityClass, ...], eps: float | None, literal_upper: bool = False
) -> Setting:
    """The bounds' constants for ``intensities`` and ``eps``, the chance that a
    mean escapes its interval on either side (None: no fluctuations), and the
    one check of what the closed forms need, up to each term a count of 2^62
    builds: a failure raises ``DecoyPreconditionError`` led by the key at fault."""

    def need(ok, problem):
        if not ok:
            raise DecoyPreconditionError(problem)

    kinds = tuple(k.kind for k in intensities)  # channel reads them by kind, the bounds by position
    need(kinds == KINDS,
         f"intensities: must be mu, nu, omega in that order, got {', '.join(k.value for k in kinds)}")
    for k in intensities:
        need(k.probability > 0.0, f"p_{k.kind.value}: must be > 0, got {k.probability}")
    (mu, p_mu), (nu, p_nu), (om, p_om) = ((k.mean_photons, k.probability) for k in intensities)
    need(nu > om, f"nu: must be > omega, got nu={nu} omega={om}")
    denom = mu * (nu - om) - (nu * nu - om * om)
    need(denom > 0.0, f"mu: need mu*(nu-omega) > nu^2-omega^2, got mu={mu} nu={nu} omega={om}")
    b = None if eps is None else log(1.0 / eps) if 0.0 < eps < 1.0 else nan
    need(b is None or isfinite(b), f"eps: must be in (0,1) with log(1/eps) finite, got {eps}")
    try:
        t0, t1 = tau(0, intensities), tau(1, intensities)
        e_mu, e_nu, e_om = exp(mu), exp(nu), exp(om)
        s = Setting(
            p_mu, p_nu, p_om, t0, e_mu, e_nu, e_om, nu * e_om, om * e_nu,
            t0 / (nu - om), mu * t1 / denom, (nu * nu - om * om) / (mu * mu), t1 / (nu - om),
            b, literal_upper,
        )
        n, z = float(MAX_PULSES), 0.0
        for key, value, p, terms in (  # each count of each formula alone, s0 under omega
            ("nu", nu, p_nu, (s.vacuum(z, n), s.single_photon(n, z, z, z), s.error_count(n, z))),
            ("omega", om, p_om, (s.vacuum(n, z), s.single_photon(z, n, z, z),
                                 s.single_photon(z, z, n, z), s.error_count(z, n))),
            ("mu", mu, p_mu, (s.single_photon(z, z, z, n),)),
        ):
            need(all(map(isfinite, terms)),
                 f"{key}: a count of 2^62 overflows a decoy bound, got {key}={value} p_{key}={p}")
    except ArithmeticError as exc:  # e^mu overflows, or a divisor underflows to 0
        raise DecoyPreconditionError(f"mu: the decoy constants fail ({exc}), got mu={mu}") from None
    return s


def fluctuation_deltas(x, setting: Setting):
    """Downward and upward deviations of an observed count from its mean;
    both zero without fluctuations."""
    b = setting.b
    if b is None:
        return 0.0, 0.0
    x = np.asarray(x)
    raise_at(x < 0, ValueError, lambda i: f"observed count must be >= 0, got {x.item(i)}")
    two_b_x = np.asarray(2.0 * b * x, dtype=float)  # object counts give Python floats
    return b / 2.0 + np.sqrt(two_b_x + b * b / 4.0), b + np.sqrt(two_b_x + b * b)


def fluctuation_interval(x, setting: Setting) -> BoundedCount:
    """Interval that contains the mean of an observed count. Under
    ``literal_upper`` its upper end, below the observation, is vacuous as a
    bound: that variant exists only for side-by-side comparison."""
    delta_lower, delta_upper = fluctuation_deltas(x, setting)
    lower = x - delta_lower
    clamped = lower < 0.0
    upper = x - delta_upper if setting.literal_upper else x + delta_upper
    return BoundedCount(np.where(clamped, 0.0, lower), x, upper, clamped=clamped)


def _clamp(value, lo, hi):
    low, high = value < lo, value > hi
    return np.where(low, lo, np.where(high, hi, value)), low | high


def _worst_case(
    estimate: Callable[..., float],
    rising: tuple[BoundedCount, ...],
    falling: tuple[BoundedCount, ...],
    cap,
) -> BoundedCount:
    """Evaluate a closed form at the worst-case ends of its inputs.

    ``estimate`` takes the ``rising`` inputs (those it increases with) and
    then the ``falling`` ones. Its lower bound takes the rising inputs at
    their lower ends and the falling ones at their upper ends, and the
    upper bound the reverse. The ends are clamped to [0, cap]. Where a raw end
    is not finite or the clamped ends cross, the bound is the trivially valid
    [0, cap], flagged ``nonphysical``.
    """
    raw_lower = estimate(*[iv.lower for iv in rising], *[iv.upper for iv in falling])
    raw_upper = estimate(*[iv.upper for iv in rising], *[iv.lower for iv in falling])
    lower, cl = _clamp(raw_lower, 0.0, cap)
    upper, cu = _clamp(raw_upper, 0.0, cap)
    finite = np.isfinite(np.asarray(raw_lower, dtype=float))  # object ends: Python floats
    bad = ~(finite & np.isfinite(np.asarray(raw_upper, dtype=float))) | (lower > upper)
    point = estimate(*[iv.point for iv in rising + falling])
    return BoundedCount(np.where(bad, 0.0, lower), point, np.where(bad, cap, upper),
                        clamped=cl | cu, nonphysical=bad)


def vacuum_bound(
    detected: tuple[BoundedCount, BoundedCount, BoundedCount], setting: Setting
) -> BoundedCount:
    """Bounds on the number of detections caused by vacuum pulses.

    ``detected`` holds the intervals of one event class's detections at (signal,
    decoy, vacuum) intensity. The result is clamped to [0, total detections].
    """
    iv_mu, iv_nu, iv_om = detected
    total = iv_mu.point + iv_nu.point + iv_om.point
    return _worst_case(setting.vacuum, (iv_om,), (iv_nu,), total)


def single_photon_bound(
    detected: tuple[BoundedCount, BoundedCount, BoundedCount],
    s0: BoundedCount,
    setting: Setting,
) -> BoundedCount:
    """Bounds on the number of detections caused by single-photon pulses."""
    iv_mu, iv_nu, iv_om = detected
    total = iv_mu.point + iv_nu.point + iv_om.point
    return _worst_case(setting.single_photon, (iv_nu, s0), (iv_om, iv_mu), total)


def error_count_bound(
    errors: tuple[BoundedCount, BoundedCount], setting: Setting, cap
) -> BoundedCount:
    """Bounds on the number of single-photon errors of one event class.

    ``errors`` holds the intervals of its errors at decoy and vacuum intensity;
    ``cap``, its total observed errors, is the physical ceiling.
    """
    return _worst_case(setting.error_count, errors[:1], errors[1:], cap)


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


def yield_bounds(detected, setting: Setting) -> tuple[BoundedCount, BoundedCount]:
    """Vacuum and single-photon detection bounds of event classes from their
    detections at (signal, decoy, vacuum) intensity, an (n, 3) array of n
    points or an (n, classes, 3) one."""
    iv = fluctuation_interval(exact_counts(detected), setting)  # one per count array
    intervals = tuple(iv[..., k] for k in range(3))
    s0 = vacuum_bound(intervals, setting)
    return s0, single_photon_bound(intervals, s0, setting)


def class_bounds(detected, errors, setting: Setting) -> ClassBounds:
    """The full chain: vacuum, single-photon, error count, then error rate.
    ``errors`` is laid out as ``detected``. The error count at signal intensity
    enters only the cap: it gets no interval. Each step is elementwise, so a
    class's bounds and flags do not depend on the classes beside it."""
    # errors <= detected: one rule
    detected, errors = exact_counts(np.stack((detected, errors)))
    s0, s1 = yield_bounds(detected, setting)
    iv = fluctuation_interval(errors[..., 1:], setting)
    cap = errors[..., 0] + errors[..., 1] + errors[..., 2]
    t = error_count_bound((iv[..., 0], iv[..., 1]), setting, cap)
    return ClassBounds(s0, s1, t, single_photon_error_rate(t, s1))
