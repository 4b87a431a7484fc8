"""Channel-quality statistics and eavesdropper-information bounds.

The four-state protocol estimates the two X-quadrature correlators from
single-photon error rates of the four states measured in the X basis,
combines them into a rotation-invariant magnitude, and converts that into
an upper bound on leaked information. Reference curves for the six-state
and six-four variants live here as well, and so does the binary entropy
that both the leak bounds and the key-length formula use. The four-state
bounds and the six-four and six-state ones take arrays with one entry per point;
their ``math`` functions and powers run point by point, as numpy's differ in the
last bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import hypot, log2
from typing import Callable

import numpy as np

from .decoy import BoundedCount, raise_at


def per_point(fn: Callable[..., float], *values):
    """``fn`` applied point by point; the result has the inputs' broadcast shape."""
    values = [np.asarray(v) for v in values]
    if any(v.shape != values[0].shape for v in values):
        values = np.broadcast_arrays(*values)
    return np.fromiter(map(fn, *[v.ravel().tolist() for v in values]), float).reshape(values[0].shape)


def binary_entropy(p: float) -> float:
    """h(p) in bits, with h(0) = h(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0,1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * log2(p) - (1.0 - p) * log2(1.0 - p)


def binary_entropies(p):
    """``binary_entropy`` of each entry of an array, bit for bit: its arithmetic on the
    array, ``math.log2`` per entry; the first entry outside [0, 1] raises its error."""
    p = np.asarray(p, dtype=float)
    raise_at(~((p >= 0.0) & (p <= 1.0)), ValueError,
             lambda i: f"probability must be in [0,1], got {p.item(i)}")
    inner = (p > 0.0) & (p < 1.0)
    p = np.where(inner, p, 0.5)  # h(0) = h(1) = 0 below; no log2 of 0
    log_p, log_q = (per_point(log2, x) for x in (p, 1.0 - p))
    return np.where(inner, -p * log_p - (1.0 - p) * log_q, 0.0)


@dataclass(frozen=True)
class CBounds:
    """Interval estimates of the two correlator components."""

    c1_lower: float
    c1_upper: float
    c2_lower: float
    c2_upper: float
    c44_lower: float
    clamped: bool = False
    nonphysical: bool = False


def c1_c2_point(e_z0x: float, e_z1x: float, e_x0x: float, e_y0x: float) -> tuple[float, float]:
    """Correlator components from the four X-basis error rates."""
    c1 = e_z0x + e_z1x - 2.0 * e_x0x
    c2 = e_z0x + e_z1x - 2.0 * e_y0x
    return c1, c2


def c_bounds(
    e_z0x: BoundedCount,
    e_z1x: BoundedCount,
    e_x0x: BoundedCount,
    e_y0x: BoundedCount,
    literal_c1_lower: bool = False,
) -> CBounds:
    """Interval arithmetic over the correlator components.

    ``literal_c1_lower`` reproduces a printed variant that mixes the Y0
    statistic into the first component's lower end; the default keeps each
    component built from its own quadrature. Where a component's ends cross,
    ``c44_lower`` is 0, flagged ``nonphysical``.
    """
    c1_upper, c2_upper = c1_c2_point(e_z0x.upper, e_z1x.upper, e_x0x.lower, e_y0x.lower)
    x_for_lower = e_y0x if literal_c1_lower else e_x0x
    c1_lower, c2_lower = c1_c2_point(
        e_z0x.lower, e_z1x.lower, x_for_lower.upper, e_y0x.upper
    )
    bad = (c1_lower > c1_upper) | (c2_lower > c2_upper)
    c1_abs, c2_abs = (abs_lower(np.where(bad, 0.0, lower), np.where(bad, 0.0, upper))
                      for lower, upper in ((c1_lower, c1_upper), (c2_lower, c2_upper)))
    raw = per_point(hypot, c1_abs, c2_abs)
    clamped = raw > 1.0
    return CBounds(c1_lower, c1_upper, c2_lower, c2_upper, np.where(clamped, 1.0, raw), clamped, bad)


def abs_lower(lower: float, upper: float) -> float:
    """Smallest possible magnitude of a value known to lie in [lower, upper]."""
    lower, upper = np.asarray(lower), np.asarray(upper)
    raise_at(lower > upper, ValueError,
             lambda i: f"need lower <= upper, got {lower.item(i)} > {upper.item(i)}")
    return np.where(lower > 0.0, lower, np.where(upper < 0.0, -upper, 0.0))


def ie_4state(c44: float) -> float:
    """Leaked-information bound of the four-state protocol."""
    c44 = np.asarray(c44)
    raise_at(~((c44 >= 0.0) & (c44 <= 1.0)), ValueError,
             lambda i: f"c44 must be in [0,1], got {c44.item(i)}")
    return binary_entropies((1.0 - c44) / 2.0)


def c_64(corr_xx: float, corr_yx: float) -> float:
    """Channel statistic of the six-four variant (two X-basis correlators)."""
    return per_point(hypot, corr_xx, corr_yx)


def _squares(x):
    """``x**2`` of each entry as Python's float power rounds it, C ``pow``; numpy's
    ``x * x`` differs in the last bit."""
    return per_point(pow, x, 2.0)


def c_6state(corr_xx: float, corr_xy: float, corr_yx: float, corr_yy: float) -> float:
    """Channel statistic of the six-state variant (sum of squared correlators)."""
    return _squares(corr_xx) + _squares(corr_xy) + _squares(corr_yx) + _squares(corr_yy)


def ie_6state(c: float, e_zz: float, literal_radicand: bool = False) -> tuple[float, bool, bool]:
    """Leaked-information bound of the six-state variant, with its two clamps:
    ``(leak, radicand_clamped, mixing_clamped)``, each an array over the entries;
    the first entry outside the domain raises its error.

    The inner radicand is clamped at zero and the second mixing coefficient
    at one; the two flags say whether each clamp took effect. The radicand
    clamps only under ``literal_radicand``: otherwise it is >= 0 in exact
    arithmetic (u < 1 gives exactly 0, u = 1 gives c/2 - (1-e)^2 >= 0), and a
    value below 0 is rounding, set to 0 unflagged. Ordinary inputs reach the
    mixing clamp, not only statistical artifacts: the decoy chain overstates
    the per-class error rates, so a class whose true rate is 1/2 (a
    correlator of 0) yields a correlator near 0.44. On about half the rfi66
    rows of ``compare`` over 0-300 km, ``c`` is clamped at 2 and the
    coefficient reaches about 14 before its clamp.
    """
    c, e_zz = np.broadcast_arrays(np.asarray(c, dtype=float), np.asarray(e_zz, dtype=float))
    raise_at(~((c >= 0.0) & (c <= 2.0)), ValueError, lambda i: f"c must be in [0,2], got {c.item(i)}")
    raise_at(~((e_zz >= 0.0) & (e_zz < 0.5)), ValueError,
             lambda i: f"e_zz must be in [0,0.5), got {e_zz.item(i)}")
    u = np.sqrt(c / 2.0) / (1.0 - e_zz)
    u = np.where(u > 1.0, 1.0, u)
    leak = (1.0 - e_zz) * binary_entropies((1.0 + u) / 2.0)
    noisy = e_zz != 0.0  # at e_zz = 0 the second term and both clamps vanish
    if literal_radicand:
        radicand = c / 2.0 - (1.0 - _squares(e_zz) * _squares(u))
    else:
        radicand = c / 2.0 - _squares(1.0 - e_zz) * _squares(u)
    v = np.sqrt(np.where(radicand < 0.0, 0.0, radicand)) / np.where(noisy, e_zz, 1.0)
    second = e_zz * binary_entropies((1.0 + np.where(v > 1.0, 1.0, v)) / 2.0)
    return (np.where(noisy, leak + second, leak), noisy & (radicand < 0.0) & literal_radicand,
            noisy & (v > 1.0))
