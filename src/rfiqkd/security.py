"""Channel-quality statistics and eavesdropper-information bounds.

The four-state protocol estimates the two X-quadrature correlators from
single-photon error rates of the four states measured in the X basis,
combines them into a rotation-invariant magnitude, and converts that into
an upper bound on leaked information. Reference curves for the six-state
and six-four variants live here as well, and so does the binary entropy
that both the leak bounds and the key-length formula use.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import hypot, log2, sqrt

from .decoy import BoundedCount


def binary_entropy(p: float) -> float:
    """h(p) in bits, with h(0) = h(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0,1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * log2(p) - (1.0 - p) * log2(1.0 - p)


@dataclass(frozen=True)
class CBounds:
    """Interval estimates of the two correlator components."""

    c1_lower: float
    c1_upper: float
    c2_lower: float
    c2_upper: float
    c44_lower: float
    clamped: bool = False


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
    component built from its own quadrature.
    """
    c1_upper, c2_upper = c1_c2_point(e_z0x.upper, e_z1x.upper, e_x0x.lower, e_y0x.lower)
    x_for_lower = e_y0x if literal_c1_lower else e_x0x
    c1_lower, c2_lower = c1_c2_point(
        e_z0x.lower, e_z1x.lower, x_for_lower.upper, e_y0x.upper
    )
    raw = hypot(abs_lower(c1_lower, c1_upper), abs_lower(c2_lower, c2_upper))
    return CBounds(
        c1_lower, c1_upper, c2_lower, c2_upper, min(raw, 1.0), clamped=raw > 1.0
    )


def abs_lower(lower: float, upper: float) -> float:
    """Smallest possible magnitude of a value known to lie in [lower, upper]."""
    if lower > upper:
        raise ValueError(f"need lower <= upper, got {lower} > {upper}")
    if lower > 0.0:
        return lower
    if upper < 0.0:
        return -upper
    return 0.0


def ie_4state(c44: float) -> float:
    """Leaked-information bound of the four-state protocol."""
    if not 0.0 <= c44 <= 1.0:
        raise ValueError(f"c44 must be in [0,1], got {c44}")
    return binary_entropy((1.0 - c44) / 2.0)


def c_64(corr_xx: float, corr_yx: float) -> float:
    """Channel statistic of the six-four variant (two X-basis correlators)."""
    return hypot(corr_xx, corr_yx)


def c_6state(corr_xx: float, corr_xy: float, corr_yx: float, corr_yy: float) -> float:
    """Channel statistic of the six-state variant (sum of squared correlators)."""
    return corr_xx**2 + corr_xy**2 + corr_yx**2 + corr_yy**2


def ie_6state(c: float, e_zz: float, literal_radicand: bool = False) -> float:
    """Leaked-information bound of the six-state variant.

    The inner radicand is clamped at zero and the second mixing coefficient
    at one; both clamps are reported through ``warnings`` because they can
    only be reached by statistical artifacts in the inputs.
    """
    if not 0.0 <= c <= 2.0:
        raise ValueError(f"c must be in [0,2], got {c}")
    if not 0.0 <= e_zz < 0.5:
        raise ValueError(f"e_zz must be in [0,0.5), got {e_zz}")
    u = min(sqrt(c / 2.0) / (1.0 - e_zz), 1.0)
    leak = (1.0 - e_zz) * binary_entropy((1.0 + u) / 2.0)
    if e_zz == 0.0:
        return leak
    if literal_radicand:
        radicand = c / 2.0 - (1.0 - e_zz**2 * u**2)
    else:
        radicand = c / 2.0 - (1.0 - e_zz) ** 2 * u**2
    if radicand < 0.0:
        warnings.warn("six-state mixing radicand clamped at 0", RuntimeWarning, stacklevel=2)
        radicand = 0.0
    v = sqrt(radicand) / e_zz
    if v > 1.0:
        warnings.warn("six-state mixing coefficient clamped at 1", RuntimeWarning, stacklevel=2)
        v = 1.0
    return leak + e_zz * binary_entropy((1.0 + v) / 2.0)
