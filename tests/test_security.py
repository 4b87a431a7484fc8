import math
import warnings

import mpmath
import numpy as np
import pytest

from rfiqkd.decoy import BoundedCount
from rfiqkd.security import (
    CBounds,
    abs_lower,
    c1_c2_point,
    c_64,
    c_6state,
    c_bounds,
    ie_4state,
    ie_6state,
)


def _iv(lo, hi):
    return BoundedCount(lo, (lo + hi) / 2, hi)


def _box(lo1, hi1, lo2, hi2) -> CBounds:
    # Z-in-X rates pinned at 1/2 make c1 = 1 - 2 e_x0x and c2 = 1 - 2 e_y0x,
    # so these X0/Y0 intervals give component boxes [lo1, hi1] x [lo2, hi2].
    half = _iv(0.5, 0.5)
    return c_bounds(
        half, half, _iv((1 - hi1) / 2, (1 - lo1) / 2), _iv((1 - hi2) / 2, (1 - lo2) / 2)
    )


def _h_mp(p):
    p = mpmath.mpf(p)
    if p <= 0 or p >= 1:
        return mpmath.mpf(0)
    return -p * mpmath.log(p, 2) - (1 - p) * mpmath.log(1 - p, 2)


@pytest.mark.parametrize(
    "errors,expected",
    [
        ((0.5, 0.5, 0.0, 0.5), (1.0, 0.0)),
        ((0.5, 0.5, 0.5, 0.0), (0.0, 1.0)),
        ((0.5, 0.5, 0.01, 0.5), (0.98, 0.0)),
    ],
)
def test_component_point_values(errors, expected):
    assert c1_c2_point(*errors) == pytest.approx(expected)


def test_c_bounds_degenerate_intervals_reduce_to_point():
    point = c1_c2_point(0.5, 0.5, 0.01, 0.4)
    cb = c_bounds(_iv(0.5, 0.5), _iv(0.5, 0.5), _iv(0.01, 0.01), _iv(0.4, 0.4))
    assert (cb.c1_lower, cb.c2_lower) == pytest.approx(point)
    assert (cb.c1_upper, cb.c2_upper) == pytest.approx(point)


def test_c_bounds_example_interval():
    cb = c_bounds(_iv(0.49, 0.51), _iv(0.49, 0.51), _iv(0.009, 0.011), _iv(0.4, 0.6))
    assert cb.c1_lower == pytest.approx(0.958)
    assert cb.c1_upper == pytest.approx(1.002)


def test_c_bounds_widening_inputs_never_shrinks_output():
    base = c_bounds(_iv(0.45, 0.55), _iv(0.45, 0.55), _iv(0.01, 0.02), _iv(0.4, 0.6))
    wide = c_bounds(_iv(0.40, 0.60), _iv(0.45, 0.55), _iv(0.005, 0.03), _iv(0.3, 0.7))
    assert wide.c1_lower <= base.c1_lower and wide.c1_upper >= base.c1_upper
    assert wide.c2_lower <= base.c2_lower and wide.c2_upper >= base.c2_upper
    assert wide.c44_lower <= base.c44_lower


def test_c_bounds_literal_variant_mixes_quadratures():
    literal = c_bounds(
        _iv(0.5, 0.5), _iv(0.5, 0.5), _iv(0.01, 0.02), _iv(0.4, 0.6),
        literal_c1_lower=True,
    )
    assert literal.c1_lower == pytest.approx(0.5 + 0.5 - 2 * 0.6)


@pytest.mark.parametrize(
    "lo,hi,expected",
    [(0.1, 0.3, 0.1), (-0.3, -0.1, 0.1), (-0.1, 0.2, 0.0), (0.0, 0.5, 0.0)],
)
def test_abs_lower_cases(lo, hi, expected):
    assert abs_lower(lo, hi) == expected


def test_abs_lower_brute_force_box_minimum():
    # Exhaustive oracle: minimum of |c| over every interval from a 21-point grid.
    grid = np.linspace(-1.0, 1.0, 21)
    for lo in grid:
        for hi in grid:
            if lo > hi:
                continue
            exact = 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))
            assert abs_lower(float(lo), float(hi)) == pytest.approx(exact, abs=0.0)


def test_c44_lower_single_axis():
    cb = c_bounds(_iv(0.5, 0.5), _iv(0.5, 0.5), _iv(0.15, 0.2), _iv(0.5, 0.5))
    # c1 in [0.6, 0.7], c2 = [0, 0]
    assert cb.c1_lower == pytest.approx(0.6)
    assert cb.c44_lower == pytest.approx(0.6)


def test_c44_lower_two_axes():
    cb = _box(0.6, 0.7, 0.6, 0.7)
    assert (cb.c1_lower, cb.c1_upper, cb.c2_lower, cb.c2_upper) == pytest.approx(
        (0.6, 0.7, 0.6, 0.7), abs=1e-12
    )
    assert cb.c44_lower == pytest.approx(math.sqrt(0.72), abs=1e-12)


def test_c44_lower_box_minimum_oracle():
    # The reported lower bound may never exceed the true minimum magnitude
    # sqrt(c1^2 + c2^2) over the box of admissible component values.
    grid = np.linspace(-1.0, 1.0, 21)

    for lo1 in grid[::4]:
        for hi1 in grid[::4]:
            if lo1 > hi1:
                continue
            for lo2 in grid[::4]:
                for hi2 in grid[::4]:
                    if lo2 > hi2:
                        continue
                    got = _box(lo1, hi1, lo2, hi2).c44_lower
                    exact = math.hypot(abs_lower(lo1, hi1), abs_lower(lo2, hi2))
                    assert got <= exact + 1e-12


def test_c44_clamped_above_one():
    cb = c_bounds(_iv(0.8, 0.9), _iv(0.8, 0.9), _iv(0.0, 0.0), _iv(0.8, 0.9))
    assert cb.c44_lower == 1.0
    assert cb.clamped


def test_ie_4state_endpoints():
    assert ie_4state(1.0) == 0.0
    assert ie_4state(0.0) == pytest.approx(1.0)


def test_ie_4state_reported_point():
    # Independent high-precision evaluation of h((1 - 0.6503) / 2).
    mpmath.mp.dps = 50
    oracle = float(_h_mp((1 - mpmath.mpf("0.6503")) / 2))
    assert ie_4state(0.6503) == pytest.approx(oracle, abs=1e-12)
    assert ie_4state(0.6503) == pytest.approx(0.6687, abs=1e-4)


def test_ie_4state_monotone_decreasing():
    values = [ie_4state(c) for c in np.linspace(0.0, 1.0, 101)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_six_state_statistic_is_rotation_invariant():
    for beta in np.linspace(0.0, 2 * math.pi, 17):
        c = c_6state(math.cos(beta), math.sin(beta), -math.sin(beta), math.cos(beta))
        assert c == pytest.approx(2.0, abs=1e-12)
    assert c_6state(0, 0, 0, 0) == 0.0


@pytest.mark.parametrize("v", [0.2, 0.7, 0.95])
def test_six_state_statistic_depolarized(v):
    beta = 0.4
    c = c_6state(
        v * math.cos(beta), v * math.sin(beta), -v * math.sin(beta), v * math.cos(beta)
    )
    assert c == pytest.approx(2 * v * v, abs=1e-12)


def test_six_four_statistic():
    for beta in np.linspace(0.0, 2 * math.pi, 17):
        assert c_64(math.cos(beta), math.sin(beta)) == pytest.approx(1.0)
    assert c_64(0.0, 0.0) == 0.0
    assert c_64(0.6, 0.8) == pytest.approx(1.0)


def test_ie_6state_noiseless_endpoints():
    assert ie_6state(2.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert ie_6state(0.0, 0.0) == pytest.approx(1.0)


def test_ie_6state_against_independent_evaluation():
    # Same formula written independently in arbitrary precision.
    mpmath.mp.dps = 50
    c, e = mpmath.mpf("1.5"), mpmath.mpf("0.01")
    u = min(mpmath.sqrt(c / 2) / (1 - e), mpmath.mpf(1))
    v = mpmath.sqrt(c / 2 - (1 - e) ** 2 * u**2) / e
    oracle = (1 - e) * _h_mp((1 + u) / 2) + e * _h_mp((1 + v) / 2)
    assert ie_6state(1.5, 0.01) == pytest.approx(float(oracle), rel=1e-12)


def test_ie_6state_clamps_reported_not_silent():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = ie_6state(2.0, 0.01)
    assert value >= 0.0
    assert any("clamped" in str(w.message) for w in caught)


def test_ie_6state_literal_radicand_differs():
    # c = 1.1, e = 0.3 keeps the corrected form clamp-free (u = 1, v < 1)
    # while the printed radicand goes negative and collapses to v = 0.
    standard = ie_6state(1.1, 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        literal = ie_6state(1.1, 0.3, literal_radicand=True)
    assert standard != literal
    assert literal == pytest.approx(0.3)  # 0.3 * h(1/2)


def test_four_state_matches_six_four_on_shared_errors():
    # At zero rotation the Z-in-X rates sit at one half, and the component
    # points coincide with the correlators built from the same error rates.
    e_x, e_y = 0.01, 0.5
    c1, c2 = c1_c2_point(0.5, 0.5, e_x, e_y)
    assert math.hypot(c1, c2) == pytest.approx(c_64(1 - 2 * e_x, 1 - 2 * e_y))
