import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfiqkd import SecurityParams
from rfiqkd.decoy import BoundedCount
from rfiqkd.keyrate import key_length
from rfiqkd.security import (
    CBounds,
    abs_lower,
    binary_entropies,
    binary_entropy,
    c1_c2_point,
    c_64,
    c_6state,
    c_bounds,
    ie_4state,
    ie_6state,
    per_point,
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
    # at e_zz = 0 the second mixing term vanishes, and nothing is clamped
    assert ie_6state(2.0, 0.0) == (pytest.approx(0.0, abs=1e-12), False, False)
    assert ie_6state(0.0, 0.0) == (pytest.approx(1.0), False, False)


def test_ie_6state_against_independent_evaluation():
    # Same formula written independently in arbitrary precision.
    mpmath.mp.dps = 50
    c, e = mpmath.mpf("1.5"), mpmath.mpf("0.01")
    u = min(mpmath.sqrt(c / 2) / (1 - e), mpmath.mpf(1))
    v = mpmath.sqrt(c / 2 - (1 - e) ** 2 * u**2) / e
    oracle = (1 - e) * _h_mp((1 + u) / 2) + e * _h_mp((1 + v) / 2)
    assert ie_6state(1.5, 0.01) == (pytest.approx(float(oracle), rel=1e-12), False, False)


def test_ie_6state_clamps_reported_not_silent():
    # c = 2 gives u = 1 and a mixing coefficient sqrt(1 - 0.99^2) / 0.01 of about 14,
    # clamped at 1: both terms are h(1) = 0
    assert ie_6state(2.0, 0.01) == (0.0, False, True)


def test_ie_6state_literal_radicand_differs():
    # c = 1.1, e = 0.3 keeps the corrected form clamp-free (u = 1, v < 1)
    # while the printed radicand goes negative and collapses to v = 0.
    standard = ie_6state(1.1, 0.3)
    literal = ie_6state(1.1, 0.3, literal_radicand=True)
    assert standard[1:] == (False, False)
    assert literal[1:] == (True, False)
    assert standard[0] != literal[0]
    assert literal[0] == pytest.approx(0.3)  # 0.3 * h(1/2)


def test_four_state_matches_six_four_on_shared_errors():
    # At zero rotation the Z-in-X rates sit at one half, and the component
    # points coincide with the correlators built from the same error rates.
    e_x, e_y = 0.01, 0.5
    c1, c2 = c1_c2_point(0.5, 0.5, e_x, e_y)
    assert math.hypot(c1, c2) == pytest.approx(c_64(1 - 2 * e_x, 1 - 2 * e_y))


_EDGES = [0.0, 1.0, 5e-324, 0.5, 1.0 - 2.0**-53]


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.0) | st.sampled_from(_EDGES), min_size=1, max_size=12),
    st.sampled_from([(), (-1,), (-1, 1), (1, -1)]),
)
def test_array_entropy_is_the_scalar_entropy_bit_for_bit(values, shape):
    p = np.array(values[:1] if shape == () else values).reshape(shape)
    assert _same_bits(binary_entropies(p), per_point(binary_entropy, p))


def test_array_entropy_of_the_edge_values_and_shapes():
    edges = np.array(_EDGES)
    expected = [binary_entropy(p) for p in _EDGES]
    assert _same_bits(binary_entropies(edges), expected)
    assert _same_bits(binary_entropies(edges.reshape(5, 1)), np.reshape(expected, (5, 1)))
    assert _same_bits(binary_entropies(0.5), np.float64(1.0))
    assert binary_entropies(np.empty((0, 3))).shape == (0, 3)
    # numpy's log2 differs from math's in the last bit on about 0.2 % of such inputs
    uniform = np.random.default_rng(2201).random((200, 500))
    assert _same_bits(binary_entropies(uniform), per_point(binary_entropy, uniform))


@pytest.mark.parametrize("bad", [math.nan, -0.25, 1.5, -5e-324, 1.0 + 2.0**-52])
def test_array_entropy_raises_the_scalar_error_for_the_first_bad_entry(bad):
    with pytest.raises(ValueError) as scalar:
        binary_entropy(bad)
    p = np.array([[0.25, 0.5], [bad, 2.0]])
    with pytest.raises(ValueError) as array:
        binary_entropies(p)
    assert str(array.value) == str(scalar.value)


def _scalar_key_length(s0, s1, i_e, n_zz, e_zz, sec, n_total, asymptotic):
    """The raw key length of one point, in Python floats and ``math`` functions."""
    raw = s0 + s1 * (1.0 - i_e) - n_zz * sec.f_ec * binary_entropy(e_zz)
    if asymptotic:
        return raw
    return (
        raw
        - math.log2(2.0 / sec.eps_ec)
        - 2.0 * math.log2(2.0 / sec.eps_pa)
        - 7.0 * math.sqrt(n_zz * math.log2(2.0 / sec.eps_bar))
        - 30.0 * math.log2(n_total + 1.0)
    )


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0.0, 1.0),
            # block sizes repeat within a block, as in a grid chunk, up to the 2^62 budget
            st.sampled_from([10**3, 3 * 10**12, 2**53 + 1, 2**62]) | st.integers(1, 2**62),
        ),
        min_size=1,
        max_size=8,
    ),
    st.booleans(),
)
# numpy's log2(n + 1) differs from math's in the last bit at these sizes, which
# shows in the raw length where c44 = 0 leaves only the constant terms
@example([(0.0, 28598), (0.5, 2**62), (0.0, 2309986011550812359), (0.0, 28598)], False)
def test_ie_4state_and_key_length_match_the_per_point_entropy(points, asymptotic):
    c44, sizes = np.array([c for c, _ in points]), [n for _, n in points]
    assert _same_bits(ie_4state(c44), per_point(binary_entropy, (1.0 - c44) / 2.0))
    # the block sizes as Python ints in an object array, as analyze_batch passes them
    e_zz, n_zz, n_total = c44 / 2.0, 1e9 * c44, np.array(sizes, dtype=object)
    args = (1e5 * c44, 4e8 * c44, 1.0 - c44, n_zz, e_zz, SecurityParams(), n_total, asymptotic)
    got = key_length(*args)
    reference = [_scalar_key_length(*point, SecurityParams(), n, asymptotic)
                 for *point, n in zip(*(a.tolist() for a in args[:5]), sizes)]
    assert _same_bits(got.raw, reference)
    assert _same_bits(got.length, [max(raw, 0.0) for raw in reference])


# -- the six-state bounds on arrays against their per-point functions ---------


def _ref_entropy(p):
    return 0.0 if p in (0.0, 1.0) else -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _ref_c_6state(corr_xx, corr_xy, corr_yx, corr_yy):
    """``c_6state`` as it stood per point, on Python floats."""
    return corr_xx**2 + corr_xy**2 + corr_yx**2 + corr_yy**2


def _ref_ie_6state(c, e_zz, literal_radicand=False):
    """``ie_6state`` as it stood per point, on Python floats and ``math``."""
    if not 0.0 <= c <= 2.0:
        raise ValueError(f"c must be in [0,2], got {c}")
    if not 0.0 <= e_zz < 0.5:
        raise ValueError(f"e_zz must be in [0,0.5), got {e_zz}")
    u = min(math.sqrt(c / 2.0) / (1.0 - e_zz), 1.0)
    leak = (1.0 - e_zz) * _ref_entropy((1.0 + u) / 2.0)
    if e_zz == 0.0:
        return leak, False, False
    if literal_radicand:
        radicand = c / 2.0 - (1.0 - e_zz**2 * u**2)
    else:
        radicand = c / 2.0 - (1.0 - e_zz) ** 2 * u**2
    v = math.sqrt(max(radicand, 0.0)) / e_zz
    return leak + e_zz * _ref_entropy((1.0 + min(v, 1.0)) / 2.0), literal_radicand and radicand < 0.0, v > 1.0


@pytest.mark.parametrize("literal", [False, True])
def test_array_six_state_bounds_are_the_per_point_functions_bit_for_bit(literal):
    # numpy's x * x differs from Python's x**2 in the last bit on about 0.1 % of
    # these correlators, so 10^5 entries see it many times over
    rng = np.random.default_rng(66)
    n = 100_000
    corr = rng.uniform(-1.0, 1.0, (4, n))
    corr[:, :1000] = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5], (4, 1000))
    raw = c_6state(*corr)
    assert _same_bits(raw, [_ref_c_6state(*point) for point in corr.T.tolist()])
    c = np.where(raw > 2.0, 2.0, raw)  # as the six-state leak clamps it, about half at 2
    c[:1000] = rng.choice([0.0, 2.0], 1000)
    e = rng.uniform(0.0, 0.5, n)
    e[::5] = 0.0
    e[1::5] = rng.uniform(0.0, 0.02, len(e[1::5]))  # small rates: the mixing clamp
    e[2:1000:5] = np.nextafter(0.5, 0.0)
    got = ie_6state(c, e, literal_radicand=literal)
    leak, radicand, mixing = zip(*(_ref_ie_6state(ci, ei, literal) for ci, ei in zip(c.tolist(), e.tolist())))
    assert _same_bits(got[0], leak)
    assert got[1].tolist() == list(radicand) and got[2].tolist() == list(mixing)
    # both clamps are reached, the radicand's only in literal mode: outside it a
    # radicand below 0 comes from rounding alone
    assert 0 < sum(mixing) < n
    assert 0 < sum(radicand) < n if literal else not any(radicand)


@pytest.mark.parametrize(
    "c, e", [(2.5, 0.1), (-0.1, 0.1), (math.nan, 0.1), (1.0, 0.5), (1.0, 0.75), (1.0, -5e-324), (1.0, math.nan)]
)
def test_array_six_state_leak_raises_the_scalar_error_for_the_first_bad_entry(c, e):
    # at e_zz >= 0.5 the six-state baseline takes no bound: its leak is 1
    with pytest.raises(ValueError) as scalar:
        _ref_ie_6state(c, e)
    with pytest.raises(ValueError) as array:
        ie_6state(np.array([1.0, c, 0.5]), np.array([0.1, e, 0.9]))
    assert str(array.value) == str(scalar.value)
