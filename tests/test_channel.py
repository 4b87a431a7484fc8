import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfiqkd import channel
from rfiqkd.channel import (
    cell_expectation,
    expected_tallies,
    misalignment_error,
    transmittance,
)
from rfiqkd.core import (
    ALL_CELLS,
    BASES,
    TWO_PI,
    BasisLabel,
    ChannelParams,
    IntensityKind,
    StateLabel,
)
from rfiqkd.security import c1_c2_point

from conftest import make_config


def test_transmittance_back_to_back(ch):
    # 10**(-0.4) * 0.6, receiver Z-path loss only
    assert transmittance(0.0, BasisLabel.Z, ch) == pytest.approx(0.238864302332, abs=1e-12)


def test_transmittance_200km_both_paths(ch):
    assert transmittance(200.0, BasisLabel.Z, ch) == pytest.approx(3.78574406688e-5, rel=1e-9)
    assert transmittance(200.0, BasisLabel.X, ch) == pytest.approx(1.19715738898e-5, rel=1e-9)


@pytest.mark.parametrize(
    "beta,e0,expected",
    [(0.0, 0.0, 0.0), (math.pi / 2, 0.0, 0.5), (0.0, 0.01, 0.01)],
)
def test_misalignment_x0_in_x(beta, e0, expected):
    assert misalignment_error(StateLabel.X0, BasisLabel.X, beta, e0) == pytest.approx(expected)


def test_misalignment_conventions():
    # Z states carry the intrinsic error in Z and are balanced in X.
    assert misalignment_error(StateLabel.Z0, BasisLabel.Z, 1.0, 0.01) == 0.01
    assert misalignment_error(StateLabel.Z1, BasisLabel.Z, 2.0, 0.01) == 0.01
    assert misalignment_error(StateLabel.Z0, BasisLabel.X, 0.3, 0.0) == 0.5
    assert misalignment_error(StateLabel.X0, BasisLabel.Z, 0.3, 0.0) == 0.5
    # Y0 in X reads the quadrature.
    assert misalignment_error(StateLabel.Y0, BasisLabel.X, math.pi / 2, 0.0) == pytest.approx(0.0)


def test_vacuum_cell_is_dark_count_dominated(cfg, ch):
    k = cfg.intensity(IntensityKind.OMEGA)
    exp_cell = cell_expectation(StateLabel.Z0, BasisLabel.Z, k, 120.0, ch)
    assert exp_cell.gain == pytest.approx(ch.e_d, rel=1e-9)
    assert exp_cell.qber == pytest.approx(0.5, rel=1e-9)


def test_signal_gain_at_200km(cfg, ch):
    k = cfg.intensity(IntensityKind.MU)
    exp_cell = cell_expectation(StateLabel.Z0, BasisLabel.Z, k, 200.0, ch)
    # 1 - (1 - 1.3e-7) * exp(-3.78574e-5 * 0.55)
    assert exp_cell.gain == pytest.approx(2.09513728932e-5, rel=1e-9)


def test_x_basis_qber_at_200km(cfg, ch):
    k = cfg.intensity(IntensityKind.MU)
    exp_cell = cell_expectation(StateLabel.X0, BasisLabel.X, k, 200.0, ch)
    eta = transmittance(200.0, BasisLabel.X, ch)
    absorbed = math.exp(-eta * 0.55)
    expected = (ch.e_d / 2 + 0.01 * (1 - absorbed)) / (1 - (1 - ch.e_d) * absorbed)
    assert exp_cell.qber == pytest.approx(expected, rel=1e-12)
    # intrinsic error plus a dark-count share of similar size at this loss
    assert 0.01 < exp_cell.qber < 0.03


def test_expected_tallies_zero_block(ch):
    cfg = make_config(n_total=0)
    tallies = expected_tallies(cfg, ch, [50.0])[0]
    assert all(sent == detected == errors == 0 for sent, detected, errors in tallies.counts.tolist())


def test_expected_tallies_linear_in_block_size(ch):
    small = expected_tallies(make_config(n_total=10**9), ch, [50.0])[0]
    big = expected_tallies(make_config(n_total=2 * 10**9), ch, [50.0])[0]
    for (_, detected, errors), (_, big_detected, big_errors) in zip(
        small.counts.tolist(), big.counts.tolist()
    ):
        assert big_detected == pytest.approx(2 * detected, abs=1.0)
        assert big_errors == pytest.approx(2 * errors, abs=1.0)


def test_single_photon_scale_near_reported_operating_point(cfg, ch):
    # Independent Poisson bookkeeping of true single-photon Z detections at
    # 200 km; the reported operating point quotes a few times 1e7.
    eta = transmittance(200.0, BasisLabel.Z, ch)
    y1 = 1 - (1 - ch.e_d) * (1 - eta)
    total = 0.0
    for kind in (IntensityKind.MU, IntensityKind.NU, IntensityKind.OMEGA):
        k = cfg.intensity(kind)
        p1 = k.mean_photons * math.exp(-k.mean_photons)
        total += cfg.n_total * cfg.p_z_alice * k.probability * p1 * cfg.p_z_bob * y1
    assert 1e7 <= total <= 1e8


def test_gain_monotone_in_intensity_and_distance(cfg, ch):
    kinds = [cfg.intensity(k) for k in (IntensityKind.OMEGA, IntensityKind.NU, IntensityKind.MU)]
    for dist in (0.0, 50.0, 150.0):
        gains = [
            cell_expectation(StateLabel.Z0, BasisLabel.Z, k, dist, ch).gain for k in kinds
        ]
        assert gains[0] < gains[1] < gains[2]
    mu = cfg.intensity(IntensityKind.MU)
    by_distance = [
        cell_expectation(StateLabel.Z0, BasisLabel.Z, mu, d, ch).gain
        for d in (0.0, 50.0, 100.0, 200.0, 300.0)
    ]
    assert all(a > b for a, b in zip(by_distance, by_distance[1:]))


def test_qber_approaches_one_half_in_dark_limit(cfg, ch):
    mu = cfg.intensity(IntensityKind.MU)
    qber = cell_expectation(StateLabel.Z0, BasisLabel.Z, mu, 800.0, ch).qber
    assert qber == pytest.approx(0.5, abs=1e-2)


@pytest.mark.parametrize("e0", [0.0, 0.01, 0.05])
def test_rotation_invariance_of_ideal_statistic(e0):
    # The combined magnitude of the two correlator components must not
    # depend on the rotation angle when fed exact single-photon errors.
    for i in range(64):
        beta = 2 * math.pi * i / 64
        c1, c2 = c1_c2_point(
            misalignment_error(StateLabel.Z0, BasisLabel.X, beta, e0),
            misalignment_error(StateLabel.Z1, BasisLabel.X, beta, e0),
            misalignment_error(StateLabel.X0, BasisLabel.X, beta, e0),
            misalignment_error(StateLabel.Y0, BasisLabel.X, beta, e0),
        )
        assert c1 == pytest.approx((1 - 2 * e0) * math.cos(beta), abs=1e-12)
        assert c2 == pytest.approx((1 - 2 * e0) * math.sin(beta), abs=1e-12)
        assert math.hypot(c1, c2) == pytest.approx(1 - 2 * e0, abs=1e-12)


# -- the channel against the per-cell formula, bit for bit ------------------


def reference_cell(state, basis, k, distance, ch, beta):
    """Gain and error rate of one cell by the per-cell formula, in ``math``."""
    path_db = ch.eta_z_db if basis is BasisLabel.Z else ch.eta_xy_db
    eta = 10.0 ** (-(ch.alpha_db_per_km * distance + path_db) / 10.0) * ch.eta_det
    if basis is BasisLabel.Z:
        e_mis = ch.e0 if state in (StateLabel.Z0, StateLabel.Z1) else 0.5
    elif state is StateLabel.X0:
        e_mis = (1.0 - (1.0 - 2.0 * ch.e0) * math.cos(beta)) / 2.0
    elif state is StateLabel.Y0:
        e_mis = (1.0 - (1.0 - 2.0 * ch.e0) * math.sin(beta)) / 2.0
    else:
        e_mis = 0.5
    absorbed = math.exp(-eta * k.mean_photons)
    gain = 1.0 - (1.0 - ch.e_d) * absorbed
    error = ch.e_d / 2.0 + e_mis * (1.0 - absorbed)
    if gain <= 0.0:
        return 0.0, 0.5
    return gain, min(error / gain, 1.0)


def reference_counts(cfg, ch, distance, beta):
    """The (24, 3) expected counts of one point, cell by cell."""
    rows = []
    for state, basis, kind in ALL_CELLS:
        k = cfg.intensity(kind)
        gain, qber = reference_cell(state, basis, k, distance, ch, beta)
        sent = cfg.n_total * cfg.state_probability(state) * k.probability
        detected = sent * cfg.basis_probability(basis) * gain
        errors = detected * qber
        sent_i = round(sent)
        det_i = min(round(detected), sent_i)
        rows.append((sent_i, det_i, min(round(errors), det_i)))
    return np.array(rows, dtype=np.int64)


@st.composite
def channel_points(draw):
    """A block size, a channel and a few (distance, angle) points."""
    ch = ChannelParams(
        e0=draw(st.sampled_from([0.0, 0.5])),
        e_d=draw(st.sampled_from([0.0, 1.3e-7]) | st.floats(0.0, 1e-3)),
    )
    cfg = make_config(n_total=draw(st.integers(1, 2**62)))
    points = draw(
        st.lists(
            st.tuples(st.floats(0.0, 1e4), st.floats(0.0, TWO_PI, exclude_max=True)),
            min_size=1,
            max_size=6,
        )
    )
    return cfg, ch, points


def channel_tables(cfg, ch, points):
    return expected_tallies(cfg, ch, [d for d, _ in points], [b for _, b in points])


@settings(max_examples=300, deadline=None)
@given(channel_points())
def test_expected_tallies_match_the_per_cell_formula(inputs):
    cfg, ch, points = inputs
    tables = channel_tables(cfg, ch, points)
    assert len(tables) == len(points)
    for table, (distance, beta) in zip(tables, points):
        assert np.array_equal(table.counts, reference_counts(cfg, ch, distance, beta))
        for state, basis, kind in ALL_CELLS:
            k = cfg.intensity(kind)
            cell = cell_expectation(state, basis, k, distance, ch, beta=beta)
            assert (cell.gain, cell.qber) == reference_cell(state, basis, k, distance, ch, beta)


def test_zero_gain_vacuum_cell_takes_the_half_error_rate():
    cfg, ch = make_config(n_total=10**12), ChannelParams(e_d=0.0)
    vacuum = cfg.intensity(IntensityKind.OMEGA)
    cell = cell_expectation(StateLabel.X0, BasisLabel.X, vacuum, 10.0, ch)
    assert (cell.gain, cell.qber) == (0.0, 0.5)
    (table,) = channel_tables(cfg, ch, [(10.0, 0.3)])
    assert np.array_equal(table.counts, reference_counts(cfg, ch, 10.0, 0.3))


@pytest.mark.parametrize("betas", [[0.3], [0.3, 0.4], [0.3, 0.4, 0.5, 0.6]])
def test_expected_tallies_need_one_angle_per_distance(cfg, ch, betas):
    with pytest.raises(ValueError, match=f"^{len(betas)} rotation angles for 3 distances$"):
        expected_tallies(cfg, ch, [10.0, 20.0, 30.0], betas)


@st.composite
def sized_points(draw):
    """A channel and a few (distance, angle, block size) points."""
    ch = ChannelParams(beta=draw(st.floats(0.0, TWO_PI, exclude_max=True)))
    points = draw(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 50.0, 200.0]) | st.floats(0.0, 400.0),
                st.floats(0.0, TWO_PI, exclude_max=True),
                st.sampled_from([1, 10**12, 2**53 + 1, 3 * 10**18, 2**62]) | st.integers(1, 2**62),
            ),
            min_size=1,
            max_size=6,
        )
    )
    return ch, points


@settings(max_examples=200, deadline=None)
@given(sized_points())
def test_each_point_takes_its_own_block_size(inputs):
    ch, points = inputs
    cfg = make_config()
    distances, betas, sizes = (list(column) for column in zip(*points))
    tables = expected_tallies(cfg, ch, distances, betas, n_total=sizes)
    for table, (distance, beta, n) in zip(tables.counts, points):
        alone = replace(cfg, n_total=n)
        assert np.array_equal(table, expected_tallies(alone, ch, [distance], [beta]).counts[0])
        assert np.array_equal(table, reference_counts(alone, ch, distance, beta))


def test_transmittance_runs_twice_per_distinct_distance(cfg, ch, monkeypatch):
    seen = []

    def counted(distance_km, path, params):
        seen.append((distance_km, path))
        return transmittance(distance_km, path, params)

    monkeypatch.setattr(channel, "transmittance", counted)
    tables = expected_tallies(cfg, ch, [10.0, 20.0, 10.0, 10.0, 30.0, 20.0])
    assert seen == [(d, path) for d in (10.0, 20.0, 30.0) for path in BASES]
    assert np.array_equal(tables.counts[3], tables.counts[0])
