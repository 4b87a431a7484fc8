import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from rfiqkd.channel import (
    cell_expectation,
    expected_tallies,
    misalignment_error,
    transmittance,
)
from rfiqkd.core import (
    ALL_CELLS,
    BASES,
    CELL_INDEX,
    KINDS,
    MAX_PULSES,
    STATES,
    BasisLabel,
    IntensityKind,
    StateLabel,
    intensity_triple,
)
from rfiqkd.simulate import (
    DriftTrace,
    _sample_block,
    drift_beta,
    poisson_pmf_capped,
    sample_drifting_tallies,
    sample_tallies,
)

from conftest import make_config

SMALL = make_config(n_total=100_000_000)


def _pair_totals(oracle):
    """``sent`` of each (state, intensity) pair, read from its Z row."""
    return oracle.sent.reshape(len(STATES), len(BASES), len(KINDS))[:, 0].ravel().tolist()


def test_sampling_deterministic(ch):
    a = sample_tallies(SMALL, ch, 50.0, seed=11)
    b = sample_tallies(SMALL, ch, 50.0, seed=11)
    assert a.observed() == b.observed()
    assert np.array_equal(a.detected, b.detected)
    assert np.array_equal(a.errors, b.errors)
    c = sample_tallies(SMALL, ch, 50.0, seed=12)
    assert a.observed() != c.observed()


def test_cell_inequalities_hold_for_every_seed(ch):
    for seed in range(5):
        oracle = sample_tallies(SMALL, ch, 30.0, seed)
        for sent, detected, errors in oracle.observed().counts.tolist():
            assert 0 <= errors <= detected <= sent
        # per photon number too, and Z and X rows of a pair share their sent
        assert (0 <= oracle.errors).all()
        assert (oracle.errors <= oracle.detected).all()
        sent = oracle.sent.reshape(len(STATES), len(BASES), len(KINDS))
        assert (sent[:, 0] == sent[:, 1]).all()
        assert sum(_pair_totals(oracle)) == SMALL.n_total


def test_photon_partitions_sum_to_cell_totals(ch):
    oracle = sample_tallies(SMALL, ch, 50.0, seed=3)
    obs = oracle.observed()
    assert obs.counts[:, 0].tolist() == oracle.sent.tolist()
    assert obs.counts[:, 1].tolist() == oracle.detected.sum(axis=1).tolist()
    assert obs.counts[:, 2].tolist() == oracle.errors.sum(axis=1).tolist()
    width = oracle.detected.shape[1]
    for states, basis in (
        ((StateLabel.Z0, StateLabel.Z1), BasisLabel.Z),
        ((StateLabel.Y0,), BasisLabel.X),
    ):
        by_photons = [oracle.true_counts(states, basis, n) for n in range(width + 1)]
        assert by_photons[width] == (0, 0)
        assert sum(det for det, _ in by_photons) == sum(obs.class_detected(states, basis))
        assert sum(err for _, err in by_photons) == sum(obs.class_errors(states, basis))


def test_vacuum_intensity_emits_no_photons(ch):
    # the omega pmf is [1.0], zero-padded to the widest cap
    oracle = sample_tallies(SMALL, ch, 50.0, seed=4)
    omega = [row for row, (_, _, kind) in enumerate(ALL_CELLS) if kind is IntensityKind.OMEGA]
    assert oracle.detected.shape[1] > 1
    assert not oracle.detected[omega, 1:].any()
    assert not oracle.errors[omega, 1:].any()


def test_empty_block_draws_nothing(ch):
    oracle = _sample_block(SMALL, ch, 50.0, 0.0, 0, seed=1, slice_index=0)
    assert not oracle.observed().counts.any()
    with pytest.raises(ValueError, match="count budget"):
        _sample_block(SMALL, ch, 50.0, 0.0, -1, seed=1, slice_index=0)


def test_block_at_the_count_budget(ch):
    # Summed as Python ints: the 24 rows in int64 hold every pair twice and
    # would wrap at 2**63.
    oracle = sample_tallies(make_config(n_total=MAX_PULSES), ch, 50.0, seed=5)
    assert sum(_pair_totals(oracle)) == MAX_PULSES
    assert oracle.observed().counts.dtype == np.int64


def test_photon_counts_stop_at_each_class_cap(ch):
    # At the count budget and 0 km the pmf tails are sampled and detected;
    # nu = 0.2 has a shorter cap than mu, and nothing may land past it.
    cfg = make_config(
        n_total=MAX_PULSES, intensities=intensity_triple(0.55, 0.2, 0.0, 0.54, 0.36, 0.10)
    )
    oracle = sample_tallies(cfg, ch, 0.0, seed=8)
    caps = {k: len(poisson_pmf_capped(cfg.intensity(k).mean_photons)) - 1 for k in KINDS}
    assert caps[IntensityKind.NU] < caps[IntensityKind.MU] == oracle.detected.shape[1] - 1
    for row, (_, _, kind) in enumerate(ALL_CELLS):
        assert oracle.detected[row, caps[kind]] > 0
        assert not oracle.detected[row, caps[kind] + 1 :].any()


def test_zero_dark_counts_give_no_vacuum_detections(ch):
    # zero yield at n = 0: error probability 0, not 0/0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        oracle = sample_tallies(SMALL, replace(ch, e_d=0.0), 50.0, seed=2)
    lit = [row for row, (_, _, kind) in enumerate(ALL_CELLS) if kind is not IntensityKind.OMEGA]
    assert not oracle.detected[:, 0].any()
    assert oracle.detected[lit, 1].all()


def test_poisson_cap_tail():
    pmf = poisson_pmf_capped(0.55)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-15)
    # cap is the first index whose untruncated tail mass drops below 1e-12
    assert len(pmf) < 25
    assert poisson_pmf_capped(0.0).tolist() == [1.0]


def test_sample_mean_matches_expectation(ch):
    # 100 seeds at 1e8 pulses; each cell's mean detection count must sit
    # within five standard errors of the analytic expectation.
    cfg = SMALL
    n_seeds = 100
    sums = {key: 0.0 for key in ALL_CELLS}
    esums = {key: 0.0 for key in ALL_CELLS}
    for seed in range(n_seeds):
        obs = sample_tallies(cfg, ch, 50.0, seed).observed()
        for key, (_, detected, errors) in zip(ALL_CELLS, obs.counts.tolist()):
            sums[key] += detected
            esums[key] += errors
    for key in ALL_CELLS:
        state, basis, kind = key
        k = cfg.intensity(kind)
        exp_cell = cell_expectation(state, basis, k, 50.0, ch)
        p_cell = (
            cfg.state_probability(state)
            * k.probability
            * cfg.basis_probability(basis)
            * exp_cell.gain
        )
        mean_n = cfg.n_total * p_cell
        se_n = math.sqrt(cfg.n_total * p_cell * (1 - p_cell) / n_seeds)
        assert abs(sums[key] / n_seeds - mean_n) <= 5 * se_n + 1.0
        p_err = p_cell * exp_cell.qber
        mean_m = cfg.n_total * p_err
        se_m = math.sqrt(cfg.n_total * p_err * (1 - p_err) / n_seeds)
        assert abs(esums[key] / n_seeds - mean_m) <= 5 * se_m + 1.0


def test_photon_number_means_match_expectation(ch):
    # 100 seeds at 1e9 pulses; for n <= 3 photons, the mean of each cell's
    # detections and errors must sit within five standard errors of
    # N * p_pair * p_basis * pmf[n] * Y_n (errors: the erroneous part of Y_n).
    cfg = make_config(n_total=1_000_000_000)
    n_seeds, distance = 100, 50.0
    det_sum = np.zeros((len(ALL_CELLS), 4))
    err_sum = np.zeros((len(ALL_CELLS), 4))
    for seed in range(n_seeds):
        oracle = sample_tallies(cfg, ch, distance, seed)
        det_sum += oracle.detected[:, :4]
        err_sum += oracle.errors[:, :4]
    for row, (state, basis, kind) in enumerate(ALL_CELLS):
        k = cfg.intensity(kind)
        eta = transmittance(distance, basis, ch)
        e_mis = misalignment_error(state, basis, ch.beta, ch.e0)
        p_routed = (
            cfg.state_probability(state) * k.probability * cfg.basis_probability(basis)
        )
        for n in range(4):
            pmf = math.exp(-k.mean_photons) * k.mean_photons**n / math.factorial(n)
            survive = 1.0 - (1.0 - eta) ** n
            y_n = survive + ch.e_d * (1.0 - survive)
            e_n = e_mis * survive + 0.5 * ch.e_d * (1.0 - survive)
            for total, per_photon in ((det_sum[row, n], y_n), (err_sum[row, n], e_n)):
                prob = p_routed * pmf * per_photon
                mean = cfg.n_total * prob
                se = math.sqrt(cfg.n_total * prob * (1.0 - prob) / n_seeds)
                assert abs(total / n_seeds - mean) <= 5.0 * se, (row, n)


def test_block_size_overflow_rejected(ch):
    cfg = make_config(n_total=2**63)
    with pytest.raises(ValueError, match="count budget"):
        sample_tallies(cfg, ch, 10.0, seed=0)


def test_drift_fixed():
    trace = drift_beta("fixed", {"beta0": 0.3}, 10, pulses_per_slice=100)
    assert trace.betas == tuple([0.3] * 10)
    assert trace.n_total == 1000


def test_drift_linear_full_turn():
    trace = drift_beta("linear", {"beta0": 0.0, "rate": 2 * math.pi}, 8, pulses_per_slice=1)
    expected = [2 * math.pi * i / 8 for i in range(8)]
    assert trace.betas == pytest.approx(expected)


def test_drift_sinusoidal_wraps_into_range():
    trace = drift_beta(
        "sinusoidal", {"beta0": 6.2, "amplitude": math.pi / 4, "period": 0.5}, 64,
        pulses_per_slice=1,
    )
    assert all(0.0 <= b < 2 * math.pi for b in trace.betas)


def test_drift_unknown_model_rejected():
    with pytest.raises(ValueError, match="drift model"):
        drift_beta("randomwalk", {}, 4)


def test_single_slice_trace_equals_plain_sampling(ch):
    cfg = SMALL
    trace = DriftTrace((ch.beta,), cfg.n_total)
    sliced = sample_drifting_tallies(cfg, ch, 50.0, trace, seed=9)
    plain = sample_tallies(cfg, ch, 50.0, seed=9)
    assert len(sliced) == 1
    assert sliced[0].observed() == plain.observed()


def test_trace_must_cover_the_block(ch):
    trace = DriftTrace((0.0, 0.1), 10)
    with pytest.raises(ValueError, match="covers"):
        sample_drifting_tallies(SMALL, ch, 50.0, trace, seed=0)


def test_constant_trace_sums_match_one_shot_statistics(ch):
    # Slicing only redistributes the sampling; summed counts must agree with
    # a single-block run within five binomial standard deviations.
    cfg = make_config(n_total=100_000_000)
    n_slices = 4
    trace = drift_beta(
        "fixed", {"beta0": 0.0}, n_slices, pulses_per_slice=cfg.n_total // n_slices
    )
    slices = sample_drifting_tallies(cfg, ch, 50.0, trace, seed=21)
    summed = slices[0].observed()
    for extra in slices[1:]:
        summed = summed + extra.observed()
    expected = expected_tallies(cfg, ch, [50.0])[0]
    for key in ALL_CELLS:
        state, basis, kind = key
        mean = expected.counts[CELL_INDEX[key], 1]
        sigma = math.sqrt(max(mean, 1.0))
        assert abs(summed.counts[CELL_INDEX[key], 1] - mean) <= 5 * sigma + 1.0


def test_conservative_decoy_directions_cover_truth(ch, sec):
    # The one-sided guarantees: vacuum bounds bracket the truth, the
    # single-photon lower bound stays below it and the error-count upper
    # bound stays above it. 30 seeds, every event class.
    from rfiqkd import decoy

    cfg = make_config(n_total=1_000_000_000)
    classes = [
        ((StateLabel.Z0, StateLabel.Z1), BasisLabel.Z),
        ((StateLabel.Z0,), BasisLabel.X),
        ((StateLabel.Z1,), BasisLabel.X),
        ((StateLabel.X0,), BasisLabel.X),
        ((StateLabel.Y0,), BasisLabel.X),
    ]
    failures = 0
    trials = 0
    for seed in range(30):
        oracle = sample_tallies(cfg, ch, 50.0, seed)
        obs = oracle.observed()
        for states, basis in classes:
            det = obs.class_detected(states, basis)
            err = obs.class_errors(states, basis)
            chain = decoy.class_bounds(det, err, cfg.intensities, sec.eps_bar)
            s0, s1, t = chain.s0, chain.s1, chain.t
            true_s0, _ = oracle.true_counts(states, basis, 0)
            true_s1, true_t = oracle.true_counts(states, basis, 1)
            checks = (
                s0.lower <= true_s0 <= s0.upper,
                s1.lower <= true_s1,
                true_t <= t.upper,
            )
            trials += len(checks)
            failures += sum(not ok for ok in checks)
    assert failures == 0, f"{failures}/{trials} conservative-direction violations"


def test_parallel_view_of_streams_is_order_independent(ch):
    # Sampling slices out of order reproduces the in-order result exactly.
    cfg = make_config(n_total=8_000_000)
    trace = drift_beta(
        "linear", {"beta0": 0.0, "rate": 2 * math.pi}, 4,
        pulses_per_slice=cfg.n_total // 4,
    )
    in_order = [t.observed() for t in sample_drifting_tallies(cfg, ch, 40.0, trace, 5)]

    from rfiqkd.simulate import _sample_block

    reversed_result = {
        i: _sample_block(cfg, ch, 40.0, trace.betas[i], trace.pulses_per_slice, 5, i)
        for i in reversed(range(4))
    }
    for i in range(4):
        assert reversed_result[i].observed() == in_order[i]
