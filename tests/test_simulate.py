import math

import numpy as np
import pytest

from rfiqkd.channel import cell_expectation, expected_tallies
from rfiqkd.core import ALL_CELLS, BasisLabel, IntensityKind, StateLabel
from rfiqkd.simulate import (
    DriftTrace,
    drift_beta,
    poisson_pmf_capped,
    sample_drifting_tallies,
    sample_tallies,
)

from conftest import make_config

SMALL = make_config(n_total=100_000_000)


def test_sampling_deterministic(ch):
    a = sample_tallies(SMALL, ch, 50.0, seed=11)
    b = sample_tallies(SMALL, ch, 50.0, seed=11)
    assert a.observed() == b.observed()
    assert dict(a.cells) == dict(b.cells)
    c = sample_tallies(SMALL, ch, 50.0, seed=12)
    assert a.observed() != c.observed()


def test_cell_inequalities_hold_for_every_seed(ch):
    for seed in range(5):
        tallies = sample_tallies(SMALL, ch, 30.0, seed).observed()
        for cc in tallies.cells.values():
            assert 0 <= cc.errors <= cc.detected <= cc.sent


def test_photon_partitions_sum_to_cell_totals(ch):
    oracle = sample_tallies(SMALL, ch, 50.0, seed=3)
    obs = oracle.observed()
    for key, cell in oracle.cells.items():
        assert sum(cell.detected_by_photons) == obs.cells[key].detected
        assert sum(cell.errors_by_photons) == obs.cells[key].errors


def test_vacuum_intensity_emits_no_photons(ch):
    oracle = sample_tallies(SMALL, ch, 50.0, seed=4)
    for (state, basis, kind), cell in oracle.cells.items():
        if kind is IntensityKind.OMEGA:
            assert all(v == 0 for v in cell.detected_by_photons[1:])


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
        for key, cc in obs.cells.items():
            sums[key] += cc.detected
            esums[key] += cc.errors
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
    expected = expected_tallies(cfg, ch, 50.0)
    for key in ALL_CELLS:
        state, basis, kind = key
        mean = expected.cells[key].detected
        sigma = math.sqrt(max(mean, 1.0))
        assert abs(summed.cells[key].detected - mean) <= 5 * sigma + 1.0


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
            s0 = decoy.vacuum_bound(det, cfg.intensities, sec.eps_bar)
            s1 = decoy.single_photon_bound(det, s0, cfg.intensities, sec.eps_bar)
            t = decoy.error_count_bound(err, cfg.intensities, sec.eps_bar)
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
