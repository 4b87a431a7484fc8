import hashlib
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    TWO_PI,
    BasisLabel,
    ChannelParams,
    IntensityKind,
    StateLabel,
    intensity_triple,
)
from rfiqkd.simulate import (
    BLOCK,
    STREAM_VERSION,
    DriftTrace,
    _Sampler,
    drift_beta,
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
    assert oracle.detected.shape == oracle.errors.shape == (len(ALL_CELLS), 3)
    for states, basis in (
        ((StateLabel.Z0, StateLabel.Z1), BasisLabel.Z),
        ((StateLabel.Y0,), BasisLabel.X),
    ):
        rows = [CELL_INDEX[(state, basis, kind)] for state in states for kind in KINDS]
        pooled = (oracle.detected[rows, 2].sum(), oracle.errors[rows, 2].sum())
        by_class = [oracle.true_counts(states, basis, n) for n in (0, 1)] + [pooled]
        assert sum(det for det, _ in by_class) == sum(obs.class_detected(states, basis))
        assert sum(err for _, err in by_class) == sum(obs.class_errors(states, basis))


def test_vacuum_intensity_emits_no_photons(ch):
    # the omega pmf is [1.0], zero-padded to the widest cap
    oracle = sample_tallies(SMALL, ch, 50.0, seed=4)
    omega = [row for row, (_, _, kind) in enumerate(ALL_CELLS) if kind is IntensityKind.OMEGA]
    assert oracle.detected.shape[1] > 1
    assert not oracle.detected[omega, 1:].any()
    assert not oracle.errors[omega, 1:].any()


def test_true_counts_rejects_a_negative_photon_number(ch):
    oracle = sample_tallies(SMALL, ch, 50.0, seed=3)
    for photons in (-1, -12):
        with pytest.raises(ValueError, match=f"photons must be >= 0, got {photons}"):
            oracle.true_counts((StateLabel.Z0, StateLabel.Z1), BasisLabel.Z, photons)


def test_true_counts_rejects_a_pooled_photon_number(ch):
    oracle = sample_tallies(SMALL, ch, 50.0, seed=3)
    for photons in (2, 3, 12):
        with pytest.raises(ValueError, match=f"photons must be 0 or 1, got {photons}: "):
            oracle.true_counts((StateLabel.Z0, StateLabel.Z1), BasisLabel.Z, photons)


def test_empty_block_draws_nothing(ch):
    sampler = _Sampler(SMALL, ch, 50.0)
    sent, outcomes, split = sampler.block((0.0, 1.0), 0, seed=1, index=0)
    for drawn in (sent, outcomes, *split()):
        assert drawn.shape[0] == 2
        assert not drawn.any()
    for n_pulses in (-1, MAX_PULSES + 1):
        with pytest.raises(ValueError, match="count budget"):
            sampler.block((0.0,), n_pulses, seed=1, index=0)


def test_block_at_the_count_budget(ch):
    # Summed as Python ints: the 24 rows in int64 hold every pair twice and
    # would wrap at 2**63.
    oracle = sample_tallies(make_config(n_total=MAX_PULSES), ch, 50.0, seed=5)
    assert sum(_pair_totals(oracle)) == MAX_PULSES
    assert oracle.observed().counts.dtype == np.int64


def test_every_photon_class_is_drawn_at_the_count_budget(ch):
    # At the count budget and 0 km every lit row detects pulses of 0, 1 and
    # >= 2 photons; the vacuum rows emit none, so they detect dark counts only.
    oracle = sample_tallies(make_config(n_total=MAX_PULSES), ch, 0.0, seed=8)
    for row, (_, _, kind) in enumerate(ALL_CELLS):
        if kind is IntensityKind.OMEGA:
            assert not oracle.detected[row, 1:].any()
        else:
            assert oracle.detected[row].all()


def test_zero_dark_counts_give_no_vacuum_detections(ch):
    # zero yield at n = 0: error probability 0, not 0/0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        oracle = sample_tallies(SMALL, replace(ch, e_d=0.0), 50.0, seed=2)
    lit = [row for row, (_, _, kind) in enumerate(ALL_CELLS) if kind is not IntensityKind.OMEGA]
    assert not oracle.detected[:, 0].any()
    assert oracle.detected[lit, 1].all()


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


def _class_laws(mu, eta, e_mis, e_d):
    """Per routed pulse, by photon class 0, 1, >= 2: the probabilities of a
    detection and of an error, untruncated. A class's photons are lost with
    probability sum of p_n (1 - eta)^n over its n, which for n >= 2 is
    exp(-mu eta) - exp(-mu) - mu exp(-mu) (1 - eta)."""
    p = [math.exp(-mu), mu * math.exp(-mu)]
    p.append(1.0 - p[0] - p[1])
    lost = [p[0], p[1] * (1.0 - eta), math.exp(-mu * eta) - p[0] - p[1] * (1.0 - eta)]
    lit = [p_c - lost_c for p_c, lost_c in zip(p, lost)]
    detected = [s + e_d * m for s, m in zip(lit, lost)]
    errors = [e_mis * s + 0.5 * e_d * m for s, m in zip(lit, lost)]
    return detected, errors


def test_photon_number_means_match_expectation(ch):
    # 100 seeds at 1e9 pulses; for the photon classes n = 0, 1 and >= 2, the
    # mean of each cell's detections and errors must sit within five standard
    # errors of N * p_pair * p_basis times the class's detection (or error)
    # probability per pulse, with no Poisson tail cut off.
    cfg = make_config(n_total=1_000_000_000)
    n_seeds, distance = 100, 50.0
    det_sum = np.zeros((len(ALL_CELLS), 3))
    err_sum = np.zeros((len(ALL_CELLS), 3))
    for seed in range(n_seeds):
        oracle = sample_tallies(cfg, ch, distance, seed)
        det_sum += oracle.detected
        err_sum += oracle.errors
    for row, (state, basis, kind) in enumerate(ALL_CELLS):
        k = cfg.intensity(kind)
        eta = transmittance(distance, basis, ch)
        e_mis = misalignment_error(state, basis, ch.beta, ch.e0)
        p_routed = (
            cfg.state_probability(state) * k.probability * cfg.basis_probability(basis)
        )
        laws = _class_laws(k.mean_photons, eta, e_mis, ch.e_d)
        for totals, per_pulse in zip((det_sum[row], err_sum[row]), laws):
            for n in range(3):
                prob = p_routed * per_pulse[n]
                mean = cfg.n_total * prob
                se = math.sqrt(cfg.n_total * prob * (1.0 - prob) / n_seeds)
                assert abs(totals[n] / n_seeds - mean) <= 5.0 * se, (row, n)


@st.composite
def block_inputs(draw):
    """A sampler, a block of angles and its pulses per slice, seed and index."""
    nu = draw(st.just(1e-9) | st.floats(1e-9, 0.5))
    cfg = make_config(intensities=intensity_triple(0.55, nu, 0.0, 0.54, 0.36, 0.10))
    ch = ChannelParams(
        e0=draw(st.sampled_from([0.0, ChannelParams().e0])),
        e_d=draw(st.sampled_from([0.0, ChannelParams().e_d])),
    )
    distance = draw(st.sampled_from([0.0, 500.0]) | st.floats(0.0, 500.0))
    betas = draw(st.lists(st.floats(0.0, TWO_PI, exclude_max=True), min_size=1, max_size=4))
    n_pulses = draw(st.sampled_from([0, 1, MAX_PULSES]) | st.integers(0, MAX_PULSES))
    seed, index = draw(st.integers(0, 2**64 - 1)), draw(st.integers(0, 100))
    return cfg, _Sampler(cfg, ch, distance), betas, n_pulses, seed, index


@settings(max_examples=40, deadline=None)
@given(block_inputs())
def test_block_counts_are_consistent(inputs):
    cfg, sampler, betas, n_pulses, seed, index = inputs
    # numpy's warnings raise; underflow, silent by default (a subnormal angle), stays so
    with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
        warnings.simplefilter("error")
        sent, _, split = sampler.block(betas, n_pulses, seed, index)
        detected, errors = split()
    b = len(betas)
    assert sent.shape == (b, len(ALL_CELLS))
    assert detected.shape == errors.shape == (b, len(ALL_CELLS), 3)
    assert (0 <= errors).all() and (errors <= detected).all()
    # the routed groups: the block generator's first two draws, replayed
    rng = np.random.default_rng((seed, index, STREAM_VERSION))
    pairs = rng.multinomial(n_pulses, sampler.pair_probs, size=b).reshape(b, len(STATES), 1, -1)
    routed_z = rng.binomial(pairs, cfg.p_z_bob)
    routed = np.concatenate((routed_z, pairs - routed_z), axis=2).reshape(b, -1)
    assert (detected.sum(axis=2) <= routed).all()
    by_pair = sent.reshape(b, len(STATES), len(BASES), len(KINDS))
    assert (by_pair[:, :, 0] == by_pair[:, :, 1]).all()
    assert by_pair[:, :, 0].sum(axis=(1, 2)).tolist() == [n_pulses] * b


@settings(max_examples=40, deadline=None)
@given(block_inputs())
def test_the_class_split_of_an_empty_outcome_is_zero(inputs):
    # Step 3b where a group has no errors or no correct detections: none drawn,
    # or none possible (e_d = 0 with e0 = 0, or the vacuum intensity). Its
    # class probabilities are 0/0 there, so they must not reach the draw.
    _, sampler, betas, _, seed, index = inputs
    for n_pulses in (0, 1, MAX_PULSES):
        with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
            warnings.simplefilter("error")
            _, outcomes, split = sampler.block(betas, n_pulses, seed, index)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            detected, errors = split()
        correct = detected - errors
        assert (errors.sum(axis=2) == outcomes[:, :, 0]).all()
        assert (correct.sum(axis=2) == outcomes[:, :, 1]).all()
        assert not errors[outcomes[:, :, 0] == 0].any()
        assert not correct[outcomes[:, :, 1] == 0].any()


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
    assert sliced.counts.tolist() == [plain.counts.tolist()]


# sha256 of the little-endian int64 sent, detected and errors of
# sample_tallies at 1e8 pulses, over distance x angle x seed in the loop order
# of _stream_digest, and of the counts of the drifting batch of _drift_digest,
# by stream version. A change to the draws bumps simulate.STREAM_VERSION and
# records the new version's digests, printed by
#   PYTHONPATH=src:tests python -c "import test_simulate as t; print(t._stream_digest())"
#   PYTHONPATH=src:tests python -c "import test_simulate as t; print(t._drift_digest())"
STREAM_DIGESTS = {
    4: "411899fa66065a73bee300c6f6cbd3f7a4474866f0d3c7f8fe1f600897bd9705",
    5: "9824ba5f925f177b056cae100b5b567fe32825382ca03f72ff94c294a4d4a102",
}
DRIFT_DIGESTS = {
    4: "728ee3a9c0aba392b44b836fde71a0c00337da1d7d35b2f752a6cbbce64ecf6e",
    5: "cdc24c1db081d6824d1cd81b08bc0434c2f0ebbd00d5ce546ea499995d6ad183",
}


def _stream_digest():
    digest, ch = hashlib.sha256(), ChannelParams()
    for distance in (50.0, 200.0):
        for beta in (0.0, math.pi / 4, math.pi, 5 * math.pi / 4):
            for seed in range(10):
                oracle = sample_tallies(SMALL, replace(ch, beta=beta), distance, seed)
                for drawn in (oracle.sent, oracle.detected, oracle.errors):
                    digest.update(drawn.astype("<i8").tobytes())
    return digest.hexdigest()


def _drift_digest():
    """Of a sinusoidal trace of 2 * BLOCK + 3 slices: two full blocks and a ragged one."""
    n_slices = 2 * BLOCK + 3
    trace = drift_beta(
        "sinusoidal", {"beta0": 0.3, "amplitude": math.pi, "period": 0.4}, n_slices,
        pulses_per_slice=10**9,
    )
    cfg = make_config(n_total=trace.n_total)
    counts = sample_drifting_tallies(cfg, ChannelParams(), 50.0, trace, seed=17).counts
    return hashlib.sha256(counts.astype("<i8").tobytes()).hexdigest()


def test_single_slice_draws_match_the_stream_digest():
    assert STREAM_VERSION in STREAM_DIGESTS
    assert _stream_digest() == STREAM_DIGESTS[STREAM_VERSION]


def test_drift_draws_match_the_stream_digest():
    assert STREAM_VERSION in DRIFT_DIGESTS
    assert _drift_digest() == DRIFT_DIGESTS[STREAM_VERSION]


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
    summed = sample_drifting_tallies(cfg, ch, 50.0, trace, seed=21).counts.sum(axis=0)
    expected = expected_tallies(cfg, ch, [50.0])[0]
    for key in ALL_CELLS:
        mean = expected.counts[CELL_INDEX[key], 1]
        sigma = math.sqrt(max(mean, 1.0))
        assert abs(summed[CELL_INDEX[key], 1] - mean) <= 5 * sigma + 1.0


def test_blocks_of_a_fixed_trace_are_fresh_draws(ch):
    # The same angle in every slice: the second block is not a copy of the first.
    trace = drift_beta("fixed", {"beta0": 0.0}, 2 * BLOCK, pulses_per_slice=1_000_000)
    cfg = make_config(n_total=trace.n_total)
    counts = sample_drifting_tallies(cfg, ch, 50.0, trace, seed=21).counts
    assert not np.array_equal(counts[:BLOCK], counts[BLOCK:])


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
    setting = decoy.setting(cfg.intensities, sec.eps_bar)
    failures = 0
    trials = 0
    for seed in range(30):
        oracle = sample_tallies(cfg, ch, 50.0, seed)
        obs = oracle.observed()
        for states, basis in classes:
            det = obs.class_detected(states, basis)
            err = obs.class_errors(states, basis)
            chain = decoy.class_bounds([det], [err], setting)
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
    # Each block of BLOCK slices has its own generator: blocks sampled in
    # reverse order reproduce the in-order batch exactly, the ragged last
    # block of three slices included.
    n_slices = 2 * BLOCK + 3
    cfg = make_config(n_total=n_slices * 1_000_000)
    trace = drift_beta(
        "linear", {"beta0": 0.0, "rate": 2 * math.pi}, n_slices,
        pulses_per_slice=cfg.n_total // n_slices,
    )
    in_order = sample_drifting_tallies(cfg, ch, 40.0, trace, 5).counts
    sampler = _Sampler(cfg, ch, 40.0)
    reversed_result = np.empty_like(in_order)
    for index in reversed(range(3)):
        part = slice(index * BLOCK, (index + 1) * BLOCK)
        sent, outcomes, _ = sampler.block(trace.betas[part], trace.pulses_per_slice, 5, index)
        errors = outcomes[:, :, 0]
        reversed_result[part] = np.stack((sent, errors + outcomes[:, :, 1], errors), axis=2)
    assert len(reversed_result[2 * BLOCK :]) == 3
    assert np.array_equal(reversed_result, in_order)
