import math

import mpmath
import pytest

from rfiqkd import SecurityParams
from rfiqkd.channel import expected_tallies
from rfiqkd.core import (
    ALL_CELLS,
    BasisLabel,
    CellCount,
    IntensityKind,
    ObservedTallies,
    StateLabel,
    TallyError,
)
from rfiqkd.keyrate import (
    DriftClassifier,
    analyze_tallies,
    group_and_extract,
    group_slices,
    key_length,
)
from rfiqkd.security import binary_entropy, ie_4state
from rfiqkd.simulate import drift_beta, sample_drifting_tallies

from conftest import make_config

TWO_PI = 2 * math.pi


def test_binary_entropy_limits():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0)


def test_binary_entropy_high_precision_point():
    mpmath.mp.dps = 40
    p = mpmath.mpf("0.11")
    oracle = float(-p * mpmath.log(p, 2) - (1 - p) * mpmath.log(1 - p, 2))
    assert binary_entropy(0.11) == pytest.approx(oracle, abs=1e-12)
    assert binary_entropy(0.11) == pytest.approx(0.4999, abs=1e-3)


def test_binary_entropy_rejects_out_of_range():
    with pytest.raises(ValueError):
        binary_entropy(-0.1)
    with pytest.raises(ValueError):
        binary_entropy(1.1)


def test_key_length_all_zero_clamps(sec):
    kl = key_length(0.0, 0.0, 0.5, 0.0, 0.0, sec, 10**12)
    assert kl.length == 0.0
    assert kl.negative  # constant terms push the raw value below zero


def test_key_length_full_leak_drops_single_photon_term(sec):
    base = key_length(1000.0, 5e6, 1.0, 1e7, 0.01, sec, 10**12)
    manual = key_length(1000.0, 0.0, 0.37, 1e7, 0.01, sec, 10**12)
    assert base.raw == pytest.approx(manual.raw)


def test_key_length_reported_operating_point(cfg, ch, sec):
    # Reported block: single-photon bound 3.3e7, statistic 0.6503, key-basis
    # error 0.77 percent, 3e12 pulses; vacuum bound and sifted-key size come
    # from the analytic channel model at 200 km. The reported rate is
    # 3.04e-6; the model reproduces it within a factor of three.
    report = analyze_tallies(expected_tallies(cfg, ch, [200.0])[0], cfg, sec)
    kl = key_length(
        report.s0_zz_lower,
        3.3e7,
        ie_4state(0.6503),
        report.n_zz,
        0.0077,
        sec,
        cfg.n_total,
    )
    rate = kl.length / cfg.n_total
    assert 3.04e-6 / 3 <= rate <= 3.04e-6 * 3


def test_key_length_monotonicity(sec):
    base = key_length(1e4, 5e6, 0.4, 1e7, 0.01, sec, 10**12)
    assert key_length(2e4, 5e6, 0.4, 1e7, 0.01, sec, 10**12).raw > base.raw
    assert key_length(1e4, 6e6, 0.4, 1e7, 0.01, sec, 10**12).raw > base.raw
    assert key_length(1e4, 5e6, 0.5, 1e7, 0.01, sec, 10**12).raw < base.raw
    assert key_length(1e4, 5e6, 0.4, 1e7, 0.02, sec, 10**12).raw < base.raw


def test_key_length_penalty_free_variant_dominates(cfg, ch, sec):
    tallies = expected_tallies(cfg, ch, [150.0])[0]
    finite = analyze_tallies(tallies, cfg, sec)
    asym = analyze_tallies(tallies, cfg, sec, asymptotic=True)
    assert finite.key_length < asym.key_length


def _angle_error(rho, beta):
    """Distance between two angles on the circle."""
    return abs((rho - beta + math.pi) % TWO_PI - math.pi)


def test_rho_recovers_beta_over_a_sweep(ch):
    # Analytic slices of 3e9 pulses over a 64-point sweep: the count-only
    # estimate recovers every true angle at 50 and at 200 km, although it
    # never sees the distance or the channel.
    cfg = make_config(n_total=3 * 10**9)
    classify = DriftClassifier().classify
    for distance in (50.0, 200.0):
        for i in range(64):
            beta = TWO_PI * i / 64
            res = classify(expected_tallies(cfg, ch, [distance], [beta])[0])
            assert not res.degenerate
            assert 0.0 <= res.rho < TWO_PI
            assert _angle_error(res.rho, beta) <= 0.05, (distance, beta, res.rho)


def test_rho_tracks_drift_trace_ground_truth(ch):
    # Monte Carlo slices of a linear sweep, 2e8 pulses each: every slice's
    # angle lies within 0.05 rad of the trace's true angle.
    cfg = make_config(n_total=48 * 2 * 10**8)
    trace = drift_beta(
        "linear", {"beta0": 0.0, "rate": TWO_PI}, 48,
        pulses_per_slice=cfg.n_total // 48,
    )
    classify = DriftClassifier().classify
    for seed in (17, 18, 19):
        for oracle, beta in zip(sample_drifting_tallies(cfg, ch, 50.0, trace, seed), trace.betas):
            res = classify(oracle.observed())
            assert not res.degenerate
            assert _angle_error(res.rho, beta) <= 0.05, (seed, beta, res.rho)


def _analytic_slices(cfg, ch, distance, betas):
    from dataclasses import replace

    per_slice = replace(cfg, n_total=cfg.n_total // len(betas))
    return expected_tallies(per_slice, ch, [distance] * len(betas), betas)


def test_group_single_group_matches_ungrouped(ch, sec):
    cfg = make_config(n_total=10**10)
    slices = _analytic_slices(cfg, ch, 50.0, [0.3] * 5)
    result = group_and_extract(slices, 1, cfg, sec)
    merged = slices[0]
    for extra in slices[1:]:
        merged = merged + extra
    direct = analyze_tallies(merged, cfg, sec)
    assert result.key_length == direct.key_length
    assert len(result.outcomes) == 1


def test_grouping_conserves_counts(ch, sec):
    cfg = make_config(n_total=12 * 10**8)
    betas = [TWO_PI * i / 12 for i in range(12)]
    slices = _analytic_slices(cfg, ch, 50.0, betas)
    grouped = group_slices(slices, 6)
    total = grouped.total_tallies()
    merged = slices[0]
    for extra in slices[1:]:
        merged = merged + extra
    assert total == merged


def test_constant_angle_splitting_never_gains(ch, sec):
    cfg = make_config(n_total=10**10)
    slices = _analytic_slices(cfg, ch, 50.0, [0.0] * 6)
    grouped = group_and_extract(slices, 6, cfg, sec)
    ungrouped = group_and_extract(slices, 1, cfg, sec)
    assert grouped.key_length <= ungrouped.key_length + 1e-9


def test_empty_groups_are_diagnosed(ch, sec):
    cfg = make_config(n_total=10**10)
    slices = _analytic_slices(cfg, ch, 50.0, [0.0] * 4)
    result = group_and_extract(slices, 6, cfg, sec)
    diags = [o.diagnostic for o in result.outcomes if o.diagnostic]
    assert "empty group" in diags


def test_insufficient_counts_diagnosed(sec, ch):
    # A tiny block leaves decoy-intensity cells empty in some groups.
    from rfiqkd.core import zero_tallies

    cfg = make_config(n_total=10**4)
    result = group_and_extract([zero_tallies()], 1, cfg, sec)
    assert result.key_length == 0.0
    assert result.outcomes[0].diagnostic is not None


def test_analyze_report_identities(cfg, ch, sec):
    report = analyze_tallies(expected_tallies(cfg, ch, [120.0])[0], cfg, sec)
    assert report.key_rate == report.key_length / cfg.n_total
    assert report.key_length >= 0.0
    assert 0.0 <= report.c44_lower <= 1.0
    assert set(["c1_lower", "c1_upper", "c2_lower", "c2_upper"]) <= set(report.intermediate)


def test_analyze_rate_strictly_decreasing_until_zero(cfg, ch, sec):
    rates = [
        analyze_tallies(expected_tallies(cfg, ch, [d])[0], cfg, sec).key_rate
        for d in range(0, 260, 20)
    ]
    positive = [r for r in rates if r > 0.0]
    assert all(a > b for a, b in zip(positive, positive[1:]))


def test_n_zz_intensity_switch(cfg, ch, sec):
    tallies = expected_tallies(cfg, ch, [100.0])[0]
    every = analyze_tallies(tallies, cfg, sec, n_zz_all_intensities=True)
    signal_only = analyze_tallies(tallies, cfg, sec, n_zz_all_intensities=False)
    assert signal_only.n_zz < every.n_zz


def test_literal_formula_mode_signals_nonphysical(cfg, ch, sec):
    from rfiqkd.decoy import NonPhysicalEstimateError

    with pytest.raises(NonPhysicalEstimateError):
        analyze_tallies(expected_tallies(cfg, ch, [100.0])[0], cfg, sec,
                        literal_paper_formulas=True)


def _uniform_tallies(count):
    return ObservedTallies({key: CellCount(count, count, count) for key in ALL_CELLS})


@pytest.mark.parametrize(
    "counts",
    [[2**61 + 1] * 3, [2**62] * 4, [2**61, 2**61 + 1]],  # 4 * 2**62 wraps to 0 in int64
)
def test_grouping_beyond_the_budget_names_the_group(counts):
    with pytest.raises(TallyError) as info:
        group_slices([_uniform_tallies(n) for n in counts], 1)
    assert str(info.value) == (
        f"group 0: cell (Z0,Z,mu): summed sent={sum(counts)} "
        f"exceeds the 64-bit count budget {2**62}"
    )


def test_grouping_up_to_the_budget_is_exact():
    (bucket,) = group_slices([_uniform_tallies(2**61)] * 2, 1).buckets
    assert bucket.tallies == _uniform_tallies(2**62)
    assert bucket.n_pulses == 12 * 2**62


def test_overflow_group_beyond_the_budget():
    # no X0 or Y0 signal detections in X: every slice is degenerate and
    # lands in overflow
    cells = {key: CellCount(2**61 + 1, 1, 0) for key in ALL_CELLS}
    for state in (StateLabel.X0, StateLabel.Y0):
        cells[(state, BasisLabel.X, IntensityKind.MU)] = CellCount(2**61 + 1, 0, 0)
    big = ObservedTallies(cells)
    assert DriftClassifier().classify(big).degenerate
    with pytest.raises(TallyError, match=r"^group overflow: cell \(Z0,Z,mu\)"):
        group_slices([big] * 3, 6)
