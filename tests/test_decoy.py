import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfiqkd import decoy, intensity_triple
from rfiqkd.baselines import run_six_four, run_six_state
from rfiqkd.channel import expected_tallies
from rfiqkd.core import BasisLabel, StateLabel
from rfiqkd.decoy import (
    BoundedCount,
    DecoyPreconditionError,
    error_count_bound,
    fluctuation_deltas,
    fluctuation_interval,
    single_photon_bound,
    single_photon_error_rate,
    tau,
    vacuum_bound,
)
from rfiqkd.keyrate import analyze_tallies

TABLE = intensity_triple(0.55, 0.28, 0.0, 0.54, 0.36, 0.10)
EPS = 1e-10
SETTING = decoy.setting(TABLE, EPS)


def intervals(counts, eps=EPS):
    """One fluctuation interval per observed count."""
    return tuple(fluctuation_interval(count, decoy.setting(TABLE, eps)) for count in counts)


def test_tau0_baseline_intensities():
    # 0.54*exp(-0.55) + 0.36*exp(-0.28) + 0.10
    assert tau(0, TABLE) == pytest.approx(0.683635044530, abs=1e-12)


def test_tau_pure_vacuum_source():
    pure = intensity_triple(0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
    assert tau(0, pure) == pytest.approx(1.0)
    assert tau(1, pure) == 0.0


def test_tau_normalized_to_poisson_cap():
    total = sum(tau(n, TABLE) for n in range(40))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_fluctuation_deltas_at_zero():
    b = math.log(1.0 / EPS)
    d_lo, d_up = fluctuation_deltas(0.0, SETTING)
    assert d_lo == pytest.approx(b)
    assert d_up == pytest.approx(2 * b)


def test_fluctuation_deltas_at_1e6():
    d_lo, d_up = fluctuation_deltas(1e6, SETTING)
    assert d_lo == pytest.approx(6797.66311591, abs=1e-2)
    assert d_up == pytest.approx(6809.20533940, abs=1e-2)


def test_fluctuation_interval_shape():
    iv = fluctuation_interval(1000.0, SETTING)
    assert iv.lower < iv.point == 1000.0 < iv.upper
    small = fluctuation_interval(1.0, SETTING)
    assert small.lower == 0.0 and small.clamped


def test_fluctuation_interval_literal_upper_is_vacuous():
    iv = fluctuation_interval(1000.0, decoy.setting(TABLE, EPS, literal_upper=True))
    assert iv.upper < iv.point


def test_fluctuation_disabled_collapses_to_point():
    iv = fluctuation_interval(1234.0, decoy.setting(TABLE, None))
    assert iv.lower == iv.point == iv.upper == 1234.0


def test_fluctuation_monotone_in_eps():
    # Weaker confidence (bigger eps) must never widen the interval.
    widths = []
    for eps in (1e-12, 1e-9, 1e-6, 1e-3, 1e-1):
        iv = fluctuation_interval(5e4, decoy.setting(TABLE, eps))
        widths.append(iv.upper - iv.lower)
    assert all(a >= b for a, b in zip(widths, widths[1:]))


def test_fluctuation_coverage_binomial():
    # Empirical coverage against the known mean of Binomial(1e5, 0.3).
    rng = np.random.default_rng(7)
    draws = rng.binomial(100_000, 0.3, size=10_000)
    mean = 30_000.0
    misses = 0
    for x in draws:
        iv = fluctuation_interval(float(x), decoy.setting(TABLE, 1e-3))
        if not iv.lower <= mean <= iv.upper:
            misses += 1
    assert misses <= 20  # 99.8 percent coverage


def test_vacuum_bound_omega_zero_collapse():
    # With a true vacuum setting the bound reduces to tau0 * n_omega / p_omega.
    counts = (5000.0, 2000.0, 100.0)
    res = vacuum_bound(intervals(counts), SETTING)
    t0 = tau(0, TABLE)
    lo_expected = t0 * fluctuation_interval(100.0, SETTING).lower / 0.10
    up_expected = t0 * fluctuation_interval(100.0, SETTING).upper / 0.10
    assert res.lower == pytest.approx(lo_expected)
    assert res.upper == pytest.approx(up_expected)
    assert res.point == pytest.approx(t0 * 100.0 / 0.10)


def test_vacuum_bound_no_dark_counts():
    res = vacuum_bound(intervals((5000.0, 2000.0, 0.0)), SETTING)
    assert res.lower == 0.0


def test_vacuum_bound_requires_nu_above_omega():
    flat = intensity_triple(0.55, 0.2, 0.2, 0.54, 0.36, 0.10)
    with pytest.raises(DecoyPreconditionError):
        decoy.setting(flat, EPS)


@pytest.mark.parametrize(
    "table, eps, message",
    [
        (intensity_triple(0.55, 0.28, 0.0, 0.9, 0.1, 0.0), EPS, "p_omega: must be > 0, got 0.0"),
        (TABLE, 1.0, "eps: must be in (0,1) with log(1/eps) finite, got 1.0"),
        (TABLE, 1e-320, "eps: must be in (0,1) with log(1/eps) finite, got 1e-320"),
        (TABLE, math.nan, "eps: must be in (0,1) with log(1/eps) finite, got nan"),
        (intensity_triple(0.55, 1e-320, 0.0, 0.54, 0.36, 0.10), EPS,
         "nu: a count of 2^62 overflows a decoy bound, got nu=1e-320 p_nu=0.36"),
        (intensity_triple(0.55, 0.28, 0.0, 0.54, 0.36, 5e-324), EPS,
         "omega: a count of 2^62 overflows a decoy bound, got omega=0.0 p_omega=5e-324"),
        (intensity_triple(710.0, 0.28, 0.0, 0.54, 0.36, 0.10), EPS,
         "mu: the decoy constants fail (math range error), got mu=710.0"),
    ],
)
def test_the_setting_names_the_key_at_fault(table, eps, message):
    with pytest.raises(DecoyPreconditionError) as info:
        decoy.setting(table, eps)
    assert str(info.value) == message


def test_a_non_finite_raw_end_flags_its_point_only():
    finite = fluctuation_interval(np.array([100.0, 100.0]), SETTING)
    broken = BoundedCount(finite.lower, finite.point, np.array([finite.upper[0], math.inf]))
    got = vacuum_bound((finite, finite, broken), SETTING)
    alone = vacuum_bound((finite[:1], finite[:1], broken[:1]), SETTING)
    assert got.nonphysical.tolist() == [False, True]
    assert (got.lower[0], got.upper[0]) == (alone.lower[0], alone.upper[0])
    # the trivially valid [0, total detections]
    assert (got.lower[1], got.upper[1]) == (0.0, 300.0)


@pytest.mark.parametrize("shape, point", [((12,), 6), ((3, 4), 1), ((2, 3, 2), 1), ((), 0)])
def test_raise_at_names_the_leading_index_and_reads_the_flat_entry(shape, point):
    # the message gets the flat index, from which a caller can name the point
    values = np.arange(int(np.prod(shape))).reshape(shape) + 10
    with pytest.raises(ValueError) as info:
        decoy.raise_at(values >= 16 if shape else values == 10, ValueError,
                       lambda i: f"entry {values.item(i)} of point {np.unravel_index(i, shape or (1,))[0]}")
    assert str(info.value) == f"entry {16 if shape else 10} of point {point}"


def test_single_photon_bound_zero_counts():
    s0 = vacuum_bound(intervals((0.0, 0.0, 0.0)), SETTING)
    res = single_photon_bound(intervals((0.0, 0.0, 0.0)), s0, SETTING)
    assert res.lower == 0.0


def test_single_photon_bound_precondition():
    # mu * (nu - omega) = 0.069 < nu^2 - omega^2 = 0.0759
    tight = intensity_triple(0.3, 0.28, 0.05, 0.54, 0.36, 0.10)
    with pytest.raises(DecoyPreconditionError):
        decoy.setting(tight, EPS)


def test_single_photon_scale_at_operating_point(ch):
    # Class-level Z counts at 200 km for a 3e12 block, taken before the
    # receiver basis split (the split ratio is not part of the baseline
    # parameter set); the reported operating point quotes 3.3e7.
    from rfiqkd.channel import transmittance
    from rfiqkd.core import BasisLabel

    eta = transmittance(200.0, BasisLabel.Z, ch)
    n_total = 3e12
    counts = []
    for k in TABLE:
        gain = 1 - (1 - ch.e_d) * math.exp(-eta * k.mean_photons)
        counts.append(n_total * 0.77 * k.probability * gain)
    s0 = vacuum_bound(intervals(counts), SETTING)
    s1 = single_photon_bound(intervals(counts), s0, SETTING)
    assert 3.3e7 / 2 <= s1.lower <= 3.3e7 * 2


def test_error_count_bound_zero_errors():
    res = error_count_bound(intervals((0.0, 0.0)), SETTING, cap=1e9)
    assert res.lower == 0.0
    assert 0.0 < res.upper < 1e4  # only fluctuation terms remain


def test_error_count_bound_bar_swap_symmetry():
    counts = (4000.0, 900.0, 40.0)
    res = error_count_bound(intervals(counts[1:]), SETTING, cap=1e9)
    t1 = tau(1, TABLE)
    iv_nu = fluctuation_interval(900.0, SETTING)
    iv_om = fluctuation_interval(40.0, SETTING)
    coef = t1 / 0.28
    lo = coef * (math.exp(0.28) * iv_nu.lower / 0.36 - iv_om.upper / 0.10)
    up = coef * (math.exp(0.28) * iv_nu.upper / 0.36 - iv_om.lower / 0.10)
    assert res.lower == pytest.approx(max(lo, 0.0))
    assert res.upper == pytest.approx(up)


def test_error_rate_from_bounds():
    e = single_photon_error_rate(
        BoundedCount(10.0, 15.0, 20.0), BoundedCount(100.0, 150.0, 200.0)
    )
    assert e.lower == pytest.approx(0.05)
    assert e.upper == pytest.approx(0.2)
    assert not e.degenerate


def test_error_rate_zero_numerator():
    e = single_photon_error_rate(
        BoundedCount(0.0, 1.0, 5.0), BoundedCount(10.0, 20.0, 30.0)
    )
    assert e.lower == 0.0


def test_error_rate_degenerate_denominator():
    e = single_photon_error_rate(
        BoundedCount(1.0, 2.0, 3.0), BoundedCount(0.0, 10.0, 20.0)
    )
    assert e.upper == 1.0
    assert e.degenerate


def test_bounds_scale_consistency():
    # Ten times the data shrinks the per-pulse interval width.
    counts = (50_000.0, 18_000.0, 900.0)
    scaled = tuple(10 * c for c in counts)
    s0_a = vacuum_bound(intervals(counts), SETTING)
    s0_b = vacuum_bound(intervals(scaled), SETTING)
    s1_a = single_photon_bound(intervals(counts), s0_a, SETTING)
    s1_b = single_photon_bound(intervals(scaled), s0_b, SETTING)
    assert s1_b.width / 10 < s1_a.width
    assert s0_b.width / 10 < s0_a.width


def test_disabled_fluctuations_give_point_estimates():
    counts = (50_000.0, 18_000.0, 900.0)
    exact = decoy.setting(TABLE, None)
    s0 = vacuum_bound(intervals(counts, None), exact)
    assert s0.lower == s0.point == s0.upper
    s1 = single_photon_bound(intervals(counts, None), s0, exact)
    assert s1.lower == s1.point == s1.upper
    t = error_count_bound(intervals((180.0, 4.0), None), exact, cap=1e9)
    assert t.lower == t.point == t.upper


@st.composite
def decoy_inputs(draw):
    """Valid (mu, nu, omega) intensities with selection probabilities, and
    detection and error counts at each intensity."""
    om = draw(st.floats(0.0, 0.2))
    nu = om + draw(st.floats(0.01, 0.5))
    mu = nu + om + draw(st.floats(0.01, 0.8))
    weights = [draw(st.floats(0.05, 1.0)) for _ in range(3)]
    p_mu, p_nu, p_om = (w / sum(weights) for w in weights)
    counts = tuple(float(draw(st.integers(0, 10**10))) for _ in range(3))
    errors = tuple(float(draw(st.integers(0, 10**8))) for _ in range(3))
    return intensity_triple(mu, nu, om, p_mu, p_nu, p_om), counts, errors


def clamped_extremes(values, cap):
    return min(max(min(values), 0.0), cap), min(max(max(values), 0.0), cap)


def assert_extremes(bound, terms_at_corners, cap):
    """``bound``'s ends are the clamped extremes of the closed form over the
    corners. Each corner gives the closed form's terms, whose sum is the
    value; the tolerance is 1e-12 of the largest term, because the value
    itself can be a small difference of large terms."""
    values = [sum(terms) for terms in terms_at_corners]
    scale = max(abs(term) for terms in terms_at_corners for term in terms)
    lower, upper = clamped_extremes(values, cap)
    assert bound.lower == pytest.approx(lower, rel=1e-12, abs=1e-12 * scale)
    assert bound.upper == pytest.approx(upper, rel=1e-12, abs=1e-12 * scale)


def ends(interval):
    return interval.lower, interval.upper


@settings(max_examples=200, deadline=None)
@given(decoy_inputs())
def test_worst_case_ends_are_the_corner_extremes(inputs):
    table, counts, errors = inputs
    (mu, p_mu), (nu, p_nu), (om, p_om) = ((k.mean_photons, k.probability) for k in table)
    t0, t1 = tau(0, table), tau(1, table)
    setting = decoy.setting(table, EPS)
    iv_mu, iv_nu, iv_om = (fluctuation_interval(c, setting) for c in counts)
    total = sum(counts)

    # S0 = tau0 / (nu - om) * (nu e^om N_om / p_om - om e^nu N_nu / p_nu)
    s0 = vacuum_bound((iv_mu, iv_nu, iv_om), setting)
    assert_extremes(
        s0,
        [
            (t0 * nu * math.exp(om) * n_om / (p_om * (nu - om)),
             -t0 * om * math.exp(nu) * n_nu / (p_nu * (nu - om)))
            for n_om, n_nu in itertools.product(ends(iv_om), ends(iv_nu))
        ],
        total,
    )

    # S1 = mu tau1 / (mu (nu - om) - (nu^2 - om^2)) * (e^nu N_nu / p_nu
    #      - e^om N_om / p_om + (nu^2 - om^2) / mu^2 * (S0 / tau0 - e^mu N_mu / p_mu))
    s1 = single_photon_bound((iv_mu, iv_nu, iv_om), s0, setting)
    a = mu * t1 / (mu * (nu - om) - (nu**2 - om**2))
    b = (nu**2 - om**2) / mu**2
    assert_extremes(
        s1,
        [
            (a * math.exp(nu) * n_nu / p_nu, -a * math.exp(om) * n_om / p_om,
             a * b * y0 / t0, -a * b * math.exp(mu) * n_mu / p_mu)
            for n_nu, n_om, y0, n_mu in itertools.product(
                ends(iv_nu), ends(iv_om), ends(s0), ends(iv_mu)
            )
        ],
        total,
    )

    # T1 = tau1 / (nu - om) * (e^nu M_nu / p_nu - e^om M_om / p_om)
    er_nu, er_om = (fluctuation_interval(m, setting) for m in errors[1:])
    t = error_count_bound((er_nu, er_om), setting, sum(errors))
    assert_extremes(
        t,
        [
            (t1 * math.exp(nu) * m_nu / (p_nu * (nu - om)),
             -t1 * math.exp(om) * m_om / (p_om * (nu - om)))
            for m_nu, m_om in itertools.product(ends(er_nu), ends(er_om))
        ],
        sum(errors),
    )


# -- one fluctuation interval per observed count -----------------------------


def spy_on_intervals(monkeypatch):
    """Record the count of every interval built, and the intervals that the
    vacuum and single-photon bounds of each class read."""
    made, read = [], []

    def wrap(name, log, entry):
        original = getattr(decoy, name)

        def spy(*args, **kwargs):
            log.append(entry(args))
            return original(*args, **kwargs)

        monkeypatch.setattr(decoy, name, spy)

    wrap("fluctuation_interval", made, lambda args: args[0])
    wrap("vacuum_bound", read, lambda args: ("s0", args[0]))
    wrap("single_photon_bound", read, lambda args: ("s1", args[0]))
    return made, read


def at_200km(cfg, ch):
    return expected_tallies(cfg, ch, [200.0])[0]


RUNNERS = {
    "analyze_tallies": (lambda cfg, ch, sec: analyze_tallies(at_200km(cfg, ch), cfg, sec), 23),
    "run_six_four": (lambda cfg, ch, sec: run_six_four(cfg, ch, sec, 200.0), 13),
    "run_six_state": (lambda cfg, ch, sec: run_six_state(cfg, ch, sec, 200.0), 23),
}


def entries(made):
    """The counts of the intervals built, one per entry of each count array."""
    return [n for counts in made for n in np.ravel(counts).tolist()]


@pytest.mark.parametrize("runner", RUNNERS)
def test_each_observed_count_gets_one_interval(monkeypatch, cfg, ch, sec, runner):
    run, count = RUNNERS[runner]
    made, read = spy_on_intervals(monkeypatch)
    run(cfg, ch, sec)
    # three detection counts and two error counts per class, the key class
    # without its errors
    assert len(entries(made)) == count
    # a class's single-photon bound reads the very intervals of its vacuum bound
    assert [tag for tag, _ in read] == ["s0", "s1"] * (len(read) // 2)
    for (_, vacuum), (_, single) in zip(read[::2], read[1::2]):
        assert all(a is b for a, b in zip(vacuum, single))


@pytest.mark.parametrize("runner", RUNNERS)
def test_an_analysis_builds_its_constants_once(monkeypatch, cfg, ch, sec, runner):
    calls = []

    def count(name):
        original = getattr(decoy, name)

        def counted(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(decoy, name, counted)

    count("tau")
    count("log")
    RUNNERS[runner][0](cfg, ch, sec)
    assert sorted(calls) == ["log", "tau", "tau"]


def test_intervals_follow_the_observed_counts(monkeypatch, cfg, ch, sec):
    tallies = at_200km(cfg, ch)
    made, _ = spy_on_intervals(monkeypatch)
    analyze_tallies(tallies, cfg, sec)
    # the key class's detections, then the X-basis classes' detections and
    # their errors at decoy and vacuum intensity, each in class order
    observed = list(tallies.class_detected((StateLabel.Z0, StateLabel.Z1), BasisLabel.Z))
    x_classes = [(state,) for state in (StateLabel.Z0, StateLabel.Z1, StateLabel.X0, StateLabel.Y0)]
    for states in x_classes:
        observed += tallies.class_detected(states, BasisLabel.X)
    for states in x_classes:
        observed += tallies.class_errors(states, BasisLabel.X)[1:]
    assert entries(made) == observed
    assert len(made) == 3  # one interval call per count array
