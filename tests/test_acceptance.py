"""Acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
live). Criteria 5 and 9 write canonical CSV artifacts through shared
helpers so the determinism criterion can regenerate and compare bytes.

Criterion 5 is implemented exactly as stated and is expected to FAIL: the
closed-form upper bound on single-photon counts and lower bound on
single-photon error counts are built by swapping the fluctuation ends of
a one-sided estimator, which drops multiphoton contributions of a single
sign. The neglected terms bias those two directions by roughly -10 and
+32 percent of the true value, far beyond the statistical widths at the
pinned block size, so no seed budget can reach 99 percent two-sided
coverage. The conservative directions are verified at full coverage by
``test_simulate.py::test_conservative_decoy_directions_cover_truth``.
"""
import io
import math
import time

import mpmath
import numpy as np
import pytest

from rfiqkd import cli, decoy
from rfiqkd.channel import expected_tallies, misalignment_error
from rfiqkd.core import BasisLabel, SecurityParams, StateLabel
from rfiqkd.keyrate import CLASSIFY_ROWS, DriftClassifier, group_and_extract
from rfiqkd.security import abs_lower, c1_c2_point, ie_4state
from rfiqkd.simulate import drift_beta, sample_drifting_tallies, sample_tallies

from conftest import make_config

TWO_PI = 2 * math.pi


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")


# ---------------------------------------------------------------------------
# shared runs for criteria 5, 9 and 10

SANDWICH_SEEDS = 200
SANDWICH_N = 1_000_000_000
SANDWICH_DISTANCE = 50.0

_CLASSES = (
    ("zz", (StateLabel.Z0, StateLabel.Z1), BasisLabel.Z, ("s0", "s1")),
    ("z0x", (StateLabel.Z0,), BasisLabel.X, ("s0", "s1", "t")),
    ("z1x", (StateLabel.Z1,), BasisLabel.X, ("s0", "s1", "t")),
    ("x0x", (StateLabel.X0,), BasisLabel.X, ("s0", "s1", "t")),
    ("y0x", (StateLabel.Y0,), BasisLabel.X, ("s0", "s1", "t")),
)


def run_sandwich_study(seeds: int = SANDWICH_SEEDS) -> tuple[str, dict]:
    """Two-sided decoy-bound coverage study; returns (csv text, tallies)."""
    cfg = make_config(n_total=SANDWICH_N)
    ch = __import__("rfiqkd").ChannelParams()
    sec = SecurityParams()
    setting = decoy.setting(cfg.intensities, sec.eps_bar)
    rows = ["seed,event_class,quantity,lower,true_value,upper,inside"]
    summary: dict[tuple[str, str], list[int]] = {}
    for seed in range(seeds):
        oracle = sample_tallies(cfg, ch, SANDWICH_DISTANCE, seed)
        obs = oracle.observed()
        for name, states, basis, quantities in _CLASSES:
            det = obs.class_detected(states, basis)
            err = obs.class_errors(states, basis)
            chain = decoy.class_bounds([det], [err], setting)
            bounds = {"s0": chain.s0, "s1": chain.s1, "t": chain.t}
            true_s0, _ = oracle.true_counts(states, basis, 0)
            true_s1, true_t = oracle.true_counts(states, basis, 1)
            truths = {"s0": true_s0, "s1": true_s1, "t": true_t}
            for quantity in quantities:
                lower, upper = bounds[quantity].lower[0], bounds[quantity].upper[0]
                truth = truths[quantity]
                inside = lower <= truth <= upper
                rows.append(
                    f"{seed},{name},{quantity},{lower:.6f},{truth},{upper:.6f},{int(inside)}"
                )
                hit, total = summary.get((name, quantity), (0, 0))
                summary[(name, quantity)] = (hit + int(inside), total + 1)
    return "\n".join(rows) + "\n", summary


GROUPING_N = 100_000_000_000
GROUPING_SLICES = 250
GROUPING_DISTANCE = 50.0
GROUPING_SEED = 42


def run_grouping_study() -> tuple[str, float, float, float, list[int]]:
    """Full-turn drift recovery study; returns (csv, l_m6, l_m1, l_fixed,
    the slice count of each of the 6 groups)."""
    cfg = make_config(n_total=GROUPING_N)
    ch = __import__("rfiqkd").ChannelParams()
    sec = SecurityParams()
    pulses = GROUPING_N // GROUPING_SLICES

    trace = drift_beta(
        "linear", {"beta0": 0.0, "rate": TWO_PI}, GROUPING_SLICES,
        pulses_per_slice=pulses,
    )
    slices = sample_drifting_tallies(cfg, ch, GROUPING_DISTANCE, trace, GROUPING_SEED)
    grouped = group_and_extract(slices, 6, cfg, sec)
    pooled = group_and_extract(slices, 1, cfg, sec)

    fixed_trace = drift_beta(
        "fixed", {"beta0": 0.0}, GROUPING_SLICES, pulses_per_slice=pulses
    )
    fixed_slices = sample_drifting_tallies(
        cfg, ch, GROUPING_DISTANCE, fixed_trace, GROUPING_SEED + 1
    )
    fixed = group_and_extract(fixed_slices, 1, cfg, sec)

    rows = ["metric,value"]
    rows.append(f"l_m6,{grouped.key_length:.6f}")
    rows.append(f"l_m1,{pooled.key_length:.6f}")
    rows.append(f"l_fixed,{fixed.key_length:.6f}")
    x_rows = slices.counts[:, CLASSIFY_ROWS, 1:].tolist()
    for i, (x0, y0) in enumerate(x_rows):
        rows.append(f"slice_rho_{i},{DriftClassifier.classify(x0, y0):.9f}")
    csv_text = "\n".join(rows) + "\n"
    group_sizes = [o.bucket.n_slices for o in grouped.outcomes if o.bucket.index is not None]
    return csv_text, grouped.key_length, pooled.key_length, fixed.key_length, group_sizes


@pytest.fixture(scope="session")
def sandwich_run():
    return run_sandwich_study()


@pytest.fixture(scope="session")
def grouping_run():
    return run_grouping_study()


# ---------------------------------------------------------------------------


def test_criterion_01_operating_point_rate():
    started = time.monotonic()
    out = io.StringIO()
    code = cli.main(
        ["point", "--distance", "200", "--mode", "analytic"], out=out, err=io.StringIO()
    )
    elapsed = time.monotonic() - started
    values = dict(
        line.split(" = ") for line in out.getvalue().strip().splitlines() if " = " in line
    )
    rate = float(values["key_rate"])
    ok = code == cli.EXIT_OK and 6e-7 <= rate <= 1.5e-5 and elapsed < 10.0
    _verdict(1, ok, f"200 km analytic rate {rate:.3e} in [6e-7, 1.5e-5], {elapsed:.2f}s")
    assert 6e-7 <= rate <= 1.5e-5
    assert elapsed < 10.0


def test_criterion_02_leak_bound_spot_value():
    mpmath.mp.dps = 50
    p = (1 - mpmath.mpf("0.6503")) / 2
    oracle = float(-p * mpmath.log(p, 2) - (1 - p) * mpmath.log(1 - p, 2))
    value = ie_4state(0.6503)
    ok = abs(value - oracle) < 1e-4
    _verdict(2, ok, f"ie(0.6503) = {value:.6f}, oracle {oracle:.6f}")
    assert abs(value - oracle) < 1e-4
    assert oracle == pytest.approx(0.6687, abs=1e-4)


def test_criterion_03_rotation_invariance():
    started = time.monotonic()
    worst = 0.0
    for e0 in (0.0, 0.01, 0.05):
        for i in range(64):
            beta = TWO_PI * i / 64
            c1, c2 = c1_c2_point(
                misalignment_error(StateLabel.Z0, BasisLabel.X, beta, e0),
                misalignment_error(StateLabel.Z1, BasisLabel.X, beta, e0),
                misalignment_error(StateLabel.X0, BasisLabel.X, beta, e0),
                misalignment_error(StateLabel.Y0, BasisLabel.X, beta, e0),
            )
            worst = max(worst, abs(math.hypot(c1, c2) - (1 - 2 * e0)))
    elapsed = time.monotonic() - started
    ok = worst < 1e-9 and elapsed < 1.0
    _verdict(3, ok, f"max |C - (1-2*e0)| = {worst:.2e} over 3x64 angles, {elapsed:.2f}s")
    assert worst < 1e-9
    assert elapsed < 1.0


@pytest.fixture(scope="session")
def compare_rows():
    out = io.StringIO()
    code = cli.main(["compare", "--n-total", "1e13"], out=out, err=io.StringIO())
    assert code == cli.EXIT_OK
    rows = [line.split(",") for line in out.getvalue().strip().splitlines()[1:]]
    by_dist: dict[float, dict[str, float]] = {}
    for parts in rows:
        by_dist.setdefault(float(parts[0]), {})[parts[2]] = float(parts[3])
    return by_dist


def test_criterion_04_protocol_equivalence(compare_rows):
    started = time.monotonic()
    worst_rel = 0.0
    worst_ratio = 1.0
    for dist, rates in compare_rows.items():
        r44, r64, r66 = rates["rfi44"], rates["rfi64"], rates["rfi66"]
        if r44 > 1e-8 and r64 > 1e-8:
            worst_rel = max(worst_rel, abs(r44 - r64) / max(r44, r64))
            ratio = r66 / r44
            worst_ratio = max(worst_ratio, max(ratio, 1 / ratio) if ratio > 0 else math.inf)
    elapsed = time.monotonic() - started
    ok = worst_rel <= 0.05 and worst_ratio <= 2.0
    _verdict(
        4, ok,
        f"four-state vs six-four max rel {worst_rel:.4f}, six-state worst factor "
        f"{worst_ratio:.2f} over 0-200 km",
    )
    assert worst_rel <= 0.05
    assert worst_ratio <= 2.0
    assert elapsed < 60.0


def test_criterion_05_decoy_bound_sandwich(sandwich_run):
    # Faithful two-sided check of every bound the pipeline consumes. See
    # the module docstring: two of the printed directions are not
    # conservative, so this criterion cannot reach its stated coverage.
    _, summary = sandwich_run
    hits = sum(h for h, _ in summary.values())
    trials = sum(t for _, t in summary.values())
    coverage = hits / trials
    table = "\n".join(
        f"    {name:>4s} {quantity:>2s}: {h}/{t}"
        for (name, quantity), (h, t) in sorted(summary.items())
    )
    ok = coverage >= 0.99
    _verdict(5, ok, f"two-sided sandwich coverage {coverage:.4f} (target >= 0.99)")
    assert ok, (
        f"two-sided coverage {coverage:.4f} < 0.99 over {trials} trials.\n"
        "Per-(class, quantity) hits:\n" + table + "\n"
        "The misses sit exclusively on the swapped-ends upper single-photon\n"
        "and lower error-count directions, whose neglected multiphoton terms\n"
        "bias them beyond the statistical widths at this block size; the\n"
        "security-relevant directions hold at full coverage (see\n"
        "test_simulate.py::test_conservative_decoy_directions_cover_truth)."
    )


def test_criterion_06_fluctuation_coverage():
    started = time.monotonic()
    rng = np.random.default_rng(123)
    draws = rng.binomial(100_000, 0.3, size=10_000)
    mean = 30_000.0
    setting = decoy.setting(make_config().intensities, 1e-3)
    misses = sum(
        1
        for x in draws
        if not (lambda iv: iv.lower <= mean <= iv.upper)(
            decoy.fluctuation_interval(float(x), setting)
        )
    )
    elapsed = time.monotonic() - started
    ok = misses <= 20 and elapsed < 10.0
    _verdict(6, ok, f"{misses} escapes out of 10000 draws (budget 20), {elapsed:.2f}s")
    assert misses <= 20
    assert elapsed < 10.0


def test_criterion_07_magnitude_bound_brute_force():
    grid = np.linspace(-1.0, 1.0, 21)
    for lo in grid:
        for hi in grid:
            if lo > hi:
                continue
            exact = 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))
            assert abs_lower(float(lo), float(hi)) == exact
    _verdict(7, True, "abs_lower equals the interval minimum on the full 21x21 grid")


def test_criterion_08_finite_key_dominance(compare_rows):
    from rfiqkd.baselines import run_six_four, run_six_state
    from rfiqkd.keyrate import analyze_tallies

    cfg = make_config(n_total=10**13)
    ch = __import__("rfiqkd").ChannelParams()
    sec = SecurityParams()
    violations = []
    for dist in sorted(compare_rows):
        finite = compare_rows[dist]
        tallies = expected_tallies(cfg, ch, [dist])[0]
        asym = {
            "rfi44": analyze_tallies(
                tallies, cfg, sec, asymptotic=True
            ).key_rate,
            "rfi64": run_six_four(
                cfg, ch, sec, dist, asymptotic=True
            ).key_rate,
            "rfi66": run_six_state(
                cfg, ch, sec, dist, asymptotic=True
            ).key_rate,
        }
        for protocol in ("rfi44", "rfi64", "rfi66"):
            if finite[protocol] > asym[protocol]:
                violations.append((dist, protocol, "finite above asymptotic"))
            if finite[protocol] > 0 and asym[protocol] > 0:
                if not finite[protocol] < asym[protocol]:
                    violations.append((dist, protocol, "not strictly below"))
    ok = not violations
    _verdict(8, ok, f"{len(violations)} dominance violations across all scan points")
    assert not violations, violations


def test_criterion_09_grouping_recovery(grouping_run):
    _, l_m6, l_m1, l_fixed, _ = grouping_run
    ok = l_m6 > l_m1 and l_m1 <= 0.1 * l_fixed
    _verdict(
        9, ok,
        f"l(M=6)={l_m6:.3e} > l(M=1)={l_m1:.3e}; l(M=1) <= 10% of fixed {l_fixed:.3e}",
    )
    assert l_m6 > l_m1
    assert l_m1 <= 0.1 * l_fixed


def test_grouping_study_fills_every_group(grouping_run):
    # a full turn spreads the slices evenly over the 6 angle groups
    *_, group_sizes = grouping_run
    even = GROUPING_SLICES / 6
    assert len(group_sizes) == 6
    assert all(0.8 * even <= n <= 1.2 * even for n in group_sizes), group_sizes


def test_criterion_10_determinism(sandwich_run, grouping_run):
    started = time.monotonic()
    sandwich_again, _ = run_sandwich_study()
    grouping_again = run_grouping_study()[0]
    elapsed = time.monotonic() - started
    ok = sandwich_again == sandwich_run[0] and grouping_again == grouping_run[0]
    _verdict(10, ok, f"reruns byte-identical (regenerated in {elapsed:.1f}s)")
    assert sandwich_again == sandwich_run[0]
    assert grouping_again == grouping_run[0]
