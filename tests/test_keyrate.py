import math
from dataclasses import fields, replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfiqkd import ChannelParams, SecurityParams, baselines, decoy, keyrate
from rfiqkd.baselines import run_six_four, run_six_state
from rfiqkd.channel import expected_tallies
from rfiqkd.core import (
    ALL_CELLS,
    CELL_INDEX,
    MAX_PULSES,
    BasisLabel,
    KINDS,
    IntensityKind,
    ObservedTallies,
    StateLabel,
    TallyBatch,
    TallyError,
)
from rfiqkd.keyrate import (
    CLASSIFY_ROWS,
    DriftClassifier,
    analyze_batch,
    analyze_tallies,
    group_and_extract,
    group_slices,
    key_length,
    report_at,
)
from rfiqkd.security import binary_entropy, ie_4state
from rfiqkd.simulate import drift_beta, sample_drifting_tallies

from conftest import make_config
from test_decoy_block import reference_analysis

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


def _classify(tallies):
    """The classifier's angle for one table, from the rows it reads."""
    return DriftClassifier.classify(*tallies.counts[CLASSIFY_ROWS, 1:].tolist())


def test_rho_recovers_beta_over_a_sweep(ch):
    # Analytic slices of 3e9 pulses over a 64-point sweep: the count-only
    # estimate recovers every true angle at 50 and at 200 km, although it
    # never sees the distance or the channel.
    cfg = make_config(n_total=3 * 10**9)
    for distance in (50.0, 200.0):
        for i in range(64):
            beta = TWO_PI * i / 64
            rho = _classify(expected_tallies(cfg, ch, [distance], [beta])[0])
            assert rho is not None
            assert 0.0 <= rho < TWO_PI
            assert _angle_error(rho, beta) <= 0.05, (distance, beta, rho)


def test_rho_tracks_drift_trace_ground_truth(ch):
    # Monte Carlo slices of a linear sweep, 2e8 pulses each: every slice's
    # angle lies within 0.05 rad of the trace's true angle.
    cfg = make_config(n_total=48 * 2 * 10**8)
    trace = drift_beta(
        "linear", {"beta0": 0.0, "rate": TWO_PI}, 48,
        pulses_per_slice=cfg.n_total // 48,
    )
    for seed in (17, 18, 19):
        slices = sample_drifting_tallies(cfg, ch, 50.0, trace, seed)
        for rows, beta in zip(slices.counts[:, CLASSIFY_ROWS, 1:].tolist(), trace.betas):
            rho = DriftClassifier.classify(*rows)
            assert rho is not None
            assert _angle_error(rho, beta) <= 0.05, (seed, beta, rho)


def _analytic_slices(cfg, ch, distance, betas):
    from dataclasses import fields, replace

    per_slice = replace(cfg, n_total=cfg.n_total // len(betas))
    return expected_tallies(per_slice, ch, [distance] * len(betas), betas)


def test_group_single_group_matches_ungrouped(ch, sec):
    cfg = make_config(n_total=10**10)
    slices = _analytic_slices(cfg, ch, 50.0, [0.3] * 5)
    result = group_and_extract(slices, 1, cfg, sec)
    merged = ObservedTallies(slices.counts[0])
    for extra in slices.counts[1:]:
        merged = merged + ObservedTallies(extra)
    direct = analyze_tallies(merged, cfg, sec)
    assert result.key_length == direct.key_length
    assert len(result.outcomes) == 1


def test_grouping_conserves_counts(ch, sec):
    cfg = make_config(n_total=12 * 10**8)
    betas = [TWO_PI * i / 12 for i in range(12)]
    slices = _analytic_slices(cfg, ch, 50.0, betas)
    buckets = group_slices(slices, 6)
    total = ObservedTallies(sum(bucket.counts for bucket in buckets))
    merged = ObservedTallies(slices.counts[0])
    for extra in slices.counts[1:]:
        merged = merged + ObservedTallies(extra)
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
    cfg = make_config(n_total=10**4)
    result = group_and_extract(TallyBatch(np.zeros((1, len(ALL_CELLS), 3), dtype=np.int64)), 1, cfg, sec)
    assert result.key_length == 0.0
    assert result.outcomes[0].diagnostic is not None


_Z0, _Z1, _X0, _Y0 = StateLabel.Z0, StateLabel.Z1, StateLabel.X0, StateLabel.Y0


@pytest.mark.parametrize("kind", [IntensityKind.MU, IntensityKind.NU])
@pytest.mark.parametrize(
    "states, basis",
    [((_Z0, _Z1), BasisLabel.Z), ((_Z0,), BasisLabel.X), ((_Z1,), BasisLabel.X),
     ((_X0,), BasisLabel.X), ((_Y0,), BasisLabel.X)],
)
def test_a_class_without_detections_is_named(ch, sec, states, basis, kind):
    cfg = make_config(n_total=10**10)
    counts = expected_tallies(cfg, ch, [50.0]).counts.copy()
    for state in states:
        counts[0, CELL_INDEX[(state, basis, kind)], 1:] = 0
    result = group_and_extract(TallyBatch(counts), 1, cfg, sec)
    names = "+".join(state.value for state in states)
    assert result.key_length == 0.0
    assert [outcome.diagnostic for outcome in result.outcomes] == [
        f"no detections for ({names},{basis.value}) at {kind.value}"
    ]


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


def nonphysical(report):
    """The ``*_nonphysical`` entries set in a one-table report."""
    return {key for key in report.intermediate if key.endswith("_nonphysical")}


def test_literal_formula_mode_signals_nonphysical(cfg, ch, sec):
    tallies = expected_tallies(cfg, ch, [100.0])[0]
    literal = analyze_tallies(tallies, cfg, sec, literal_paper_formulas=True)
    assert "s0_zz_nonphysical" in nonphysical(literal) and literal.key_length == 0.0
    # the default formulas flag nothing there and give a key
    default = analyze_tallies(tallies, cfg, sec)
    assert not nonphysical(default) and default.key_length > 0.0


def test_a_nonphysical_entry_zeroes_only_its_points_key(cfg, ch, sec, monkeypatch):
    def leak(bounds, e_zz, inter, literal):  # c = 1 and no leak, the first point flagged
        inter["c_nonphysical"] = np.array([True, False])
        return np.ones(2), np.zeros(2)

    monkeypatch.setattr(keyrate, "_leak_four_state", leak)
    report = analyze_batch(expected_tallies(cfg, ch, [50.0, 50.0]), cfg, sec)
    raw = report.intermediate["key_length_raw"]
    assert raw[0] == raw[1] > 0.0 and not report.intermediate["negative_length"].any()
    assert report.key_length.tolist() == [0.0, raw[1]]
    assert report.key_rate.tolist() == [0.0, raw[1] / cfg.n_total]


def _uniform_counts(count):
    return np.full((len(ALL_CELLS), 3), count, dtype=np.int64)


def _uniform_batch(counts):
    return TallyBatch(np.stack([_uniform_counts(count) for count in counts]))


@pytest.mark.parametrize(
    "counts",
    [[2**61 + 1] * 3, [2**62] * 4, [2**61, 2**61 + 1]],  # 4 * 2**62 wraps to 0 in int64
)
def test_grouping_beyond_the_budget_names_the_group(counts):
    with pytest.raises(TallyError) as info:
        group_slices(_uniform_batch(counts), 1)
    assert str(info.value) == (
        f"group 0: cell (Z0,Z,mu): summed sent={sum(counts)} "
        f"exceeds the 64-bit count budget {2**62}"
    )


def test_grouping_up_to_the_budget_is_exact():
    (bucket,) = group_slices(_uniform_batch([2**61] * 2), 1)
    assert np.array_equal(bucket.counts, _uniform_counts(2**62))
    assert not bucket.counts.flags.writeable
    assert bucket.n_pulses == 12 * 2**62


def test_overflow_group_beyond_the_budget():
    # no X0 or Y0 signal detections in X: every slice is degenerate and
    # lands in overflow
    big = np.tile(np.array([2**61 + 1, 1, 0], dtype=np.int64), (len(ALL_CELLS), 1))
    for state in (StateLabel.X0, StateLabel.Y0):
        big[CELL_INDEX[(state, BasisLabel.X, IntensityKind.MU)]] = (2**61 + 1, 0, 0)
    assert _classify(ObservedTallies(big)) is None
    with pytest.raises(TallyError, match=r"^group overflow: cell \(Z0,Z,mu\)"):
        group_slices(TallyBatch(np.stack([big] * 3)), 6)


# detections of one classify cell: none, or a count spread over every binade up
# to MAX_PULSES, the array quotient's exact ones below 2**52 and those from 2**52 on
_DETECTED = st.one_of(st.just(0), st.integers(0, 62).flatmap(
    lambda k: st.integers(2**k, min(2 ** (k + 1) - 1, MAX_PULSES))
))


@st.composite
def _classify_cells(draw, m_groups):
    """The X0 and Y0 classify cells' (detected, errors) of one slice: each error
    count anywhere in [0, detected], or within 2 of the one that puts the angle
    on a group edge k * 2*pi / m_groups."""
    edge = draw(st.integers(0, m_groups - 1)) * TWO_PI / m_groups
    cells = []
    for target in (math.cos(edge), math.sin(edge)):
        detected = draw(_DETECTED)
        on_edge = round(detected * (1.0 - target) / 2.0)
        errors = draw(st.one_of(
            st.integers(0, detected),
            st.integers(on_edge - 2, on_edge + 2).map(lambda e: min(max(e, 0), detected)),
        ))
        cells.append((detected, errors))
    return cells


@settings(max_examples=300, deadline=None)
@example((6, [[(2**52 - 1, 0), (2**52 - 1, 2**51)]]))  # an angle of -1/(2**52 - 1), which % wraps to 2*pi
@given(st.integers(2, 12).flatmap(
    lambda m: st.tuples(st.just(m), st.lists(_classify_cells(m), min_size=1, max_size=6))
))
def test_array_classification_is_the_scalar_classifier(case):
    m_groups, slices = case
    counts = np.zeros((len(slices), len(ALL_CELLS), 3), dtype=np.int64)
    for table, cells in zip(counts, slices):
        for state, (detected, errors) in zip((StateLabel.X0, StateLabel.Y0), cells):
            table[CELL_INDEX[(state, BasisLabel.Z, IntensityKind.MU)], 0] = detected
            table[CELL_INDEX[(state, BasisLabel.X, IntensityKind.MU)]] = (detected, detected, errors)
    batch = TallyBatch(counts)
    width = TWO_PI / m_groups
    expected = []
    for cells in slices:
        rho = DriftClassifier.classify(*cells)
        expected.append(m_groups if rho is None else min(int(rho / width), m_groups - 1))
    assert keyrate._slice_groups(batch, m_groups).tolist() == expected

    sums = [sum((counts[i].astype(object) for i, g in enumerate(expected) if g == group),
                np.zeros((len(ALL_CELLS), 3), dtype=object)) for group in range(m_groups + 1)]
    if any((total > MAX_PULSES).any() for total in sums):
        with pytest.raises(TallyError, match="exceeds the 64-bit count budget"):
            group_slices(batch, m_groups)
        return
    buckets = group_slices(batch, m_groups)
    groups = [*range(m_groups), None] if m_groups in expected else range(m_groups)
    assert [(b.index, b.n_slices, b.counts.tolist()) for b in buckets] == [
        (index, expected.count(m_groups if index is None else index),
         sums[m_groups if index is None else index].tolist())
        for index in groups
    ]


def test_a_class_sum_at_two_to_the_63_does_not_wrap(cfg, sec):
    # two slices at 2^61 per cell: their group holds 2^62 in every cell, the
    # budget's edge, so Z0 + Z1 detections reach 2^63 per intensity
    table = np.full((len(ALL_CELLS), 3), 2**61, dtype=np.int64)
    table[:, 2] = 2**55
    result = group_and_extract(TallyBatch(np.stack([table, table])), 1, cfg, sec)
    (outcome,) = result.outcomes
    group_cfg = replace(cfg, n_total=outcome.bucket.n_pulses)
    n_zz, e_zz, length = reference_analysis(table * 2, group_cfg, sec)
    assert n_zz == 6 * 2**62 and outcome.report.n_zz == n_zz
    assert outcome.report.e_zz == e_zz and outcome.report.key_length == length
    # the same table in a block, beside one of ordinary counts
    small = expected_tallies(cfg, ChannelParams(), [50.0])[0].counts
    block = analyze_batch(TallyBatch(np.stack([small, table * 2])), group_cfg, sec)
    assert block.n_zz.tolist()[1] == n_zz
    assert block.key_length.tolist() == [
        reference_analysis(small, group_cfg, sec)[2], length
    ]


def test_a_batch_flags_each_table_as_its_own_analysis_does(cfg, ch, sec):
    small = replace(cfg, n_total=1000)
    far, near = (expected_tallies(small, ch, [d])[0].counts for d in (300.0, 0.0))
    # the X0 rows of a near table and the rest of a far one: only the X0
    # class is non-physical, after the key class and the Z0 and Z1 classes
    late = far.copy()
    rows = [row for row, (state, _, _) in enumerate(ALL_CELLS) if state is StateLabel.X0]
    late[rows] = near[rows]
    tables = {"far": far, "near": near, "late": late}
    alone = {name: analyze_tallies(ObservedTallies(table), small, sec, literal_paper_formulas=True)
             for name, table in tables.items()}
    assert not nonphysical(alone["far"])
    assert nonphysical(alone["late"]) == {"s1_x0x_nonphysical"}
    assert "s1_zz_nonphysical" in nonphysical(alone["near"])
    for order in ("late near", "far near late"):
        names = order.split()
        batch = TallyBatch(np.stack([tables[name] for name in names]))
        report = analyze_batch(batch, small, sec, literal_paper_formulas=True)
        for i, name in enumerate(names):
            assert report_at(report, i) == alone[name]


@st.composite
def valid_tables(draw):
    """1-4 valid (24, 3) tables, each at one scale from 10 counts to 2^62."""
    tables = []
    for _ in range(draw(st.integers(1, 4))):
        scale = draw(st.sampled_from([10, 10**6, 10**11, 2**62]))
        table = np.zeros((len(ALL_CELLS), 3), dtype=np.int64)
        sent = {}
        for row, (state, _, kind) in enumerate(ALL_CELLS):
            n = sent.setdefault((state, kind), draw(st.integers(0, scale)))
            detected = draw(st.integers(0, n))
            table[row] = (n, detected, draw(st.integers(0, detected)))
        tables.append(table)
    return tables


@st.composite
def seeded_tables(draw):
    """1-4 valid (24, 3) tables, each at a drawn scale from 10^3 to 2^62 counts,
    so that a chunk may mix class totals below and above 10^12; the counts are
    uniform under the scale, from a drawn seed, as hypothesis draws few integers
    that 64-bit floats cannot hold."""
    scales = draw(st.lists(st.sampled_from([10**3, 10**6, 10**11, 2**62]), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    tables = []
    for scale in scales:
        table = np.zeros((len(ALL_CELLS), 3), dtype=np.int64)
        sent = {}
        for row, (state, _, kind) in enumerate(ALL_CELLS):
            n = sent.setdefault((state, kind), int(rng.integers(0, scale, endpoint=True)))
            detected = int(rng.integers(0, n, endpoint=True))
            table[row] = (n, detected, int(rng.integers(0, detected, endpoint=True)))
        tables.append(table)
    return tables


@settings(max_examples=100, deadline=None)
@given(seeded_tables())
def test_a_batch_matches_the_python_int_reference(tables):
    cfg, sec = make_config(), SecurityParams()
    report = analyze_batch(TallyBatch(np.stack(tables)), cfg, sec)
    for i, table in enumerate(tables):
        got = report_at(report, i)
        assert (got.n_zz, got.e_zz, got.key_length) == reference_analysis(table, cfg, sec)



# -- the class axis against class-by-class evaluation ------------------------


def one_class_at_a_time(class_bounds):
    """``class_bounds`` as the analyses ran it before the chain took a class
    axis: each class of (n, classes, 3) counts alone, over every point, with
    the bounds stacked back along the class axis."""

    def stacked(bounds):
        ends = zip(*((b.lower, b.point, b.upper, b.clamped, b.degenerate, b.nonphysical)
                     for b in bounds))
        return decoy.BoundedCount(*(np.stack(e, axis=1) if np.ndim(e[0]) else e[0] for e in ends))

    def per_class(detected, errors, setting):
        detected, errors = np.asarray(detected), np.asarray(errors)
        if detected.ndim < 3:
            return class_bounds(detected, errors, setting)
        chains = [class_bounds(detected[:, c], errors[:, c], setting) for c in range(detected.shape[1])]
        return decoy.ClassBounds(*(
            stacked([getattr(chain, name) for chain in chains]) for name in ("s0", "s1", "t", "e")
        ))

    return per_class


def outcome(run):
    """``run()``'s report, or its error as (type, message)."""
    try:
        return run()
    except ValueError as exc:
        return type(exc), str(exc)


def stacked_and_class_by_class(run):
    """``outcome(run)``, then the same with the classes run one at a time."""
    stacked = outcome(run)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decoy, "class_bounds", one_class_at_a_time(decoy.class_bounds))
        return stacked, outcome(run)


def assert_same_bits(a, b):
    """Equal entry for entry, the sign of zero included, whatever the dtype."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    for x, y in zip(a.ravel().tolist(), b.ravel().tolist()):
        assert x == y and math.copysign(1.0, x) == math.copysign(1.0, y), (x, y)


def assert_same_outcome(stacked, alone, columns):
    """The same error, or the same bits in every entry of ``columns(report)``."""
    assert type(stacked) is type(alone)
    if isinstance(alone, tuple):
        assert stacked == alone
        return
    got, want = columns(stacked), columns(alone)
    assert list(got) == list(want)
    for name, column in want.items():
        assert_same_bits(got[name], column)


def report_columns(report):
    """Every field of a batch report and every ``intermediate`` entry: each
    class's s0/s1/t/e ends and points, and its clamped and degenerate flags."""
    columns = {f.name: getattr(report, f.name) for f in fields(report)[:-1]}
    return {**columns, **report.intermediate}


@settings(max_examples=100, deadline=None)
@given(seeded_tables(), st.booleans(), st.booleans())
def test_the_class_axis_matches_class_by_class_evaluation(tables, asymptotic, literal):
    cfg, sec = make_config(), SecurityParams()
    batch = TallyBatch(np.stack(tables))
    stacked, alone = stacked_and_class_by_class(lambda: analyze_batch(
        batch, cfg, sec, asymptotic=asymptotic, literal_paper_formulas=literal
    ))
    assert_same_outcome(stacked, alone, report_columns)
    if isinstance(alone, tuple):
        return
    # and each class's intermediates are that class's own chain
    setting = decoy.setting(cfg.intensities, None if asymptotic else sec.eps_bar, literal)
    for state in (StateLabel.Z0, StateLabel.Z1, StateLabel.X0, StateLabel.Y0):
        rows = batch.counts[:, [CELL_INDEX[(state, BasisLabel.X, kind)] for kind in KINDS]]
        chain = decoy.class_bounds(rows[..., 1], rows[..., 2], setting)
        for name in ("s0", "s1", "t", "e"):
            bound, key = getattr(chain, name), f"{name}_{state.value.lower()}x"
            ends = ("lower", "point", "upper", "clamped") + ("nonphysical",) * (name != "e")
            for end in ends:
                assert_same_bits(stacked.intermediate[f"{key}_{end}"], getattr(bound, end))
        assert_same_bits(stacked.intermediate[f"e_{state.value.lower()}x_degenerate"],
                         chain.e.degenerate)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([0.0, 50.0, 200.0]) | st.floats(0.0, 300.0),
            st.sampled_from([10**3, 10**12, 2**62]) | st.integers(10**3, 2**62),
        ),
        min_size=1,
        max_size=4,
    ),
    st.floats(0.0, 2 * math.pi),
    st.booleans(),
    st.booleans(),
)
def test_the_baselines_class_axis_matches_class_by_class_evaluation(
    points, beta, asymptotic, literal
):
    cfg, ch, sec = make_config(), ChannelParams(beta=beta), SecurityParams()
    distances, sizes = (list(column) for column in zip(*points))
    for runner in (run_six_four, run_six_state):
        stacked, alone = stacked_and_class_by_class(lambda: runner(
            cfg, ch, sec, np.array(distances), asymptotic, literal, n_total=sizes
        ))
        assert_same_outcome(stacked, alone, report_columns)
        if not isinstance(alone, tuple):  # the flags column reads these two
            assert {"c_clamped", "negative_length"} <= set(alone.intermediate)


@st.composite
def tables_and_points(draw):
    """``seeded_tables``, and for the baselines each table's point: a distance
    and a block size from 10^3 to 2^62."""
    tables = draw(seeded_tables())
    points = st.tuples(
        st.sampled_from([0.0, 50.0, 200.0]) | st.floats(0.0, 300.0),
        st.sampled_from([10**3, 10**12, 2**62]) | st.integers(10**3, 2**62),
    )
    return tables, draw(st.lists(points, min_size=len(tables), max_size=len(tables)))


@settings(max_examples=100, deadline=None)
@given(tables_and_points(), st.floats(0.0, 2 * math.pi), st.booleans(), st.booleans(), st.booleans())
def test_one_call_for_several_protocols_is_each_protocols_own_call(
    case, beta, asymptotic, literal, n_zz_all_intensities
):
    # rfi44 on tables whose class totals reach 2^62 (the object path) beside the
    # baselines' float counts: each report is that protocol's call alone
    tables, points = case
    cfg, ch, sec = make_config(), ChannelParams(beta=beta), SecurityParams()
    distances, sizes = (list(column) for column in zip(*points))
    batch = TallyBatch(np.stack(tables))
    options = {"asymptotic": asymptotic, "literal_paper_formulas": literal,
               "n_zz_all_intensities": n_zz_all_intensities}
    protocols = [keyrate.four_state(batch),
                 *(protocol(cfg, ch, distances, sizes) for protocol in (baselines.six_four, baselines.six_state))]
    together = keyrate.analyze_classes(protocols, cfg, sec, sizes, **options)
    alone = [
        analyze_batch(batch, cfg, sec, n_total=sizes, **options),
        *(runner(cfg, ch, sec, np.array(distances), n_total=sizes, **options)
          for runner in (run_six_four, run_six_state)),
    ]
    assert len(together) == len(alone)
    for got, want in zip(together, alone):
        assert_same_outcome(got, want, report_columns)


@pytest.mark.parametrize("n_total", [10**9, 3 * 10**12])
def test_integer_class_counts_analyse_as_their_float64_cast(cfg, sec, n_total):
    # below 10^12 the chain takes integer counts as float64, the key class's
    # too: rfi44's report, n_zz included, is the one its counts cast to
    # float64 give, in dtype and in every digit
    distances = np.linspace(0.0, 300.0, 61)
    sizes = [n_total] * len(distances)
    key, tests, leak = keyrate.four_state(expected_tallies(cfg, ChannelParams(beta=0.3), distances, n_total=sizes))
    as_ints, as_floats = (
        keyrate.analyze_classes([protocol], cfg, sec, sizes)[0]
        for protocol in ((key, tests, leak), (key.astype(np.float64), tests.astype(np.float64), leak))
    )
    assert key.dtype.kind == "u"

    def exact(report):
        values = {f.name: getattr(report, f.name) for f in fields(report)[:-1]} | dict(report.intermediate)
        return {name: (value.dtype, repr(value.tolist())) for name, value in values.items()}

    assert exact(as_ints) == exact(as_floats)


def test_a_point_flags_each_failing_class(cfg, ch, sec):
    # at 1e6 pulses the 300 km table passes the literal chain and the 0 km
    # one fails it; the crafted Z1 rows fail only at the error count, the
    # near X0 rows also at the single-photon count
    small = replace(cfg, n_total=10**6)
    far, near = (expected_tallies(small, ch, [d])[0].counts for d in (300.0, 0.0))
    crafted = far.copy()
    z1, x0 = ([CELL_INDEX[(state, BasisLabel.X, kind)] for kind in KINDS]
              for state in (StateLabel.Z1, StateLabel.X0))
    crafted[z1, 1:] = [[10**5, 10**5], [500, 500], [0, 0]]
    mixed = crafted.copy()
    mixed[x0] = near[x0]
    flags = {name: nonphysical(analyze_tallies(
        ObservedTallies(table), small, sec, literal_paper_formulas=True
    )) for name, table in (("far", far), ("crafted", crafted), ("mixed", mixed))}
    assert flags == {
        "far": set(),
        "crafted": {"t_z1x_nonphysical"},
        "mixed": {"t_z1x_nonphysical", "s1_x0x_nonphysical", "t_x0x_nonphysical"},
    }
    batch = TallyBatch(np.stack([far, mixed]))
    stacked, alone = stacked_and_class_by_class(lambda: analyze_batch(
        batch, small, sec, literal_paper_formulas=True
    ))
    assert_same_outcome(stacked, alone, report_columns)
    assert stacked.key_length.tolist() == [0.0, 0.0]


# -- the default formulas never flag a bound ------------------------------------


def flagged(report):
    """The ``*_nonphysical`` entries of a batch report set at any point."""
    return {key for key, column in report.intermediate.items()
            if key.endswith("_nonphysical") and column.any()}


@settings(max_examples=100, deadline=None)
@given(valid_tables(), st.booleans())
def test_the_default_formulas_flag_no_table(tables, asymptotic):
    report = analyze_batch(TallyBatch(np.stack(tables)), make_config(), SecurityParams(),
                           asymptotic=asymptotic, literal_paper_formulas=False)
    assert not flagged(report)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([0.0, 50.0, 200.0, 300.0]) | st.floats(0.0, 300.0),
            st.sampled_from([10**3, 10**12, 2**62]) | st.integers(10**3, 2**62),
        ),
        min_size=1,
        max_size=4,
    ),
    st.floats(0.0, 2 * math.pi, exclude_max=True),
    st.booleans(),
)
def test_the_default_formulas_flag_no_channel_point(points, beta, asymptotic):
    cfg, ch, sec = make_config(), ChannelParams(beta=beta), SecurityParams()
    distances, sizes = (list(column) for column in zip(*points))
    options = {"asymptotic": asymptotic, "literal_paper_formulas": False, "n_total": sizes}
    reports = [
        analyze_batch(expected_tallies(cfg, ch, distances, n_total=sizes), cfg, sec, **options),
        *(runner(cfg, ch, sec, np.array(distances), **options) for runner in (run_six_four, run_six_state)),
    ]
    for report in reports:
        assert not flagged(report)


# -- rate properties on the analytic channel ---------------------------------------


# The analytic channel rounds each expected count to an integer, and one count
# can reverse the order of two nearby points' rates (0 km against 1.2e-7 km at
# a block of 511955619 pulses; 999999999999953 pulses against one more). So
# the two orderings are checked between points at least 1 km, or a factor 2
# in block size, apart.
@settings(max_examples=200, deadline=None)
@given(
    st.floats(0.0, 299.0), st.floats(1.0, 300.0), st.floats(0.0, TWO_PI, exclude_max=True),
    st.integers(10**8, 5 * 10**14), st.floats(2.0, 10**7),
)
def test_the_rate_falls_with_distance_rises_with_block_size_and_stays_below_asymptotic(
    near, step, beta, small, factor
):
    far, large = min(near + step, 300.0), min(int(small * factor), 10**15)
    cfg, ch, sec = make_config(), ChannelParams(beta=beta), SecurityParams()
    distances, sizes = [near, far, near], [small, small, large]
    tallies = expected_tallies(cfg, ch, distances, n_total=sizes)
    finite = analyze_batch(tallies, cfg, sec, n_total=sizes).key_rate
    asymptotic = analyze_batch(tallies, cfg, sec, n_total=sizes, asymptotic=True).key_rate
    assert (finite <= asymptotic).all(), (finite, asymptotic)
    assert finite[0] >= finite[1], finite
    assert finite[0] <= finite[2], finite
