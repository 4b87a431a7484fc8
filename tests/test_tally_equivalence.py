"""The array-backed tallies against a pure-Python reference.

The reference keeps every table as a dict of ``CellCount`` and sums cell by
cell, pair of tables by pair of tables, in Python ints; grouping classifies
each slice from its X0 and Y0 signal cells and takes a group's pulse count
from the sent column of each (state, intensity) pair.
"""
import io
import math

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from rfiqkd.cli import read_tally_csv, write_tally_csv
from rfiqkd.core import (
    ALL_CELLS,
    BASES,
    KINDS,
    MAX_PULSES,
    STATES,
    TWO_PI,
    BasisLabel,
    CellCount,
    IntensityKind,
    ObservedTallies,
    StateLabel,
    TallyError,
)
from rfiqkd.keyrate import group_slices, total_pulses

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def cell_maps(draw, max_count=10**6):
    cells = {}
    for state in STATES:
        for kind in KINDS:
            sent = draw(st.integers(0, max_count))
            for basis in BASES:
                detected = draw(st.integers(0, sent))
                cells[(state, basis, kind)] = CellCount(
                    sent, detected, draw(st.integers(0, detected))
                )
    return cells


@st.composite
def slice_lists(draw, max_count=10**6):
    slices = draw(st.lists(cell_maps(max_count), min_size=1, max_size=6))
    if draw(st.booleans()):  # a slice without X0 signal detections: overflow group
        degenerate = dict(draw(cell_maps(max_count)))
        key = (StateLabel.X0, BasisLabel.X, IntensityKind.MU)
        degenerate[key] = CellCount(degenerate[key].sent, 0, 0)
        slices.insert(draw(st.integers(0, len(slices))), degenerate)
    return slices


def ref_add(a, b):
    return {
        key: CellCount(
            a[key].sent + b[key].sent,
            a[key].detected + b[key].detected,
            a[key].errors + b[key].errors,
        )
        for key in ALL_CELLS
    }


def ref_class_sums(cells, states, basis, field):
    return tuple(sum(getattr(cells[(s, basis, k)], field) for s in states) for k in KINDS)


def ref_angle(cells):
    """atan2(1 - 2 e_Y0X, 1 - 2 e_X0X) in [0, 2*pi), or None without detections."""
    xx = cells[(StateLabel.X0, BasisLabel.X, IntensityKind.MU)]
    yx = cells[(StateLabel.Y0, BasisLabel.X, IntensityKind.MU)]
    if xx.detected == 0 or yx.detected == 0:
        return None
    angle = math.atan2(1 - 2 * yx.errors / yx.detected, 1 - 2 * xx.errors / xx.detected)
    return angle % TWO_PI


def ref_pulses(cells):
    seen = {}
    for (state, _, kind), cc in cells.items():
        seen[(state, kind)] = cc.sent
    return sum(seen.values())


def ref_group_slices(slices, m_groups):
    zero = {key: CellCount(0, 0, 0) for key in ALL_CELLS}
    acc, counts = [zero] * m_groups, [0] * m_groups
    overflow, overflow_count = zero, 0
    width = TWO_PI / m_groups
    for cells in slices:
        if m_groups == 1:
            idx = 0
        else:
            angle = ref_angle(cells)
            if angle is None:
                overflow, overflow_count = ref_add(overflow, cells), overflow_count + 1
                continue
            idx = min(int(angle / width), m_groups - 1)
        acc[idx] = ref_add(acc[idx], cells)
        counts[idx] += 1
    buckets = [
        (i, i * width, (i + 1) * width, acc[i], counts[i], ref_pulses(acc[i]))
        for i in range(m_groups)
    ]
    if overflow_count:
        buckets.append((None, 0.0, TWO_PI, overflow, overflow_count, ref_pulses(overflow)))
    return buckets


def exceeds_budget(buckets):
    return any(cc.sent > MAX_PULSES for bucket in buckets for cc in bucket[3].values())


@SETTINGS
@given(cell_maps(MAX_PULSES), st.sets(st.sampled_from(STATES)), st.sampled_from(BASES))
def test_queries_match_reference(cells, states, basis):
    tallies = ObservedTallies(cells)
    assert dict(tallies.cells) == cells
    assert all(tallies.cell(*key) == cells[key] for key in ALL_CELLS)
    for field, query in (("detected", tallies.class_detected), ("errors", tallies.class_errors)):
        got = query(states, basis)
        assert got == ref_class_sums(cells, states, basis, field)
        assert all(type(n) is int for n in got)


@SETTINGS
@given(cell_maps(MAX_PULSES), cell_maps(MAX_PULSES))
def test_addition_and_equality_match_reference(a, b):
    ta, tb = ObservedTallies(a), ObservedTallies(b)
    assert (ta == tb) == (a == b)
    assert ta == ObservedTallies(dict(a))
    total = ref_add(a, b)
    event(f"beyond the budget: {any(cc.sent > MAX_PULSES for cc in total.values())}")
    if any(cc.sent > MAX_PULSES for cc in total.values()):
        with pytest.raises(TallyError):
            ta + tb
        return
    assert dict((ta + tb).cells) == total


@SETTINGS
@given(slice_lists(), st.integers(1, 6))
def test_grouping_matches_reference(slices, m_groups):
    grouped = group_slices([ObservedTallies(cells) for cells in slices], m_groups)
    got = [
        (b.index, b.rho_low, b.rho_high, dict(b.tallies.cells), b.n_slices, b.n_pulses)
        for b in grouped.buckets
    ]
    expected = ref_group_slices(slices, m_groups)
    event(f"overflow group: {expected[-1][0] is None}, m_groups = 1: {m_groups == 1}")
    assert got == expected


@SETTINGS
@given(slice_lists(MAX_PULSES), st.integers(1, 3))
def test_grouping_near_the_budget_matches_reference(slices, m_groups):
    tallies = [ObservedTallies(cells) for cells in slices]
    # the pulses of all slices together, which process takes as n_total
    assert total_pulses(tallies) == sum(ref_pulses(cells) for cells in slices)
    expected = ref_group_slices(slices, m_groups)
    event(f"beyond the budget: {exceeds_budget(expected)}")
    if exceeds_budget(expected):
        with pytest.raises(TallyError):
            group_slices(tallies, m_groups)
        return
    got = group_slices(tallies, m_groups)
    assert [(dict(b.tallies.cells), b.n_pulses) for b in got.buckets] == [
        (b[3], b[5]) for b in expected
    ]


@SETTINGS
@given(slice_lists(MAX_PULSES))
def test_csv_round_trip(slices):
    for chosen in (slices[:1], slices):  # unsliced and, with two or more, sliced
        tallies = [ObservedTallies(cells) for cells in chosen]
        buffer = io.StringIO()
        write_tally_csv(tallies, buffer)
        assert read_tally_csv(io.StringIO(buffer.getvalue())) == tallies
