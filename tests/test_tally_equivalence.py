"""The array-backed tallies against a pure-Python reference.

The reference keeps every table as a dict of ``CellCount`` and sums cell by
cell, pair of tables by pair of tables, in Python ints; grouping classifies
each slice from its X0 and Y0 signal cells and takes a group's pulse count
from the sent column of each (state, intensity) pair.
"""
import io
import math
from typing import NamedTuple

import numpy as np
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
    IntensityKind,
    ObservedTallies,
    StateLabel,
    TallyBatch,
    TallyError,
)
from rfiqkd.keyrate import group_slices, total_pulses

SETTINGS = settings(max_examples=60, deadline=None)


class CellCount(NamedTuple):
    """Counts for one (state, basis, intensity) cell."""

    sent: int
    detected: int
    errors: int


def as_array(cells):
    """The (24, 3) count array of a dict of all 24 cells."""
    return np.array([cells[key] for key in ALL_CELLS], dtype=np.int64)


def as_cells(counts):
    """The dict of all 24 cells of a (24, 3) count array."""
    return {key: CellCount(*row) for key, row in zip(ALL_CELLS, counts.tolist())}


def batch_of_maps(slices):
    return TallyBatch(np.stack([as_array(cells) for cells in slices]))


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
    tallies = ObservedTallies(as_array(cells))
    assert as_cells(tallies.counts) == cells
    for field, query in (("detected", tallies.class_detected), ("errors", tallies.class_errors)):
        got = query(states, basis)
        assert got == ref_class_sums(cells, states, basis, field)
        assert all(type(n) is int for n in got)


@SETTINGS
@given(cell_maps(MAX_PULSES), cell_maps(MAX_PULSES))
def test_addition_and_equality_match_reference(a, b):
    ta, tb = ObservedTallies(as_array(a)), ObservedTallies(as_array(b))
    assert (ta == tb) == (a == b)
    assert ta == ObservedTallies(as_array(dict(a)))
    total = ref_add(a, b)
    event(f"beyond the budget: {any(cc.sent > MAX_PULSES for cc in total.values())}")
    if any(cc.sent > MAX_PULSES for cc in total.values()):
        with pytest.raises(TallyError):
            ta + tb
        return
    assert as_cells((ta + tb).counts) == total


@SETTINGS
@given(slice_lists(), st.integers(1, 6))
def test_grouping_matches_reference(slices, m_groups):
    grouped = group_slices(batch_of_maps(slices), m_groups)
    got = [
        (b.index, b.rho_low, b.rho_high, as_cells(b.tallies.counts), b.n_slices, b.n_pulses)
        for b in grouped.buckets
    ]
    expected = ref_group_slices(slices, m_groups)
    event(f"overflow group: {expected[-1][0] is None}, m_groups = 1: {m_groups == 1}")
    assert got == expected


@SETTINGS
@given(slice_lists(MAX_PULSES), st.integers(1, 3))
def test_grouping_near_the_budget_matches_reference(slices, m_groups):
    tallies = batch_of_maps(slices)
    # the pulses of all slices together, which process takes as n_total
    assert total_pulses(tallies) == sum(ref_pulses(cells) for cells in slices)
    expected = ref_group_slices(slices, m_groups)
    event(f"beyond the budget: {exceeds_budget(expected)}")
    if exceeds_budget(expected):
        with pytest.raises(TallyError):
            group_slices(tallies, m_groups)
        return
    got = group_slices(tallies, m_groups)
    assert [(as_cells(b.tallies.counts), b.n_pulses) for b in got.buckets] == [
        (b[3], b[5]) for b in expected
    ]


@SETTINGS
@given(slice_lists(MAX_PULSES))
def test_csv_round_trip(slices):
    for chosen in (slices[:1], slices):  # unsliced and, with two or more, sliced
        tallies = batch_of_maps(chosen)
        buffer = io.StringIO()
        write_tally_csv(tallies, buffer)
        read = read_tally_csv(io.StringIO(buffer.getvalue()))
        assert [as_cells(table) for table in read.counts] == chosen


def ref_batch_problem(tables, slices):
    """What the per-slice checks raise for the first bad table: its missing
    cells, else the message of ``ObservedTallies``; None if every table is good."""
    for index, table in zip(slices, tables):
        missing = [key for key, row in zip(ALL_CELLS, table) if row[0] < 0]
        if missing:
            return f"slice {index}: expected 24 cells, got {24 - len(missing)}; missing {missing}"
        try:
            ObservedTallies(np.array(table, dtype=np.int64))
        except TallyError as exc:
            return f"slice {index}: {exc}"
    return None


@st.composite
def faulty_batches(draw):
    """Count rows of valid tables with up to four faults, and slice indices
    or None for the default ones."""
    slices = draw(st.lists(cell_maps(MAX_PULSES), min_size=1, max_size=5))
    tables = [as_array(cells).tolist() for cells in slices]
    for _ in range(draw(st.integers(0, 4))):
        table = tables[draw(st.integers(0, len(tables) - 1))]
        state, basis, kind = key = draw(st.sampled_from(ALL_CELLS))
        row = table[ALL_CELLS.index(key)]
        fault = draw(st.sampled_from(["missing", "errors", "budget", "pair", "negative"]))
        if fault == "missing":  # as the reader marks a cell it has not read
            row[:] = [-1, -1, -1]
        elif fault == "errors":
            row[2] = row[1] + draw(st.integers(1, MAX_PULSES))
        elif fault == "budget":  # in both rows of the pair, which stay equal
            sent = draw(st.integers(MAX_PULSES + 1, 2**63 - 1))
            for other in BASES:
                table[ALL_CELLS.index((state, other, kind))][0] = sent
        elif fault == "pair":
            row[0] += 1
        else:
            row[draw(st.integers(1, 2))] = -draw(st.integers(1, 2**63))
    indices = None
    if draw(st.booleans()):
        indices = sorted(draw(st.sets(st.integers(0, 2**70), min_size=len(tables), max_size=len(tables))))
    return tables, indices


@settings(max_examples=200, deadline=None)
@given(faulty_batches())
def test_batch_check_matches_the_per_slice_checks(case):
    tables, slices = case
    expected = ref_batch_problem(tables, slices or range(len(tables)))
    event(f"refused: {expected is not None}")
    if expected is None:
        batch = TallyBatch(np.array(tables, dtype=np.int64), slices or ())
        assert batch.counts.tolist() == tables
        return
    with pytest.raises(TallyError) as info:
        TallyBatch(np.array(tables, dtype=np.int64), slices or ())
    assert str(info.value) == expected
