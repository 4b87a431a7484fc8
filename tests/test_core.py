import dataclasses

import pytest

from rfiqkd import SecurityParams
import numpy as np

from rfiqkd.core import (
    ALL_CELLS,
    MAX_PULSES,
    CELL_INDEX,
    BasisLabel,
    IntensityKind,
    ObservedTallies,
    StateLabel,
    TallyBatch,
    TallyError,
)

from conftest import make_config


def test_default_xy_probabilities_derived():
    cfg = make_config(p_z_alice=0.77)
    assert cfg.p_x0 == pytest.approx((1 - 0.77) / 2)
    assert cfg.p_y0 == pytest.approx((1 - 0.77) / 2)
    assert cfg.state_probability(StateLabel.Z0) == pytest.approx(0.385)


def test_security_defaults():
    sec = SecurityParams()
    assert sec.eps_bar == sec.eps_ec == sec.eps_pa == 1e-10
    assert sec.f_ec >= 1.0


def uniform(sent, detected, errors):
    """A (24, 3) count array with the same counts in every cell."""
    return np.tile(np.array([sent, detected, errors], dtype=np.int64), (len(ALL_CELLS), 1))


def test_tallies_require_all_cells():
    counts = uniform(10, 5, 1)
    counts[-1] = -1  # the reader's mark of a cell it has not read
    with pytest.raises(TallyError, match="missing"):
        TallyBatch(counts[None])


def test_tallies_reject_inconsistent_cell():
    counts = uniform(10, 5, 1)
    counts[3] = (10, 5, 7)  # errors > detected
    with pytest.raises(TallyError, match="errors"):
        ObservedTallies(counts)


def test_tallies_addition_is_cellwise():
    a = ObservedTallies(uniform(4, 2, 1))
    b = ObservedTallies(uniform(6, 3, 0))
    total = a + b
    for key in ALL_CELLS:
        assert total.counts[CELL_INDEX[key]].tolist() == [10, 5, 1]
    assert ObservedTallies(uniform(0, 0, 0)) + a == a


def test_tallies_are_a_read_only_int64_array():
    tallies = ObservedTallies(uniform(4, 2, 1))
    assert tallies.counts.shape == (24, 3) and tallies.counts.dtype == np.int64
    with pytest.raises(ValueError):
        tallies.counts[0, 0] = 5
    assert ObservedTallies(tallies.counts) == tallies
    detected = tallies.class_detected([StateLabel.Z0, StateLabel.Z1], BasisLabel.Z)
    assert detected == (4, 4, 4) and all(type(n) is int for n in detected)


def test_a_batch_is_read_only_and_holds_no_view():
    owned = np.stack([uniform(4, 2, 1)] * 3)
    batch = TallyBatch(owned)
    assert batch.counts is owned and len(batch) == 3 and list(batch.slices) == [0, 1, 2]
    with pytest.raises(ValueError):
        batch.counts[0, 0, 0] = 5
    whole = np.stack([uniform(4, 2, 1)] * 3)
    part = TallyBatch(whole[1:])
    assert len(part) == 2 and not np.shares_memory(part.counts, whole)
    assert whole.flags.writeable and not part.counts.flags.writeable


def test_tallies_reject_wrong_array():
    with pytest.raises(TallyError, match="int64 array of shape"):
        ObservedTallies(np.zeros((24, 3)))
    with pytest.raises(TallyError, match=r"^expected an int64 array of shape \(n, 24, 3\), got int64 \(24, 3\)$"):
        TallyBatch(np.zeros((24, 3), dtype=np.int64))


def test_tallies_reject_count_beyond_budget():
    with pytest.raises(TallyError, match="exceeds the 64-bit count budget"):
        ObservedTallies(uniform(MAX_PULSES + 1, 0, 0))


def test_tallies_reject_unequal_sent_between_bases():
    counts = uniform(10, 5, 1)
    counts[CELL_INDEX[(StateLabel.Y0, BasisLabel.X, IntensityKind.OMEGA)]] = (11, 5, 1)
    with pytest.raises(TallyError) as info:
        ObservedTallies(counts)
    assert str(info.value) == "pair (Y0,omega): sent differs between the Z and X rows, 10 != 11"


def test_tallies_refuse_fractional_counts():
    with pytest.raises(TallyError, match="int64 array of shape"):
        ObservedTallies(np.full((24, 3), 10.5))


@pytest.mark.parametrize("count", [2**61 + 1, MAX_PULSES])
def test_tallies_addition_never_wraps(count):
    big = ObservedTallies(uniform(count, count, count))
    with pytest.raises(TallyError, match=r"cell \(Z0,Z,mu\): summed sent=.* exceeds"):
        big + big


def test_core_types_immutable(cfg, ch, sec):
    with pytest.raises(dataclasses.FrozenInstanceError):
        ch.e0 = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        sec.f_ec = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.p_z_bob = 0.9
