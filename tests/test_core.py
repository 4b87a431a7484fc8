import dataclasses

import pytest

from rfiqkd import ChannelParams, SecurityParams, validate_config
import numpy as np

from rfiqkd.core import (
    ALL_CELLS,
    MAX_PULSES,
    BasisLabel,
    CellCount,
    IntensityKind,
    ObservedTallies,
    StateLabel,
    TallyError,
    zero_tallies,
)

from conftest import make_config


def test_baseline_config_accepted(cfg, ch, sec):
    assert validate_config(cfg, ch, sec) == []


def test_intensity_ordering_rejected(ch, sec):
    cfg = make_config(intensities=__import__("rfiqkd").intensity_triple(
        0.3, 0.28, 0.1, 0.54, 0.36, 0.10))
    problems = validate_config(cfg, ch, sec)
    assert any("mu > nu + omega" in p for p in problems)


def test_probability_sum_checked(ch, sec):
    from rfiqkd import intensity_triple

    good = make_config(intensities=intensity_triple(0.55, 0.28, 0.0, 0.54, 0.36, 0.10))
    assert validate_config(good, ch, sec) == []
    bad = make_config(intensities=intensity_triple(0.55, 0.28, 0.0, 0.54, 0.36, 0.20))
    problems = validate_config(bad, ch, sec)
    assert any("sum to 1" in p for p in problems)


def test_all_violations_reported_together(sec):
    cfg = make_config(p_z_bob=1.5, n_total=0)
    ch = ChannelParams(e0=-0.1)
    problems = validate_config(cfg, ch, sec)
    assert len(problems) >= 3
    joined = "\n".join(problems)
    assert "p_z_bob" in joined and "n_total" in joined and "e0" in joined


def test_validation_idempotent(cfg, sec):
    ch = ChannelParams(e_d=2.0, beta=-1.0)
    first = validate_config(cfg, ch, sec)
    second = validate_config(cfg, ch, sec)
    assert first == second != []


def test_default_xy_probabilities_derived():
    cfg = make_config(p_z_alice=0.77)
    assert cfg.p_x0 == pytest.approx((1 - 0.77) / 2)
    assert cfg.p_y0 == pytest.approx((1 - 0.77) / 2)
    assert cfg.state_probability(StateLabel.Z0) == pytest.approx(0.385)


def test_security_defaults():
    sec = SecurityParams()
    assert sec.eps_bar == sec.eps_ec == sec.eps_pa == 1e-10
    assert sec.f_ec >= 1.0


def test_tallies_require_all_cells():
    cells = {key: CellCount(10, 5, 1) for key in ALL_CELLS[:-1]}
    with pytest.raises(TallyError, match="missing"):
        ObservedTallies(cells)


def test_tallies_reject_inconsistent_cell():
    cells = {key: CellCount(10, 5, 1) for key in ALL_CELLS}
    bad = ALL_CELLS[3]
    cells[bad] = CellCount(10, 5, 7)  # errors > detected
    with pytest.raises(TallyError, match="errors"):
        ObservedTallies(cells)


def test_tallies_addition_is_cellwise():
    a = ObservedTallies({key: CellCount(4, 2, 1) for key in ALL_CELLS})
    b = ObservedTallies({key: CellCount(6, 3, 0) for key in ALL_CELLS})
    total = a + b
    for key in ALL_CELLS:
        assert total.cells[key] == CellCount(10, 5, 1)
    assert zero_tallies() + a == a


def test_tallies_are_a_read_only_int64_array():
    tallies = ObservedTallies({key: CellCount(4, 2, 1) for key in ALL_CELLS})
    assert tallies.counts.shape == (24, 3) and tallies.counts.dtype == np.int64
    with pytest.raises(ValueError):
        tallies.counts[0, 0] = 5
    with pytest.raises(TypeError):
        tallies.cells[ALL_CELLS[0]] = CellCount(0, 0, 0)
    assert ObservedTallies(tallies.counts) == tallies
    detected = tallies.class_detected([StateLabel.Z0, StateLabel.Z1], BasisLabel.Z)
    assert detected == (4, 4, 4) and all(type(n) is int for n in detected)


def test_tallies_reject_wrong_array():
    with pytest.raises(TallyError, match="int64 array of shape"):
        ObservedTallies(np.zeros((24, 3)))


def test_tallies_reject_count_beyond_budget():
    cells = {key: CellCount(MAX_PULSES + 1, 0, 0) for key in ALL_CELLS}
    with pytest.raises(TallyError, match="exceeds the 64-bit count budget"):
        ObservedTallies(cells)


def test_tallies_reject_unequal_sent_between_bases():
    cells = {key: CellCount(10, 5, 1) for key in ALL_CELLS}
    cells[(StateLabel.Y0, BasisLabel.X, IntensityKind.OMEGA)] = CellCount(11, 5, 1)
    with pytest.raises(TallyError) as info:
        ObservedTallies(cells)
    assert str(info.value) == "pair (Y0,omega): sent differs between the Z and X rows, 10 != 11"


def test_tallies_refuse_fractional_counts():
    with pytest.raises(TypeError):
        ObservedTallies({key: CellCount(10.5, 5, 1) for key in ALL_CELLS})


@pytest.mark.parametrize("count", [2**61 + 1, MAX_PULSES])
def test_tallies_addition_never_wraps(count):
    big = ObservedTallies({key: CellCount(count, count, count) for key in ALL_CELLS})
    with pytest.raises(TallyError, match=r"cell \(Z0,Z,mu\): summed sent=.* exceeds"):
        big + big


def test_core_types_immutable(cfg, ch, sec):
    with pytest.raises(dataclasses.FrozenInstanceError):
        ch.e0 = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        sec.f_ec = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.p_z_bob = 0.9
