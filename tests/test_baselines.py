import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfiqkd import ChannelParams, SecurityParams
from rfiqkd.baselines import run_six_four, run_six_state, six_four
from rfiqkd.channel import absorption, expected_tallies
from rfiqkd.core import CELL_INDEX, KINDS, BasisLabel, StateLabel
from rfiqkd.keyrate import analyze_tallies

from conftest import make_config


def test_six_four_tracks_four_state(ch, sec):
    cfg = make_config(n_total=10**13)
    for distance in (50.0, 120.0, 200.0):
        main = analyze_tallies(expected_tallies(cfg, ch, [distance])[0], cfg, sec)
        base = run_six_four(cfg, ch, sec, distance)
        assert base.key_rate == pytest.approx(main.key_rate, rel=0.05)


@pytest.mark.parametrize("beta", [0.0, 0.4])
def test_six_four_test_classes_are_the_four_state_x_basis_cells(beta):
    # at the default p_x0 and p_y0, rfi64's X- and Y-prepared classes measured in X
    # send the pulses of the (X0,X) and (Y0,X) cells, so one counting rule gives
    # them the same detections and errors, up to 2^62 pulses a block
    cfg, ch = make_config(), ChannelParams(beta=beta)
    rng = np.random.default_rng(1)
    sizes = [*np.exp2(rng.uniform(33.0, 62.0, 4095)).astype(np.int64).tolist(), 2**62]
    distances = rng.uniform(0.0, 300.0, len(sizes)).tolist()
    _, (detected, errors), _ = six_four(cfg, ch, distances, sizes)
    rows = [[CELL_INDEX[(s, BasisLabel.X, k)] for k in KINDS] for s in (StateLabel.X0, StateLabel.Y0)]
    cells = expected_tallies(cfg, ch, distances, n_total=sizes).counts[:, rows]
    assert np.array_equal(detected, cells[..., 1])
    assert np.array_equal(errors, cells[..., 2])


def test_six_state_same_order_of_magnitude(cfg, ch, sec):
    for distance in (50.0, 150.0):
        main = analyze_tallies(expected_tallies(cfg, ch, [distance])[0], cfg, sec)
        base = run_six_state(cfg, ch, sec, distance)
        assert main.key_rate > 0 and base.key_rate > 0
        assert 0.5 <= base.key_rate / main.key_rate <= 2.0


def test_lossless_noiseless_sifting_limits(sec):
    # With no loss, no intrinsic error and no dark counts, the asymptotic
    # rate is governed by the sifted single-photon fraction: the key basis
    # collects p_z_alice * p_z_bob of all pulses.
    from rfiqkd import ChannelParams

    ideal = ChannelParams(
        e0=0.0, alpha_db_per_km=0.0, eta_z_db=0.0, eta_xy_db=0.0,
        e_d=1e-12, eta_det=1.0,
    )
    cfg = make_config(n_total=10**12)
    from rfiqkd.decoy import tau

    tau1 = tau(1, cfg.intensities)
    main = analyze_tallies(
        expected_tallies(cfg, ideal, [0.0])[0], cfg, sec,
        asymptotic=True,
    )
    sifting = cfg.p_z_alice * cfg.p_z_bob
    # everything that is single-photon in the key basis survives (i_e = 0)
    assert main.key_rate == pytest.approx(sifting * tau1, rel=0.15)
    b64 = run_six_four(cfg, ideal, sec, 0.0, asymptotic=True)
    assert b64.key_rate == pytest.approx(sifting * tau1, rel=0.15)
    b66 = run_six_state(cfg, ideal, sec, 0.0, asymptotic=True)
    assert b66.key_rate == pytest.approx(sifting * tau1, rel=0.15)


def test_baselines_survive_fixed_rotation(cfg, ch, sec):
    # A fixed frame rotation must not destroy the key (the defining
    # property of these protocols), even though finite-size estimation
    # makes the extracted rate angle dependent.
    from dataclasses import replace

    rotated = replace(ch, beta=math.pi / 3)
    assert run_six_four(cfg, rotated, sec, 100.0).key_rate > 0.0
    assert run_six_state(cfg, rotated, sec, 100.0).key_rate > 0.0
    main = analyze_tallies(expected_tallies(cfg, rotated, [100.0])[0], cfg, sec)
    assert main.key_rate > 0.0


def test_six_state_receiver_split_reduces_key_data(cfg, ch, sec):
    # The six-state receiver keeps the same Z fraction (0.5), so its sifted
    # size matches; its X data is a quarter per preparation basis.
    base = run_six_state(cfg, ch, sec, 80.0)
    main = analyze_tallies(expected_tallies(cfg, ch, [80.0])[0], cfg, sec)
    assert base.n_zz == pytest.approx(main.n_zz, rel=0.01)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([0.0, 50.0, 200.0]) | st.floats(0.0, 300.0),
            st.sampled_from([10**6, 10**12, 2**53 + 1, 2**62]) | st.integers(10**6, 2**62),
        ),
        min_size=1,
        max_size=5,
    ),
    st.booleans(),
)
def test_each_point_takes_its_own_block_size(points, asymptotic):
    cfg, ch, sec = make_config(), ChannelParams(beta=0.4), SecurityParams()
    distances, sizes = (list(column) for column in zip(*points))
    for runner in (run_six_four, run_six_state):
        block = runner(cfg, ch, sec, np.array(distances), asymptotic, n_total=sizes)
        for i, (distance, n) in enumerate(points):
            alone = runner(replace(cfg, n_total=n), ch, sec, distance, asymptotic)
            for field in fields(alone)[:-1]:
                value = getattr(alone, field.name)
                # a scalar distance gives numbers, equal bit for bit to the block's entry
                assert isinstance(value, float)
                assert repr(getattr(block, field.name).item(i)) == repr(value)
            # and the same intermediates, its flags (c_clamped, negative_length) among them
            assert {"c_clamped", "negative_length"} <= set(block.intermediate)
            assert set(alone.intermediate) <= set(block.intermediate)
            for key, column in block.intermediate.items():
                if column.dtype == bool:
                    assert alone.intermediate.get(key) == (1.0 if column[i] else None)
                else:
                    assert repr(column.item(i)) == repr(alone.intermediate[key])


@pytest.mark.parametrize("sizes", [[10**12] * 8, [10**10, 10**11, 10**12, 10**13, 2**62] * 2])
@pytest.mark.parametrize("runner", [run_six_four, run_six_state])
def test_a_chunk_of_table_rows_gives_what_its_distances_give(runner, sizes):
    # a grid's one table, its rows gathered per point as a scan or compare chunk does
    cfg, ch, sec = make_config(), ChannelParams(beta=0.3), SecurityParams()
    grid = [0.0, 40.0, 130.0, 220.0]
    table = absorption(ch, cfg.intensities, grid)
    points = np.arange(len(sizes)) % len(grid)
    distances = [grid[i] for i in points]
    given_rows = runner(cfg, ch, sec, distances, n_total=sizes, absorbed=table[points])
    computed = runner(cfg, ch, sec, distances, n_total=sizes)
    pairs = [(getattr(given_rows, f.name), getattr(computed, f.name)) for f in fields(computed)[:-1]]
    assert given_rows.intermediate.keys() == computed.intermediate.keys()
    pairs += [(given_rows.intermediate[key], column) for key, column in computed.intermediate.items()]
    for got, expected in pairs:
        # repr tells every float apart, -0.0 and nan too, and reads object arrays by value
        assert (got.dtype, repr(got.tolist())) == (expected.dtype, repr(expected.tolist()))
