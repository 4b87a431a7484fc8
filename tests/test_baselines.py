import math

import pytest

from rfiqkd.baselines import run_six_four, run_six_state
from rfiqkd.channel import expected_tallies
from rfiqkd.keyrate import analyze_tallies

from conftest import make_config


def test_six_four_tracks_four_state(ch, sec):
    cfg = make_config(n_total=10**13)
    for distance in (50.0, 120.0, 200.0):
        main = analyze_tallies(expected_tallies(cfg, ch, [distance])[0], cfg, sec)
        base = run_six_four(cfg, ch, sec, distance)
        assert base.key_rate == pytest.approx(main.key_rate, rel=0.05)


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
