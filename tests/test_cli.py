import argparse
import io
import math
import re
import tempfile
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfiqkd import analyze_tallies, baselines, channel, cli, keyrate
from rfiqkd.channel import expected_tallies
from rfiqkd.cli import MAX_GROUPS
from rfiqkd.core import ObservedTallies, TallyBatch, TallyError
from rfiqkd.simulate import drift_beta, sample_tallies


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_point_operating_point_exit_zero(tmp_path):
    code, out, err = run_cli(["point", "--distance", "200"])
    assert code == cli.EXIT_OK, err
    values = dict(
        line.split(" = ") for line in out.strip().splitlines() if " = " in line
    )
    rate = float(values["key_rate"])
    assert 6e-7 <= rate <= 1.5e-5


def test_point_back_to_back_sane():
    code, out, _ = run_cli(["point", "--distance", "0", "--n-total", "1e13"])
    assert code == cli.EXIT_OK
    values = dict(l.split(" = ") for l in out.strip().splitlines() if " = " in l)
    assert float(values["key_rate"]) > 0
    assert float(values["e_zz"]) == pytest.approx(0.01, abs=2e-3)


def test_point_small_block_has_no_key():
    code, out, _ = run_cli(["point", "--distance", "200", "--n-total", "1e6"])
    assert code == cli.EXIT_NO_KEY
    assert "intermediate.negative_length = 1" in out


def test_invalid_config_is_exit_one(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("mu = 0.2\nnu = 0.28\n")
    code, _, err = run_cli(["point", "--config", str(bad)])
    assert code == cli.EXIT_ERROR
    assert err == (
        "config error: mu: need mu*(nu-omega) > nu^2-omega^2, got mu=0.2 nu=0.28 omega=0.0\n"
    )


@pytest.mark.parametrize(
    "line, message",
    [
        ("f_ec = nan", "f_ec: must be finite and >= 1, got nan"),
        ("mu = inf", "mu: must be finite and >= 0, got inf"),
        ("eta_z_db = inf", "eta_z_db: must be finite and >= 0, got inf"),
        ("alpha_db_per_km = nan", "alpha_db_per_km: must be finite and >= 0, got nan"),
    ],
    ids=["f_ec-nan", "mu-inf", "eta_z_db-inf", "alpha_db_per_km-nan"],
)
def test_a_non_finite_value_is_a_config_error(tmp_path, line, message):
    config = tmp_path / "probe.cfg"
    config.write_text(line + "\n")
    code, out, err = run_cli(["point", "--config", str(config)])
    assert code == cli.EXIT_ERROR
    assert out == ""
    assert err == f"config error: {message}\n"


@pytest.mark.parametrize(
    "lines, message",
    [
        ("nu = 0.1\nomega = 0.1\n", "nu: must be > omega, got nu=0.1 omega=0.1"),
        ("nu = 1e-320\n", "nu: a count of 2^62 overflows a decoy bound, got nu=1e-320 p_nu=0.36"),
        ("mu = 800\nnu = 1\n", "mu: the decoy constants fail (math range error), got mu=800.0"),
        ("mu = 700\nnu = 1\n", "mu: a count of 2^62 overflows a decoy bound, got mu=700.0 p_mu=0.54"),
        ("p_omega = 0\np_mu = 0.64\n", "p_omega: must be > 0, got 0.0"),
        ("eps_bar = 1e-320\n", "eps_bar: must be in (0,1) with 2/eps_bar finite, got 1e-320"),
        ("eps_ec = 1e-320\n", "eps_ec: must be in (0,1) with 2/eps_ec finite, got 1e-320"),
        ("beta_rad = 7\n", "beta_rad: must be in [0, 2*pi), got 7.0"),
        ("mu = 0.3\nomega = 0.1\n",
         "mu: need mu*(nu-omega) > nu^2-omega^2, got mu=0.3 nu=0.28 omega=0.1"),
        ("p_omega = 0.2\n", "p_mu + p_nu + p_omega must sum to 1, got 1.1"),
        ("f_ec = 1e300\n", "f_ec: must keep f_ec*2^62 finite, got 1e+300"),
    ],
    ids=["nu-equals-omega", "nu-subnormal", "mu-800", "mu-700", "p_omega-0", "eps_bar-tiny",
         "eps_ec-tiny", "beta_rad-7", "intensity-ordering", "probability-sum", "f_ec-1e300"],
)
def test_an_intensity_or_epsilon_probe_is_one_config_error(tmp_path, lines, message):
    config = tmp_path / "probe.cfg"
    config.write_text(lines)
    code, out, err = run_cli(["point", "--config", str(config)])
    assert (code, out, err) == (cli.EXIT_ERROR, "", f"config error: {message}\n")


def test_the_baseline_config_written_out_is_accepted(tmp_path):
    config = tmp_path / "baseline.cfg"
    config.write_text(
        "mu = 0.55\nnu = 0.28\nomega = 0\np_mu = 0.54\np_nu = 0.36\np_omega = 0.10\n"
        "p_z_alice = 0.77\np_z_bob = 0.5\nn_total = 3e12\nm_groups = 1\n"
    )
    code, out, err = run_cli(["point", "--config", str(config)])
    assert (code, err) == (cli.EXIT_OK, "")
    assert out == run_cli(["point"])[1]


@pytest.mark.parametrize(
    "lines, messages",
    [
        ("p_mu = 2\n",
         ["p_mu: must be in [0,1], got 2.0", "p_mu + p_nu + p_omega must sum to 1, got 2.46"]),
        ("p_z_bob = 1.5\ne0 = -0.1\nm_groups = 0\n",
         ["e0: must be in [0,1], got -0.1", "m_groups: must be >= 1, got 0",
          "p_z_bob: must be in (0,1), got 1.5"]),
        ("e_d = 2\nbeta_rad = -1\n",
         ["beta_rad: must be in [0, 2*pi), got -1.0", "e_d: must be in [0,1], got 2.0"]),
    ],
    ids=["p_mu-2", "three-keys", "e_d-and-beta_rad"],
)
def test_every_violation_is_reported_together_and_alike_each_time(tmp_path, lines, messages):
    config = tmp_path / "probe.cfg"
    config.write_text(lines)
    first, second = (run_cli(["point", "--config", str(config)]) for _ in range(2))
    assert first == second == (cli.EXIT_ERROR, "", "".join(f"config error: {m}\n" for m in messages))


def test_a_repeated_config_key_names_both_lines(tmp_path):
    config = tmp_path / "twice.cfg"
    config.write_text("mu = 0.55\n# the signal again\nnu = 0.28\nmu = 0.6\n")
    code, out, err = run_cli(["point", "--config", str(config)])
    assert code == cli.EXIT_ERROR
    assert out == ""
    assert err == "error: line 4: key 'mu' repeats line 1\n"


def test_unknown_config_keys_rejected(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("mu = 0.55\nbanana = 1\n")
    code, _, err = run_cli(["point", "--config", str(bad)])
    assert code == cli.EXIT_ERROR
    assert "banana" in err and "line 2" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["point", "--distance", "-1"],
        ["point", "--distance", "nan"],
        ["simulate", "--distance", "inf"],
        ["point", "--distance=-inf"],
    ],
)
def test_distance_must_be_finite_and_non_negative(argv):
    code, out, err = run_cli(argv)
    assert code == cli.EXIT_ERROR
    assert out == ""
    assert err.startswith("config error: distance_km: must be finite and >= 0, got ")


@pytest.mark.parametrize(
    "lines, message",
    [
        ("n_slices = 0\n", "n_slices: must be >= 1, got 0"),
        ("n_slices = -1\n", "n_slices: must be >= 1, got -1"),
        (
            "drift = sinusoidal\nn_slices = 4\ndrift_period = 0\n",
            "drift_period: must be > 0 with 2*pi/drift_period finite, got 0.0",
        ),
        (
            "drift = sinusoidal\nn_slices = 4\ndrift_period = 1e-320\n",
            "drift_period: must be > 0 with 2*pi/drift_period finite, got 1e-320",
        ),
        (
            "drift = linear\nn_slices = 4\ndrift_rate_rad = nan\n",
            "drift_rate_rad: must be finite, got nan",
        ),
        (
            "drift = linear\nn_slices = 4\ndrift_beta0_rad = inf\n",
            "drift_beta0_rad: must be finite, got inf",
        ),
        (
            "drift = sinusoidal\nn_slices = 4\ndrift_amplitude_rad = -inf\n",
            "drift_amplitude_rad: must be finite, got -inf",
        ),
        (
            "scan_min_km = -20\nscan_max_km = 0\nscan_step_km = 10\n",
            "scan_min_km: must be finite and >= 0, got -20.0",
        ),
        ("scan_min_km = nan\n", "scan_min_km: must be finite and >= 0, got nan"),
        ("scan_max_km = inf\n", "scan_max_km: must be finite, got inf"),
        ("scan_step_km = nan\n", "scan_step_km: must be finite and > 0, got nan"),
        ("scan_step_km = 0\n", "scan_step_km: must be finite and > 0, got 0.0"),
        ("scan_step_km = inf\n", "scan_step_km: must be finite and > 0, got inf"),
    ],
)
def test_slice_count_and_drift_period_must_be_positive(tmp_path, lines, message):
    config = tmp_path / "drift.cfg"
    config.write_text(lines)
    key = message.partition(":")[0]
    readers = sorted(command for command, keys in cli.COMMANDS.items() if key in keys)
    assert readers in (["point", "simulate"], ["compare", "scan"])
    for command in readers:
        code, out, err = run_cli([command, "--config", str(config)])
        assert code == cli.EXIT_ERROR
        assert out == ""
        assert err == f"config error: {message}\n"


@pytest.mark.parametrize("command", ["scan", "compare"])
def test_grid_with_an_infinite_point_count_is_rejected(tmp_path, command):
    config = tmp_path / "grid.cfg"
    config.write_text("scan_max_km = 1e308\nscan_step_km = 1e-300\n")
    code, out, err = run_cli([command, "--config", str(config)])
    assert code == cli.EXIT_ERROR
    assert out == ""
    assert err == (
        "config error: scan_step_km: 1e-300 km steps over [0.0, 1e+308] km "
        "are too many to count\n"
    )


@pytest.mark.parametrize("command", ["scan", "compare"])
def test_grid_over_the_point_budget_is_rejected_before_it_is_built(tmp_path, monkeypatch, command):
    # a finite count far past the budget: the grid must not be listed at all
    def unbuilt(*args):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(cli, "_grid", unbuilt)
    config = tmp_path / "grid.cfg"
    config.write_text("scan_max_km = 1e300\nscan_step_km = 50\n")
    code, out, err = run_cli([command, "--config", str(config)])
    assert (code, out) == (cli.EXIT_ERROR, "")
    assert err == (
        "config error: scan_step_km: 50.0 km steps over [0.0, 1e+300] km give 2e+298 distances, "
        "over the 1000000 a grid may have\n"
    )
    # the budget itself is allowed: 0, 1, ..., MAX_GRID_POINTS - 1 km
    monkeypatch.setattr(cli, "_grid", lambda *args: iter(()))
    config.write_text(f"scan_max_km = {cli.MAX_GRID_POINTS - 1}\nscan_step_km = 1\n")
    assert cli._grid_count(0.0, cli.MAX_GRID_POINTS - 1.0, 1.0) == cli.MAX_GRID_POINTS
    code, out, err = run_cli([command, "--config", str(config)])
    assert (code, len(out.splitlines()), err) == (cli.EXIT_NO_KEY, 1, "")
    config.write_text(f"scan_max_km = {cli.MAX_GRID_POINTS}\nscan_step_km = 1\n")
    code, out, err = run_cli([command, "--config", str(config)])
    assert (code, out) == (cli.EXIT_ERROR, "")
    assert err == (
        "config error: scan_step_km: 1.0 km steps over [0.0, 1000000.0] km give 1000001 distances, "
        "over the 1000000 a grid may have\n"
    )


@pytest.mark.parametrize(
    "command, lines, message",
    [
        ("point", "n_slices = 100000000\nn_total = 3e12\n",
         "n_slices: exceeds the slice budget 1000000, got 100000000"),
        ("simulate", "n_slices = 1000001\n", "n_slices: exceeds the slice budget 1000000, got 1000001"),
        ("point", "m_groups = 1000000000\n", "m_groups: exceeds the group budget 10000, got 1000000000"),
        ("point", "m_groups = 1000000000000000000000\n",
         "m_groups: exceeds the group budget 10000, got 1000000000000000000000"),
        ("process", "m_groups = 10001\n", "m_groups: exceeds the group budget 10000, got 10001"),
    ],
)
def test_slices_and_groups_over_their_budget_are_rejected_before_any_is_built(
    tmp_path, monkeypatch, tally_file, command, lines, message
):
    def unbuilt(*args):
        raise AssertionError("slices were built or grouped")

    monkeypatch.setattr(cli, "_make_slices", unbuilt)
    monkeypatch.setattr(keyrate, "group_slices", unbuilt)
    config = tmp_path / "budget.cfg"
    config.write_text(lines)
    code, out, err = run_cli(_argv(command, tally_file) + ["--config", str(config)])
    assert (code, out, err) == (cli.EXIT_ERROR, "", f"config error: {message}\n")


@pytest.mark.parametrize(
    "command, lines, message",
    [
        ("point", "drift = linear\ndrift_beta0_rad = 1.7e308\ndrift_rate_rad = 1.7e308\n",
         "drift_beta0_rad + drift_rate_rad*(n_slices-1)/n_slices must be finite, "
         "got 1.7e+308 + 1.7e+308*3/4"),
        ("simulate", "drift = sinusoidal\ndrift_beta0_rad = -1.7e308\ndrift_amplitude_rad = 1.7e308\n",
         "drift_beta0_rad +/- drift_amplitude_rad must be finite, got -1.7e+308 +/- 1.7e+308"),
    ],
    ids=["linear", "sinusoidal"],
)
def test_a_drift_whose_angle_overflows_is_rejected_before_any_slice_is_made(
    tmp_path, monkeypatch, command, lines, message
):
    def unbuilt(*args):
        raise AssertionError("slices were built")

    monkeypatch.setattr(cli, "_make_slices", unbuilt)
    config = tmp_path / "drift.cfg"
    config.write_text(lines + "n_total = 4000000\nn_slices = 4\n")
    code, out, err = run_cli([command, "--config", str(config)])
    assert (code, out, err) == (cli.EXIT_ERROR, "", f"config error: {message}\n")
    # one slice takes the channel's angle and reads no drift key
    config.write_text(lines + "n_total = 4000000\n")
    monkeypatch.setattr(cli, "_make_slices", lambda *args: TallyBatch(np.zeros((1, 24, 3), np.int64)))
    assert run_cli([command, "--config", str(config)])[2] == ""


@pytest.mark.parametrize("command", ["point", "simulate"])
def test_a_block_size_its_slices_do_not_divide_is_a_config_error(tmp_path, monkeypatch, command):
    def unbuilt(*args):
        raise AssertionError("slices were built")

    monkeypatch.setattr(cli, "_make_slices", unbuilt)
    config = tmp_path / "slices.cfg"
    config.write_text("n_total = 10\nn_slices = 3\np_z_bob = 2\n")
    code, out, err = run_cli([command, "--config", str(config)])
    assert (code, out) == (cli.EXIT_ERROR, "")
    assert err.splitlines() == [
        "config error: p_z_bob: must be in (0,1), got 2.0",
        "config error: n_total=10 is not divisible by n_slices=3",
    ]


def test_the_slice_and_group_budgets_themselves_are_allowed(tmp_path, monkeypatch):
    # 10**6 slices of the default block pass the checks; the slices made stand
    # in as one without detections, so each of the 10**4 groups is empty and
    # diagnosed as such, and the slice lands in the overflow group
    assert (cli.MAX_SLICES, MAX_GROUPS) == (10**6, 10**4)
    monkeypatch.setattr(cli, "_make_slices", lambda *args: TallyBatch(np.zeros((1, 24, 3), np.int64)))
    config = tmp_path / "budget.cfg"
    config.write_text(f"n_slices = {cli.MAX_SLICES}\nm_groups = {MAX_GROUPS}\n")
    code, out, err = run_cli(["point", "--config", str(config)])
    assert (code, err) == (cli.EXIT_NO_KEY, "")
    assert out.count("skipped: empty group") == MAX_GROUPS
    assert "group overflow: rho=[0,6.28318530718) slices=1 pulses=0" in out


@pytest.mark.parametrize("value", ["nan", "2", "-1.5"])
def test_a_bad_p_z_alice_is_reported_once_not_as_its_derived_keys(tmp_path, value):
    config = tmp_path / "derived.cfg"
    config.write_text(f"p_z_alice = {value}\n")
    code, out, err = run_cli(["point", "--config", str(config)])
    assert (code, out) == (cli.EXIT_ERROR, "")
    assert err == f"config error: p_z_alice: must be in [0,1], got {float(value)}\n"


def test_a_p_x0_set_out_of_range_is_reported_under_its_own_name(tmp_path):
    config = tmp_path / "set.cfg"
    config.write_text("p_x0 = -0.5\np_z_alice = 2\n")  # p_y0 derived: -0.5
    code, out, err = run_cli(["point", "--config", str(config)])
    assert (code, out) == (cli.EXIT_ERROR, "")
    assert err.splitlines() == [
        "config error: p_x0: must be in [0,1], got -0.5",
        "config error: p_z_alice: must be in [0,1], got 2.0",
    ]
    config.write_text("p_x0 = 2\n")  # p_z_alice and p_y0 in range; the sum is not
    code, out, err = run_cli(["point", "--config", str(config)])
    assert err.splitlines() == [
        "config error: p_x0: must be in [0,1], got 2.0",
        "config error: p_z_alice + p_x0 + p_y0 must sum to 1, got 2.885",
    ]


@pytest.mark.parametrize("command", ["scan", "compare"])
def test_grid_whose_span_overflows_below_is_empty(tmp_path, command):
    # scan_max_km - scan_min_km is -inf: no point, not an OverflowError
    config = tmp_path / "grid.cfg"
    config.write_text("scan_min_km = 1.7e308\nscan_max_km = -1.7e308\n")
    code, out, err = run_cli([command, "--config", str(config)])
    assert (code, err) == (cli.EXIT_NO_KEY, "")
    assert len(out.splitlines()) == 1


def test_show_defaults_provenance():
    code, out, _ = run_cli(["point", "--show-defaults"])
    assert code == cli.EXIT_OK
    assert "alpha_db_per_km = 0.19  (default: baseline hardware parameters)" in out
    assert "p_z_bob = 0.5  (default: assumption" in out


def test_scan_header_and_monotone_rates():
    code, out, _ = run_cli(["scan", "--n-total", "1e13"])
    assert code == cli.EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "distance_km,n_total,key_rate,c44_lower,e_zz,s1_lower,flags"
    rates = [float(r.split(",")[2]) for r in lines[1:]]
    positive = [r for r in rates if r > 0]
    assert all(a >= b for a, b in zip(positive, positive[1:]))
    assert all(math.isfinite(float(f)) for row in lines[1:] for f in row.split(",")[:6] if f)


def test_scan_empty_range_is_header_only(tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("scan_min_km = 10\nscan_max_km = 5\nscan_step_km = 5\n")
    code, out, _ = run_cli(["scan", "--config", str(cfg)])
    assert out.strip() == "distance_km,n_total,key_rate,c44_lower,e_zz,s1_lower,flags"
    assert code == cli.EXIT_NO_KEY


def test_scan_block_family_ordering(tmp_path):
    cfg = tmp_path / "family.cfg"
    cfg.write_text("n_values = 1e11,1e12,1e13\nscan_step_km = 50\n")
    code, out, _ = run_cli(["scan", "--config", str(cfg)])
    assert code == cli.EXIT_OK
    by_n = {}
    for row in out.strip().splitlines()[1:]:
        parts = row.split(",")
        by_n.setdefault(int(parts[1]), {})[float(parts[0])] = float(parts[2])
    ns = sorted(by_n)
    assert ns == [10**11, 10**12, 10**13]
    for small, large in zip(ns, ns[1:]):
        for dist in by_n[small]:
            assert by_n[large][dist] >= by_n[small][dist]


def test_compare_agreement(tmp_path):
    code, out, _ = run_cli(["compare", "--n-total", "1e13"])
    assert code == cli.EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "distance_km,n_total,protocol,key_rate,c_lower,e_zz,flags"
    by_dist = {}
    for row in lines[1:]:
        parts = row.split(",")
        by_dist.setdefault(float(parts[0]), {})[parts[2]] = float(parts[3])
    for dist, rates in by_dist.items():
        assert set(rates) == {"rfi44", "rfi64", "rfi66"}
        r44, r64, r66 = rates["rfi44"], rates["rfi64"], rates["rfi66"]
        if r44 > 1e-8 and r64 > 1e-8:
            assert abs(r44 - r64) / max(r44, r64) <= 0.05
            assert 0.5 <= r66 / r44 <= 2.0


def test_tally_round_trip(tmp_path):
    dump = tmp_path / "tallies.csv"
    out_a = tmp_path / "point.txt"
    code, _, _ = run_cli([
        "point", "--distance", "120", "--dump-tallies", str(dump), "--out", str(out_a)
    ])
    assert code == cli.EXIT_OK
    out_b = tmp_path / "process.txt"
    code, _, _ = run_cli([
        "process", str(dump), "--out", str(out_b)
    ])
    assert code == cli.EXIT_OK
    text_a = out_a.read_text().splitlines()
    text_b = out_b.read_text().splitlines()
    # identical report bodies; only the leading context lines differ
    assert text_a[2:] == text_b[1:]
    assert text_a[2:]  # non-empty


@pytest.mark.parametrize(
    "config",
    [
        "distance_km = 50\n",
        "distance_km = 50\nmode = montecarlo\nn_slices = 4\ndrift = linear\nm_groups = 2\n",
    ],
    ids=["single", "grouped"],
)
def test_process_takes_n_total_from_the_file(tmp_path, config):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    dump = tmp_path / "tallies.csv"
    code, point_out, err = run_cli([
        "point", "--config", str(cfg), "--n-total", "1e10", "--dump-tallies", str(dump)
    ])
    assert code == cli.EXIT_OK, err
    # without --n-total, so the configured default of 3e12 pulses is wrong
    code, process_out, err = run_cli(["process", str(dump), "--config", str(cfg)])
    assert code == cli.EXIT_OK, err
    # the report, from "n_total =" (or the first group) on, after one context
    # line in process and two in point
    assert process_out.splitlines()[1:] == point_out.splitlines()[2:]


def test_process_rejects_inconsistent_cell(tmp_path):
    dump = tmp_path / "tallies.csv"
    run_cli(["point", "--distance", "120", "--dump-tallies", str(dump)])
    rows = dump.read_text().splitlines()
    parts = rows[1].split(",")
    parts[4], parts[5] = "10", "20"  # errors > detected
    rows[1] = ",".join(parts)
    dump.write_text("\n".join(rows) + "\n")
    code, _, err = run_cli(["process", str(dump)])
    assert code == cli.EXIT_ERROR
    assert "(Z0,Z,mu)" in err


def test_process_cites_line_numbers(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("state,basis,intensity,sent,detected,errors\nZ0,Z,mu,abc,1,0\n")
    code, _, err = run_cli(["process", str(path)])
    assert code == cli.EXIT_ERROR
    assert "line 2" in err and "sent" in err


def test_simulate_then_process_sliced(tmp_path):
    cfg = tmp_path / "mc.cfg"
    cfg.write_text(
        "n_total = 1e9\nmode = montecarlo\ndrift = linear\nn_slices = 10\n"
        "m_groups = 6\ndistance_km = 50\n"
    )
    tallies = tmp_path / "sliced.csv"
    code, _, err = run_cli(["simulate", "--config", str(cfg), "--out", str(tallies)])
    assert code == cli.EXIT_OK, err
    header = tallies.read_text().splitlines()[0]
    assert header.startswith("slice,")

    out_file = tmp_path / "grouped.txt"
    code, _, err = run_cli([
        "process", str(tallies), "--config", str(cfg), "--out", str(out_file)
    ])
    assert code in (cli.EXIT_OK, cli.EXIT_NO_KEY)
    text = out_file.read_text()
    assert "group 0:" in text and "key_length = " in text

    # the in-memory grouped pipeline must agree with the file path exactly
    import dataclasses

    from rfiqkd.cli import load_config, read_tally_csv
    from rfiqkd.keyrate import group_and_extract

    run = load_config(str(cfg))
    pc, sp = run.protocol_config(), run.security_params()
    with open(tallies, "r", encoding="utf-8") as handle:
        slices = read_tally_csv(handle)
    result = group_and_extract(slices, 6, pc, sp)
    assert f"key_length = {result.key_length:.12g}" in text


def test_csv_outputs_deterministic(tmp_path):
    args = ["scan", "--n-total", "1e12", "--seed", "5", "--mode", "montecarlo"]
    _, first, _ = run_cli(args)
    _, second, _ = run_cli(args)
    assert first == second


def test_read_tally_csv_rejects_empty():
    with pytest.raises(TallyError, match="line 1"):
        cli.read_tally_csv(io.StringIO(""))


@pytest.mark.parametrize(
    "raw,expected",
    [("1e13", 10**13), ("4611686018427387903", 4611686018427387903), ("12.0", 12)],
)
def test_n_total_parsed_exactly(raw, expected):
    code, out, err = run_cli(["point", "--n-total", raw, "--show-defaults"])
    assert code == cli.EXIT_OK, err
    assert f"n_total = {expected}  (flag)" in out


@pytest.mark.parametrize(
    "raw",
    [
        "2.7",
        "inf",
        "-inf",
        "nan",
        "abc",
        "0",
        "-5",
        "4611686018427387905",
        "1e999999999",
        "1e9999999999999999999",
        pytest.param("9" * 5000, id="5000-digits"),
    ],
)
def test_n_total_flag_rejects_non_counts(raw):
    code, out, err = run_cli(["point", f"--n-total={raw}"])
    assert code == cli.EXIT_ERROR
    assert err.startswith("error: n_total: ") and repr(raw) in err
    assert out == ""


@pytest.mark.parametrize(
    "line",
    ["n_total = inf", "n_total = nan", "n_total = 2.7", "n_values = 1e10,2.5", "n_values = 1e10,0"],
)
def test_config_counts_reject_non_counts(tmp_path, line):
    cfg = tmp_path / "counts.cfg"
    cfg.write_text(line + "\n")
    code, _, err = run_cli(["scan", "--config", str(cfg)])
    key, _, raw = line.partition(" = ")
    assert code == cli.EXIT_ERROR
    assert err.startswith(f"error: {key}: ") and repr(raw.split(",")[-1]) in err


def test_n_values_parsed_exactly(tmp_path):
    cfg = tmp_path / "counts.cfg"
    cfg.write_text("n_values = 1e10, 4611686018427387903\n")
    code, out, _ = run_cli(["scan", "--config", str(cfg), "--show-defaults"])
    assert code == cli.EXIT_OK
    assert "n_values = 10000000000,4611686018427387903  (config file)" in out


# ---------------------------------------------------------------------------
# what each subcommand reads


def _argv(command, tally_file="tallies.csv"):
    return [command, tally_file] if command == "process" else [command]


@pytest.fixture(scope="module")
def tally_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("tallies") / "tallies.csv"
    code, _, err = run_cli(
        ["point", "--distance", "50", "--n-total", "1e10", "--dump-tallies", str(path)]
    )
    assert code == cli.EXIT_OK, err
    return str(path)


def test_read_sets_follow_the_code():
    sizes = {command: len(keys) for command, keys in cli.COMMANDS.items()}
    assert sizes == {"point": 33, "scan": 29, "compare": 27, "process": 12, "simulate": 26}
    assert cli.COMMANDS["process"] == {
        "mu", "nu", "omega", "p_mu", "p_nu", "p_omega", "m_groups",
        "eps_bar", "eps_ec", "eps_pa", "f_ec", "n_zz_all_intensities",
    }


@pytest.mark.parametrize(
    "command,flag",
    [
        (command, flag)
        for command in cli.COMMANDS
        for flag in cli._FLAGS
        if flag not in cli.command_flags(command)
    ],
)
def test_flag_the_subcommand_does_not_read_is_rejected(command, flag):
    code, out, err = run_cli(_argv(command) + [flag, "1"])
    assert code == cli.EXIT_ERROR
    assert out == ""
    assert err == f"error: {command} does not read {flag}\n"


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_help_lists_exactly_the_table_flags(command):
    code, out, err = run_cli([command, "--help"])
    assert code == cli.EXIT_OK and err == ""
    assert set(re.findall(r"--[a-z][a-z-]*", out)) - {"--help"} == set(
        cli.command_flags(command)
    )


@pytest.mark.parametrize(
    "command,key",
    [
        (command, key)
        for command, keys in cli.COMMANDS.items()
        for key in sorted(set(cli._SCHEMA) - keys)
    ],
)
def test_config_key_the_subcommand_does_not_read_is_ignored(
    command, key, tally_file, tmp_path
):
    # most keys reject -1, when they are parsed, or fail validation with it
    cfg = tmp_path / "shared.cfg"
    cfg.write_text(f"{key} = -1\n")
    argv = _argv(command, tally_file)
    code, out, err = run_cli(argv)
    code_k, out_k, err_k = run_cli(argv + ["--config", str(cfg)])
    assert (code_k, out_k) == (code, out)
    assert err_k == err + f"note: {command} ignores config keys {key}\n"


def test_show_defaults_lists_only_the_keys_read():
    code, out, _ = run_cli(["process", "t.csv", "--show-defaults", "--groups", "3"])
    assert code == cli.EXIT_OK
    keys = [line.split(" = ")[0] for line in out.splitlines()]
    assert keys == sorted(cli.COMMANDS["process"])
    assert "m_groups = 3  (flag)" in out


@pytest.mark.parametrize(
    "argv",
    [["point", "--bogus"], ["point", "--mode", "bogus"], ["process"], []],
    ids=["unknown-flag", "bad-choice", "no-tally-file", "no-subcommand"],
)
def test_usage_errors_exit_one(argv):
    code, out, err = run_cli(argv)
    assert code == cli.EXIT_ERROR
    assert out == ""
    assert "error: " in err


def test_help_exits_zero():
    code, out, err = run_cli(["--help"])
    assert code == cli.EXIT_OK and err == ""
    assert out.startswith("usage: rfiqkd")


def test_a_subcommand_named_first_is_built_alone_with_the_same_usage():
    def built(argv):
        (sub,) = [a for a in cli.build_parser(argv)._actions if isinstance(a, argparse._SubParsersAction)]
        return list(sub.choices)

    assert built(["scan", "--seed", "1"]) == ["scan"]
    for argv in (["--help", "scan"], ["bogus"], []):
        assert built(argv) == list(cli.COMMANDS)
    usage = cli.build_parser([]).format_usage()
    assert usage == "usage: rfiqkd [-h] {point,scan,compare,process,simulate} ...\n"
    assert cli.build_parser(["scan"]).format_usage() == usage
    code, out, err = run_cli(["scan", "--bogus"])
    assert (code, out, err) == (cli.EXIT_ERROR, "", usage + "rfiqkd: error: unrecognized arguments: --bogus\n")


def test_readme_table_is_the_code_table():
    lines = (Path(__file__).parent.parent / "README.md").read_text().splitlines()
    start = lines.index("| key | flag | point | scan | compare | process | simulate |")
    commands = ["point", "scan", "compare", "process", "simulate"]
    reads = {command: set() for command in commands}
    flags = {command: set() for command in commands}
    key_flags = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        key, flag, *marks = [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        if key and flag:
            key_flags[key] = flag
        for command, mark in zip(commands, marks):
            if mark:
                if key:
                    reads[command].add(key)
                if flag:
                    flags[command].add(flag)
    assert reads == {command: set(keys) for command, keys in cli.COMMANDS.items()}
    assert flags == {command: set(cli.command_flags(command)) for command in commands}
    assert key_flags == {
        key: flag for flag, (key, _) in cli._FLAGS.items() if isinstance(key, str)
    }


def test_scan_chunks_keep_each_point_and_its_stream(tmp_path):
    # 521 points cross the 512-point chunk of the channel calls; Monte Carlo
    # point i still draws from stream seed + i
    config = tmp_path / "scan.cfg"
    config.write_text(
        "mode = montecarlo\nseed = 5\nn_total = 1e12\n"
        "scan_min_km = 0\nscan_max_km = 52\nscan_step_km = 0.1\n"
    )
    code, out, _ = run_cli(["scan", "--config", str(config)])
    assert code == cli.EXIT_OK
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 521
    run = cli.load_config(str(config))
    cfg, ch, sec = run.protocol_config(), run.channel_params(), run.security_params()
    for index in (0, 511, 512, 520):
        distance = 0.0 + index * 0.1
        block = sample_tallies(cfg, ch, distance, 5 + index).observed()
        assert rows[index] == scan_row(cfg, distance, block, sec)


def test_analytic_drift_chunks_match_one_slice_at_a_time(tmp_path):
    config = tmp_path / "drift.cfg"
    config.write_text("drift = linear\nn_slices = 1030\nn_total = 1030000000000\n")
    dump = tmp_path / "dump.csv"
    code, _, err = run_cli(["point", "--config", str(config), "--dump-tallies", str(dump)])
    assert code in (cli.EXIT_OK, cli.EXIT_NO_KEY), err
    with open(dump, encoding="utf-8") as handle:
        slices = cli.read_tally_csv(handle)
    run = cli.load_config(str(config))
    cfg, ch = run.protocol_config(), run.channel_params()
    trace = drift_beta("linear", {"beta0": 0.0, "rate": 2 * math.pi}, 1030, 10**9)
    per_slice = replace(cfg, n_total=10**9)
    assert len(slices) == 1030
    for table, beta in zip(slices.counts, trace.betas):
        assert ObservedTallies(table) == expected_tallies(per_slice, ch, [200.0], [beta])[0]


# -- scan blocks against the point-by-point pipeline ---------------------------


def reference_flags(flags):
    """The flags column of one point, as the per-point CLI wrote it."""
    shown = ("negative_length", "c44_clamped", "c_clamped", "ie_radicand_clamped", "ie_mixing_clamped")
    tokens = {key for key in shown if flags.get(key)}
    for mark in ("degenerate", "nonphysical"):
        if any(key.endswith("_" + mark) for key in flags):
            tokens.add(mark)
    return ";".join(sorted(tokens))


def scan_row(cfg, distance, tallies, sec):
    """The ``scan`` row of one point, from the per-point pipeline."""
    report = analyze_tallies(tallies, cfg, sec)
    return (
        f"{cli._fmt(distance)},{cfg.n_total},{cli._fmt(report.key_rate)},"
        f"{cli._fmt(report.c44_lower)},{cli._fmt(report.e_zz)},"
        f"{cli._fmt(report.s1_zz_lower)},{reference_flags(report.intermediate)}"
    )


def grid_points(config, tmp_path, command):
    """(block size, distance) of every row of ``command``'s grid, and the
    configuration it reads."""
    path = tmp_path / "grid.cfg"
    path.write_text(config)
    run = cli.load_config(str(path), cli.COMMANDS[command])
    start, stop, step = (run[key] for key in ("scan_min_km", "scan_max_km", "scan_step_km"))
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    distances = [start + i * step for i in range(count)]
    cfg, ch, sec = run.protocol_config(), run.channel_params(), run.security_params()
    points = [(replace(cfg, n_total=n), d) for n in run["n_values"] for d in distances]
    return str(path), points, ch, sec


@pytest.mark.parametrize("mode", ["analytic", "montecarlo"])
def test_scan_rows_equal_the_per_point_pipeline(tmp_path, mode):
    # the analytic grid crosses the 512-point block twice per block size
    config = (
        "scan_min_km = 0\nscan_max_km = 60\nscan_step_km = 0.1\nn_values = 1e10,1e13\nbeta_rad = 0.7\n"
        if mode == "analytic" else
        "mode = montecarlo\nseed = 3\nscan_min_km = 0\nscan_max_km = 240\nscan_step_km = 20\n"
        "n_values = 1e9,1e11\n"
    )
    path, points, ch, sec = grid_points(config, tmp_path, "scan")
    code, out, err = run_cli(["scan", "--config", path])
    assert code in (cli.EXIT_OK, cli.EXIT_NO_KEY), err
    want = ["distance_km,n_total,key_rate,c44_lower,e_zz,s1_lower,flags"]
    per_block = len(points) // 2
    for index, (cfg, distance) in enumerate(points):
        if mode == "analytic":
            tallies = expected_tallies(cfg, ch, [distance])[0]
        else:
            tallies = sample_tallies(cfg, ch, distance, 3 + index % per_block).observed()
        want.append(scan_row(cfg, distance, tallies, sec))
    assert out.splitlines() == want


def test_a_montecarlo_scan_prints_the_oracle_counts(tmp_path):
    # scan draws only the observable outcomes of each point, which are the
    # counts of sample_tallies at that point's seed: 3 distances x 2 block sizes
    config = "seed = 11\nscan_min_km = 25\nscan_max_km = 125\nscan_step_km = 50\nn_values = 1e9,1e12\n"
    path, points, ch, sec = grid_points(config, tmp_path, "scan")
    code, out, err = run_cli(["scan", "--config", path, "--mode", "montecarlo"])
    assert code in (cli.EXIT_OK, cli.EXIT_NO_KEY), err
    want = ["distance_km,n_total,key_rate,c44_lower,e_zz,s1_lower,flags"]
    for index, (cfg, distance) in enumerate(points):
        counts = sample_tallies(cfg, ch, distance, 11 + index % 3).counts
        want.append(scan_row(cfg, distance, ObservedTallies(counts), sec))
    assert len(want) == 7
    assert out.splitlines() == want


def reference_compare(points, ch, sec, **options):
    """The rows of ``compare``, one point at a time."""
    from rfiqkd.baselines import run_six_four, run_six_state

    rows = ["distance_km,n_total,protocol,key_rate,c_lower,e_zz,flags"]
    for cfg, distance in points:
        results = [("rfi44", analyze_tallies(
            expected_tallies(cfg, ch, [distance])[0], cfg, sec, **options
        ))]
        for protocol, runner in (("rfi64", run_six_four), ("rfi66", run_six_state)):
            base = runner(cfg, ch, sec, distance, **options)
            # its flags column: c_clamped, rfi66's ie_*_clamped, c_nonphysical and
            # negative_length, no degenerate estimate
            assert not any(key.endswith("_degenerate") for key in base.intermediate)
            results.append((protocol, base))
        for protocol, result in results:
            rows.append(
                f"{cli._fmt(distance)},{cfg.n_total},{protocol},{cli._fmt(result.key_rate)},"
                f"{cli._fmt(result.c44_lower)},{cli._fmt(result.e_zz)},"
                f"{reference_flags(result.intermediate)}"
            )
    return rows


@pytest.mark.parametrize(
    "config,flag",
    [
        # 561 points cross the 512-point block
        ("scan_min_km = 0\nscan_max_km = 280\nscan_step_km = 0.5\nn_values = 1e11\n", "--asymptotic"),
        ("scan_min_km = 0\nscan_max_km = 280\nscan_step_km = 0.5\nn_values = 1e13\nbeta_rad = 2.3\n", None),
        ("scan_min_km = 0\nscan_max_km = 300\nscan_step_km = 25\nn_values = 1e9,1e12\nbeta_rad = 5.5\n", None),
    ],
)
def test_compare_rows_equal_the_per_point_pipeline(tmp_path, config, flag):
    path, points, ch, sec = grid_points(config, tmp_path, "compare")
    code, out, err = run_cli(["compare", "--config", path] + ([flag] if flag else []))
    assert code in (cli.EXIT_OK, cli.EXIT_NO_KEY), err
    assert out.splitlines() == reference_compare(points, ch, sec, asymptotic=flag is not None)


def test_compare_counts_the_sifted_key_at_signal_intensity_for_every_protocol(tmp_path):
    grid = "scan_min_km = 0\nscan_max_km = 200\nscan_step_km = 50\nn_values = 1e12\n"
    path, points, ch, sec = grid_points(grid + "n_zz_all_intensities = false\n", tmp_path, "compare")
    code, out, err = run_cli(["compare", "--config", path])
    assert code == cli.EXIT_OK, err
    assert out.splitlines() == reference_compare(points, ch, sec, n_zz_all_intensities=False)
    # and no protocol's row is the default one's
    (tmp_path / "default.cfg").write_text(grid)
    default = run_cli(["compare", "--config", str(tmp_path / "default.cfg")])[1].splitlines()
    assert len(default) == len(out.splitlines()) == 1 + 3 * 5
    for row, default_row in zip(out.splitlines()[1:], default[1:]):
        assert row != default_row


@pytest.mark.parametrize(
    "config",
    [
        "scan_min_km = 0\nscan_max_km = 300\nscan_step_km = 5\nn_values = 1e10,1e12,1e13\n",
        # at 80 km rfi44 is not flagged, and the baselines are
        "scan_min_km = 80\nscan_max_km = 200\nscan_step_km = 10\nn_values = 1000\n",
        # no point of the first block size is flagged; some of the second are
        "scan_min_km = 100\nscan_max_km = 200\nscan_step_km = 10\nn_values = 1000,3000\n",
    ],
)
def test_literal_compare_flags_rows_as_the_per_point_pipeline(tmp_path, config):
    path, points, ch, sec = grid_points(config, tmp_path, "compare")
    code, out, err = run_cli(["compare", "--config", path, "--literal-paper-formulas"])
    assert (code, err) == (cli.EXIT_NO_KEY, "")
    rows = out.splitlines()
    assert rows == reference_compare(points, ch, sec, literal_paper_formulas=True)
    assert any("nonphysical" in row for row in rows)


# -- block sizes mixed in one chunk ----------------------------------------------

# 2 x 257 points: the first 512-point chunk holds both block sizes, and the
# class totals of 4e18 pass 10^12, so that whole chunk takes Python-int arithmetic
MIXED = "scan_min_km = 0\nscan_max_km = 256\nscan_step_km = 1\nn_values = 1e9,4e18\nbeta_rad = 1.1\n"


def test_scan_mixes_block_sizes_in_a_chunk(tmp_path):
    path, points, ch, sec = grid_points(MIXED, tmp_path, "scan")
    assert len(points) == 514
    code, out, err = run_cli(["scan", "--config", path])
    assert code == cli.EXIT_OK, err
    want = [scan_row(cfg, d, expected_tallies(cfg, ch, [d])[0], sec) for cfg, d in points]
    assert out.splitlines()[1:] == want


def test_compare_mixes_block_sizes_in_a_chunk(tmp_path):
    path, points, ch, sec = grid_points(MIXED, tmp_path, "compare")
    code, out, err = run_cli(["compare", "--config", path])
    assert code == cli.EXIT_OK, err
    assert out.splitlines() == reference_compare(points, ch, sec)


def test_montecarlo_scan_mixes_block_sizes_and_keeps_streams(tmp_path):
    # 2 x 300 points; point i of each block size draws from stream seed + i,
    # also where the second block size crosses the 512-point chunk
    config = (
        "mode = montecarlo\nseed = 11\nscan_min_km = 0\nscan_max_km = 299\nscan_step_km = 1\n"
        "n_values = 1e10,1e12\n"
    )
    path, points, ch, sec = grid_points(config, tmp_path, "scan")
    code, out, err = run_cli(["scan", "--config", path])
    assert code == cli.EXIT_OK, err
    rows = out.splitlines()[1:]
    assert len(rows) == len(points) == 600
    for index in (0, 299, 300, 511, 512, 599):
        cfg, distance = points[index]
        tallies = sample_tallies(cfg, ch, distance, 11 + index % 300).observed()
        assert rows[index] == scan_row(cfg, distance, tallies, sec)


def test_grid_takes_one_call_per_chunk(tmp_path, monkeypatch):
    calls = Counter()

    def counted(owner, name):
        function = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in [(cli, "expected_tallies"), (cli, "analyze_batch"), (channel, "transmittance"),
                        (baselines, "run_six_four"), (baselines, "run_six_state")]:
        counted(owner, name)
    grid = "scan_min_km = 0\nscan_max_km = 300\nn_values = 1e10,1e11,1e12,1e13\n"
    config = tmp_path / "grid.cfg"
    config.write_text(grid + "scan_step_km = 1\n")
    assert run_cli(["scan", "--config", str(config)])[0] == cli.EXIT_OK
    # 4 x 301 points in chunks of 512, 512 and 180: one absorption table of the 301 distances
    assert calls == {"expected_tallies": 3, "analyze_batch": 3, "transmittance": 2 * 301}
    calls.clear()
    config.write_text(grid + "scan_step_km = 5\n")
    assert run_cli(["compare", "--config", str(config)])[0] == cli.EXIT_OK
    # 4 x 61 points in one chunk: one call per protocol, all three on the grid's one table
    assert calls == {
        "expected_tallies": 1, "analyze_batch": 1, "run_six_four": 1, "run_six_state": 1,
        "transmittance": 2 * 61,
    }


# -- config fuzz ----------------------------------------------------------------

_FUZZ_KEYS = [key for key, spec in cli._SCHEMA.items() if spec[1] in (float, "optional_float")]
_FUZZ_VALUES = ("nan", "inf", "-inf", "0", "-1", "5e-324", "1e-320", "1e-300", "1e300")
# the other keys' values: slice and group counts small, or rejected before any
# slice or group is made (<= 0, one past the budget, 10^21); 7 slices do not
# divide the default block size
_REJECTED_COUNTS = ("0", "-2", "1000000000000000000000")
_OTHER_VALUES = {
    "n_slices": ("1", "2", "4", "7", str(cli.MAX_SLICES + 1), *_REJECTED_COUNTS),
    "m_groups": ("1", "3", "6", str(MAX_GROUPS + 1), *_REJECTED_COUNTS),
    "seed": ("0", "7", "-3", "18446744073709551616", "1.5"),
    "n_values": ("", "1e9", "1e9,1e12", "0", "2.5", "nan", "4611686018427387905"),
    "mode": ("analytic", "montecarlo", "oracle"),
    "drift": ("fixed", "linear", "sinusoidal", "spiral"),
    "n_zz_all_intensities": ("true", "false", "maybe"),
}
assert set(_FUZZ_KEYS) | set(_OTHER_VALUES) | {"n_total"} == set(cli._SCHEMA)


def _fuzzed_config(command):
    """``command`` and a config of keys it reads, perhaps with a block size at or
    just past the count budget."""
    keys = st.sampled_from([key for key in _FUZZ_KEYS if key in cli.COMMANDS[command]])
    others = [st.tuples(st.just(key), st.sampled_from(values))
              for key, values in _OTHER_VALUES.items() if key in cli.COMMANDS[command]]
    return st.tuples(
        st.just(command),
        st.dictionaries(keys, st.sampled_from(_FUZZ_VALUES)),
        st.lists(st.one_of(others)).map(dict),
        st.sampled_from([{}, {"n_total": 2**62}, {"n_total": 2**62 + 1}]),
    )


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["point", "scan", "compare"]).flatmap(_fuzzed_config))
def test_fuzzed_intensity_and_epsilon_configs_fail_cleanly(drawn):
    # every key of the schema may be drawn; a key left out keeps its default
    command, values, others, block = drawn
    lines = "".join(f"{key} = {value}\n" for key, value in {**values, **others, **block}.items())
    with tempfile.TemporaryDirectory() as folder:
        config = Path(folder) / "fuzz.cfg"
        config.write_text(lines)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli([command, "--config", str(config)])
    assert code in (cli.EXIT_OK, cli.EXIT_ERROR, cli.EXIT_NO_KEY)
    assert not re.search(r"\b(nan|inf)\b", out), out
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if code == cli.EXIT_ERROR:
        assert out == ""
    for line in err.splitlines():
        prefix, _, problem = line.partition(": ")
        assert prefix in ("config error", "error"), line
        assert re.match(r"\w+", problem)[0] in cli._SCHEMA, line
