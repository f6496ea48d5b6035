import io
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from sdwnsim import control, harness, wlan
from sdwnsim.config import parse_config
from sdwnsim.errors import ConfigError
from sdwnsim.harness import (ResultRecord, read_csv, run_scenario, run_trial,
                             stream_seed, sweep, verify_oracle, write_csv)
from sdwnsim.model import gain_tensor


def small_wlan_config(**overrides):
    data = {
        "scenario_kind": "wlan",
        "scenario_id": "unit-wlan",
        "region": {"width": 200.0, "height": 200.0},
        "nodes": [
            {"id": 0, "position": [50.0, 50.0], "channel_id": 0, "tx_power": 0.25},
            {"id": 1, "position": [150.0, 50.0], "channel_id": 1, "tx_power": 0.25},
            {"id": 2, "position": [50.0, 150.0], "channel_id": 2, "tx_power": 0.25},
            {"id": 3, "position": [150.0, 150.0], "channel_id": 3, "tx_power": 0.25},
        ],
        "channel": {"pathloss_exponent": 3.5, "reference_distance": 1.0,
                    "reference_gain": 1.0, "noise_power": 1e-11, "fading": "off"},
        "deployment": {"lambda_mean": 2.0},
        "load_split": {"rho1": 0.5},
        "slices": [{"slice_id": 1, "reservation": 0.0},
                   {"slice_id": 2, "reservation": 0.0}],
        "replications": 3,
        "master_seed": 11,
    }
    data.update(overrides)
    return parse_config(data)


def tiny_oracle_config():
    # one AP and a thinned PPP so the realized instance stays within oracle limits
    return parse_config({
        "scenario_kind": "wlan",
        "scenario_id": "tiny",
        "region": {"width": 60.0, "height": 60.0},
        "nodes": [{"id": 0, "position": [30.0, 30.0], "channel_id": 0, "tx_power": 0.25}],
        "channel": {"pathloss_exponent": 3.5, "reference_distance": 1.0,
                    "reference_gain": 1.0, "noise_power": 1e-11, "fading": "off"},
        "deployment": {"lambda_mean": 2.0},
        "load_split": {"rho1": 0.5},
        "slices": [{"slice_id": 1, "reservation": 0.1},
                   {"slice_id": 2, "reservation": 0.1}],
        "master_seed": 5,
        "replications": 1,
    })


def test_stream_seed_stability_and_independence():
    a = stream_seed(7, 0, 0)
    assert a == stream_seed(7, 0, 0)
    assert len({stream_seed(7, t, s) for t in range(5) for s in range(3)}) == 15


def test_run_scenario_deterministic_bytes():
    cfg = small_wlan_config()
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_csv(run_scenario(cfg), buf1)
    write_csv(run_scenario(cfg), buf2)
    assert buf1.getvalue() == buf2.getvalue()


def test_run_scenario_parallel_matches_serial():
    cfg = small_wlan_config()
    serial, parallel = io.StringIO(), io.StringIO()
    write_csv(run_scenario(cfg, workers=1), serial)
    write_csv(run_scenario(cfg, workers=4), parallel)
    assert serial.getvalue() == parallel.getvalue()


def test_zero_replications():
    cfg = small_wlan_config(replications=0)
    assert run_scenario(cfg) == []


def test_single_user_max_snr_total_is_user_rate():
    cfg = small_wlan_config(deployment={"lambda_mean": 0.3})
    # find a seed whose realized deployment has exactly one user
    for seed in range(200):
        c = replace(cfg, master_seed=seed, replications=1)
        detail = run_trial(c, 0, "max_snr")
        if len(detail.per_user_rate) == 1:
            assert detail.record.total_throughput == pytest.approx(detail.per_user_rate[0])
            assert detail.record.total_throughput > 0
            assert detail.record.solver_status == "baseline"
            return
    pytest.fail("no single-user deployment found in 200 seeds")


def test_additional_replications_keep_existing_records():
    cfg = small_wlan_config(replications=2)
    more = small_wlan_config(replications=4)
    first = [r.__dict__ for r in run_scenario(cfg)]
    extended = [r.__dict__ for r in run_scenario(more)]
    for a, b in zip(first, extended[:2]):
        a.pop("wall_time"), b.pop("wall_time")
        assert a == b


def test_sweep_cardinality_and_order():
    cfg = small_wlan_config(replications=2)
    records = sweep(cfg, {"lambda_mean": [1.0, 2.0]})
    assert len(records) == 2 * 2 * 2      # grid x policies x trials
    keys = [(r.lambda_mean, r.policy, r.trial) for r in records]
    assert keys == sorted(keys)


def test_sweep_single_point_matches_run():
    cfg = small_wlan_config(replications=2)
    swept = sweep(cfg, {"rho1": [0.5]})
    ran = run_scenario(cfg, policies=["max_snr", "sdwn"])
    for a, b in zip(swept, ran):
        da, db = dict(a.__dict__), dict(b.__dict__)
        da.pop("wall_time"), db.pop("wall_time")
        assert da == db


def test_sweep_rejects_bad_grid():
    cfg = small_wlan_config()
    with pytest.raises(ConfigError):
        sweep(cfg, {"lambda_mean": [2.0, 1.0]})
    with pytest.raises(ConfigError):
        sweep(cfg, {"rho1": []})
    with pytest.raises(ConfigError):
        sweep(cfg, {"tx_power": [1.0]})
    with pytest.raises(ConfigError):
        sweep(cfg, {"rho1": [0.5, 1.5]})


def test_csv_round_trip(tmp_path):
    cfg = small_wlan_config()
    records = run_scenario(cfg)
    path = tmp_path / "out.csv"
    write_csv(records, path)
    again = read_csv(path)
    assert len(again) == len(records)
    for a, b in zip(records, again):
        assert a.trial == b.trial and a.policy == b.policy
        assert b.wall_time == 0.0
        assert a.total_throughput == pytest.approx(b.total_throughput, rel=1e-8)


def test_csv_float_format():
    rec = ResultRecord(scenario_id="x", trial=0, policy="sdwn", lambda_mean=1.0,
                       rho1=0.123456789123, total_throughput=216.123456789,
                       sp1_throughput=0.0, sp2_throughput=0.0, jain_index=1.0,
                       edge_median_rate=0.0, center_median_rate=0.0,
                       solver_status="optimal")
    buf = io.StringIO()
    write_csv([rec], buf)
    line = buf.getvalue().splitlines()[1]
    assert "0.123456789" in line
    assert "216.123457" in line   # 9 significant digits


def test_verify_oracle_wlan_tiny():
    report = verify_oracle(tiny_oracle_config(), grid_step=0.01)
    assert report.feasibility_agreement
    assert report.passed
    assert report.gap <= report.tolerance


def tiny_cellular_config(**overrides):
    # two BSs and three subcarriers, within the enumeration oracle's limits
    data = {
        "scenario_kind": "cellular",
        "scenario_id": "tiny-cell",
        "region": {"width": 1000.0, "height": 1000.0},
        "nodes": [{"id": 0, "position": [250.0, 500.0], "channel_id": 0, "tx_power": 1.0},
                  {"id": 1, "position": [750.0, 500.0], "channel_id": 0, "tx_power": 1.0}],
        "channel": {"pathloss_exponent": 3.5, "reference_distance": 1.0,
                    "reference_gain": 1.0, "noise_power": 1e-13, "fading": "rayleigh"},
        "subcarriers": 3,
        "deployment": {"lambda_mean": 1.0},
        "load_split": {"rho1": 0.5},
        "slices": [{"slice_id": 1, "reservation": 0.0},
                   {"slice_id": 2, "reservation": 0.0}],
        "master_seed": 3,
        "replications": 1,
    }
    data.update(overrides)
    return parse_config(data)


def test_verify_oracle_cellular_tiny():
    report = verify_oracle(tiny_cellular_config())
    assert report.feasibility_agreement
    assert report.passed


def test_verify_oracle_checks_run_trial_users(monkeypatch):
    # edge-weighted deployment: the oracle must see the users run_trial draws
    cfg = tiny_cellular_config(edge_fraction=0.7, master_seed=2)
    drawn = []

    def spy(positions, *args, **kwargs):
        drawn.append(np.array(positions))
        return gain_tensor(positions, *args, **kwargs)

    monkeypatch.setattr(harness, "gain_tensor", spy)
    run_trial(cfg, 0, "max_snr")
    assert verify_oracle(cfg).passed
    assert len(drawn) == 2 and 0 < len(drawn[0]) <= 4
    assert np.array_equal(drawn[0], drawn[1])


def test_verify_oracle_infeasible_agreement():
    # find a seed whose realized deployment has exactly two users, then make
    # the reservations jointly unreachable (0.4 + 0.4 > the 0.25 max-min)
    base = tiny_oracle_config()
    for seed in range(200):
        cfg = replace(base, master_seed=seed,
                      slices=tuple(replace(s, reservation=0.4) for s in base.slices))
        detail = run_trial(replace(cfg, slices=base.slices), 0, "max_snr")
        if len(detail.per_user_rate) == 2:
            report = verify_oracle(cfg, grid_step=0.005)
            assert report.feasibility_agreement, report.detail
            assert report.passed
            assert "scaling" in report.detail
            return
    pytest.fail("no two-user deployment found in 200 seeds")


def test_strict_infeasible_recorded_as_scaled(monkeypatch):
    cfg = small_wlan_config(
        deployment={"lambda_mean": 3.0},
        load_split={"rho1": 0.0},     # slice 1 empty with certainty
        slices=[{"slice_id": 1, "reservation": 0.4, "isolation": "strict"},
                {"slice_id": 2, "reservation": 0.0, "isolation": "strict"}],
        replications=1)
    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    count(wlan, "optimize_tau")
    count(control.CommonResourceManager, "crm_schedule")
    detail = run_trial(cfg, 0, "sdwn")
    assert detail.record.solver_status == "scaled_infeasible"
    assert detail.record.scaling < 0.01
    # one scheduling call: the raising solve, then the solve at the scaled reservations
    assert calls == {"optimize_tau": 2, "crm_schedule": 1}
    best_effort = replace(cfg, slices=tuple(replace(s, isolation="best_effort")
                                            for s in cfg.slices))
    other = run_trial(best_effort, 0, "sdwn")
    assert replace(detail.record, wall_time=0.0) == replace(other.record, wall_time=0.0)
