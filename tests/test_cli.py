import json
from pathlib import Path

import pytest

from sdwnsim.cli import main


def write_config(path, **overrides):
    data = {
        "scenario_kind": "wlan",
        "scenario_id": "cli-wlan",
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
        "replications": 2,
        "master_seed": 4,
    }
    data.update(overrides)
    Path(path).write_text(json.dumps(data))
    return path


def test_run_writes_csv(tmp_path, capsys):
    cfg = write_config(tmp_path / "w.cfg")
    out = tmp_path / "out.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("scenario_id,trial,policy")
    assert len(lines) == 3


def test_run_seed_override_changes_output(tmp_path):
    cfg = write_config(tmp_path / "w.cfg")
    out1, out2, out3 = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    main(["run", "--config", str(cfg), "--out", str(out1)])
    main(["run", "--config", str(cfg), "--out", str(out2), "--seed", "4"])
    main(["run", "--config", str(cfg), "--out", str(out3), "--seed", "99"])
    assert out1.read_text() == out2.read_text()
    assert out1.read_text() != out3.read_text()


def test_validation_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(json.dumps({"scenario_kind": "wlan", "unknown_field": 1}))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.cfg"),
                 "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("overrides", [
    {"region": [200.0, 200.0]},
    {"slices": [{"slice_id": 1, "reservation": "half"}, {"slice_id": 2, "reservation": 0.0}]},
])
def test_malformed_field_exit_code(tmp_path, capsys, overrides):
    cfg = write_config(tmp_path / "bad.cfg", **overrides)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_sweep_rows_and_order(tmp_path):
    cfg = write_config(tmp_path / "w.cfg")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--param", "lambda_mean=1:2:1",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2 * 2
    assert main(["sweep", "--config", str(cfg), "--param", "lambda_mean=2:1:1",
                 "--out", str(out)]) == 2


def test_oracle_subcommand(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "tiny.cfg",
        scenario_id="tiny",
        region={"width": 60.0, "height": 60.0},
        nodes=[{"id": 0, "position": [30.0, 30.0], "channel_id": 0, "tx_power": 0.25}],
        deployment={"lambda_mean": 2.0},
        slices=[{"slice_id": 1, "reservation": 0.1}, {"slice_id": 2, "reservation": 0.1}],
        master_seed=5, replications=1)
    assert main(["oracle", "--config", str(cfg), "--grid-step", "0.01"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_oracle_gap_exit_code(tmp_path, monkeypatch, capsys):
    from sdwnsim import harness

    def failing(cfg, grid_step=None, trial=0):
        return harness.VerificationReport(
            scenario_kind="wlan", solver_objective=0.5, oracle_objective=0.9,
            gap=0.4, tolerance=1e-2, feasibility_agreement=True, passed=False)

    monkeypatch.setattr("sdwnsim.cli.harness.verify_oracle", failing)
    cfg = write_config(tmp_path / "w.cfg")
    assert main(["oracle", "--config", str(cfg)]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_report_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path / "w.cfg")
    out = tmp_path / "out.csv"
    main(["run", "--config", str(cfg), "--out", str(out)])
    capsys.readouterr()
    assert main(["report", "--in", str(out), "--stat", "median", "--filter", "all"]) == 0
    median = capsys.readouterr().out.strip()
    assert float(median) > 0
    assert main(["report", "--in", str(out), "--stat", "jain"]) == 0
    jain = float(capsys.readouterr().out.strip())
    assert 0.5 <= jain <= 1.0
    assert main(["report", "--in", str(out), "--stat", "cdf", "--filter", "center"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
