"""Tests of the benchmark's own code: statistics, span arithmetic, output
checks, and a short run of every workload."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
import run_bench   # noqa: E402
import spans       # noqa: E402
import workloads   # noqa: E402

CONTRACT = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def sd():
    return run_bench.import_sdwnsim()


def record(sd, **kw):
    base = dict(scenario_id="x", trial=0, policy="sdwn", lambda_mean=2.0, rho1=0.5,
                total_throughput=10.0, sp1_throughput=5.0, sp2_throughput=5.0, jain_index=1.0,
                edge_median_rate=0.0, center_median_rate=0.0, solver_status="optimal",
                scaling=1.0)
    base.update(kw)
    return sd.harness.ResultRecord(**base)


# ---- statistics ------------------------------------------------------------------

@pytest.mark.parametrize("n", [21, 27, 36, 48, 100, 150, 1000])
def test_tail_percentile_is_highest_with_ten_beyond(n):
    q = run_bench.tail_percentile(n)
    assert run_bench.samples_beyond(range(n), q) >= 10
    higher = [p for p in run_bench.TAIL_LADDER if p > q]
    if higher:
        assert run_bench.samples_beyond(range(n), higher[0]) < 10


def test_tail_percentile_none_below_ten_beyond():
    assert run_bench.tail_percentile(20) == 50
    assert run_bench.tail_percentile(19) is None
    assert run_bench.tail_percentile(0) is None


def test_samples_beyond_counts_strictly_greater():
    assert run_bench.samples_beyond([1, 2, 3, 4, 5], 50) == 2
    assert run_bench.samples_beyond([7, 7, 7], 90) == 0


# ---- spans ---------------------------------------------------------------------

def test_self_seconds_subtracts_union_of_children():
    assert spans.self_seconds(0.0, 10.0, []) == 10.0
    # children overlap (1-3, 2-4) and one runs past the parent's end (8-12)
    assert spans.self_seconds(0.0, 10.0, [(8.0, 12.0), (1.0, 3.0), (2.0, 4.0)]) == \
        pytest.approx(5.0)


def test_layer_metrics_self_time_and_outcomes():
    Span = spans.Span
    recorded = [
        Span("harness.run_trial", 0.0, 10.0, outcome="scaled_infeasible", trial=0),
        Span("control.crm_schedule", 1.0, 9.0, parent=0, trial=0),
        Span("wlan.optimize_tau", 2.0, 8.0, parent=1, trial=0, outcome="raised"),
        Span("wlan.feasibility_check", 3.0, 7.0, parent=2, trial=0, outcome="infeasible"),
        Span("wlan.optimize_tau", 8.0, 8.5, parent=1, trial=0),
    ]
    m = spans.layer_metrics(recorded)
    assert m["control.crm_schedule.self_s"] == pytest.approx(8.0 - 6.0 - 0.5)
    assert m["wlan.optimize_tau.total_s"] == pytest.approx(6.5)
    assert m["wlan.optimize_tau.self_s"] == pytest.approx(6.5 - 4.0)
    assert m["wlan.optimize_tau.useful_ratio"] == pytest.approx(0.5)
    assert m["wlan.feasibility_check.infeasible_s"] == pytest.approx(4.0)
    assert m["harness.run_trial.self_s"] == pytest.approx(2.0)
    assert m["harness.run_trial.scaled"] == 1
    assert m["harness.run_trial.sdwn_calls"] == 1


def test_tracer_wraps_and_restores(sd):
    original = sd.wlan.optimize_tau
    tracer = spans.Tracer()
    with spans.installed(tracer, spans.targets(sd)):
        assert sd.wlan.optimize_tau is not original
        with pytest.raises(sd.errors.InfeasibleError):
            sd.wlan.optimize_tau(np.zeros((0, 2)), [sd.model.SliceSpec(1, 0.5)])
    assert sd.wlan.optimize_tau is original
    assert [s.name for s in tracer.spans] == ["wlan.optimize_tau"]
    assert tracer.spans[0].outcome == "raised"


def test_oracle_grid_points(sd):
    args = {"rates": np.ones((2, 2)), "grid_step": 0.01, "options": None}
    assert spans.oracle_grid_points(args, sd.wlan.WlanSolverOptions()) == 101 ** 4
    args = {"rates": np.ones((1, 1)), "grid_step": None, "options": None}
    assert spans.oracle_grid_points(args, sd.wlan.WlanSolverOptions()) == 1001


# ---- output checks -------------------------------------------------------------

def test_checks_flag_hand_made_bad_trials(sd):
    assert workloads.check_scaling(record(sd, scaling=1.5))
    assert workloads.check_scaling(record(sd, scaling=-0.1))
    assert not workloads.check_scaling(record(sd, scaling=0.25))
    good = record(sd, scaling=0.5)
    assert not workloads.check_wlan_airtime(good, [0.2499, 0.3], [0.5, 0.5], 1e-4)
    assert workloads.check_wlan_airtime(good, [0.2498, 0.3], [0.5, 0.5], 1e-4)
    assert workloads.check_cellular_rates(record(sd, sp1_throughput=0.1), [0.5, 0.5], 1e-3)
    assert not workloads.check_cellular_rates(record(sd, sp1_throughput=0.5), [0.5, 0.5], 1e-3)
    pair = [record(sd, policy="max_snr", total_throughput=10.0),
            record(sd, policy="sdwn", total_throughput=9.0)]
    assert list(workloads.check_paired(pair)) == [1]
    pair[1] = record(sd, policy="sdwn", total_throughput=10.0 - 1e-12)
    assert workloads.check_paired(pair) == {}


def test_verification_check_flags_gap_and_verdicts():
    oracle = SimpleNamespace(objective=1.0, feasible=True, scaling=1.0)
    assert workloads.check_verification("wlan", (0.995, True, 1.0), oracle)[1] == []
    assert workloads.check_verification("wlan", (0.98, True, 1.0), oracle)[1]
    assert workloads.check_verification("cellular", (0.96, True, 1.0), oracle)[1] == []
    assert workloads.check_verification("cellular", (0.94, True, 1.0), oracle)[1]
    assert workloads.check_verification("cellular", (0.0, False, 0.5), oracle)[1]
    infeasible = SimpleNamespace(objective=0.0, feasible=False, scaling=0.5)
    assert workloads.check_verification("wlan", (0.0, False, 0.51), infeasible)[1] == []
    assert workloads.check_verification("wlan", (0.0, False, 0.6), infeasible)[1]


# ---- inputs ----------------------------------------------------------------------

def test_reserved_master_seeds_give_the_wanted_empty_slice(sd):
    workload = workloads.WORKLOADS["wlan-reserved"]
    state = workload.setup(sd, 3)
    for r in range(2):
        for k, (point, _) in enumerate(workload.points):
            seed = workload.master_seed(state, r, k, point)
            cfg = replace(state.cfg, master_seed=seed,
                          deployment={"lambda_mean": point["lambda_mean"][0]},
                          load_split={"rho1": point["rho1"][0]})
            ids = sd.harness.run_trial(cfg, 0, "max_snr").user_slice_ids
            empty = sum(not np.any(ids == sc.slice_id) for sc in cfg.slices)
            assert empty == int(workloads.reserved_empty_slice(point, r)), (r, point)
    assert sum(workloads.reserved_empty_slice(p, 0) for p, _ in workload.points) == 1


def test_oracle_round_holds_two_wlan_instances_to_one_cellular(sd):
    kinds = [inst.kind for inst in workloads.WORKLOADS["oracle-tiny"].instances(sd, 3, 0)]
    assert kinds == ["wlan", "cellular", "wlan"]


# ---- runs ------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_of_each_workload(sd, name):
    workload = workloads.WORKLOADS[name]
    rounds = run_bench.measure(workload, sd, seed=3, seconds=0)
    assert len(rounds) == workload.quality_rounds
    s = run_bench.summarize(workload, rounds)
    assert s["attempted"] >= 1 and s["failed"] == 0, s["failures"]
    assert s["sdwn_trial_p50_ms"] > 0
    again = run_bench.measure(workload, sd, seed=3, seconds=0)
    assert workloads.digest(again) == s["csv_sha256"]


def test_traced_run_reports_every_layer_metric(sd, capsys):
    originals = [getattr(owner, attr) for owner, attr, *_ in spans.targets(sd)]
    detail, result = run_bench.run_traced(workloads.WORKLOADS["wlan-unreserved"], 3, 0)
    assert result["correct"] and detail["csv_identical"]
    assert {m["name"] for m in CONTRACT["per_layer"]} <= set(result["metrics"])
    assert result["metrics"]["wlan.feasibility_check.infeasible"]["value"] == 0
    assert [getattr(owner, attr) for owner, attr, *_ in spans.targets(sd)] == originals


def test_cli_prints_contract_result():
    proc = subprocess.run([sys.executable, str(BENCH / "run_bench.py"), "--workload",
                           "wlan-unreserved", "--seed", "3", "--seconds", "0", "--trace", "0"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_cli_fails_without_program_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "bench/run_bench.py", "--workload", "oracle-tiny",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_contract_names_match_the_code():
    assert {w["name"] for w in CONTRACT["workloads"]} <= set(workloads.WORKLOADS)
    assert [m["name"] for m in CONTRACT["end_to_end"]] == list(run_bench.END_TO_END)
