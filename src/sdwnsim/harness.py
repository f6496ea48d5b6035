"""Seeded trial execution, parameter sweeps, oracle verification, CSV output.

Seed scheme: stream seeds are drawn from numpy's SeedSequence with
entropy = master_seed and spawn_key = (trial_index, stream_id), where stream
ids 0/1/2 cover deployment, slice assignment and fading. Each trial is fully
self-contained, so adding replications never reshuffles existing ones and
records are byte-identical regardless of the parallelism degree.

run_trial and verify_oracle draw their instances through one build_instance.
An SDWN trial makes one scheduling call: reservations that cannot be met are
scaled by the maximal uniform factor and recorded as scaled_infeasible,
whether the slice's isolation is strict or best effort.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from . import cellular, control, metrics, wlan
from .config import CELLULAR, WLAN, ScenarioConfig
from .errors import ConfigError, InfeasibleError
from .model import (AccessPoint, ChannelParams, DeploymentParams, LoadSplit, Region,
                    assign_slices, gain_matrix, gain_tensor, generate_edge_weighted_users,
                    generate_ppp_users, slice_specs, wlan_rate_matrix)

STREAM_DEPLOY = 0
STREAM_SLICES = 1
STREAM_FADING = 2

CSV_COLUMNS = ("scenario_id", "trial", "policy", "lambda_mean", "rho1",
               "total_throughput", "sp1_throughput", "sp2_throughput", "jain_index",
               "edge_median_rate", "center_median_rate", "solver_status", "wall_time",
               "scaling")


@dataclass
class ResultRecord:
    scenario_id: str
    trial: int
    policy: str
    lambda_mean: float
    rho1: float
    total_throughput: float
    sp1_throughput: float
    sp2_throughput: float
    jain_index: float
    edge_median_rate: float
    center_median_rate: float
    solver_status: str
    wall_time: float = 0.0
    scaling: float = 1.0


@dataclass
class TrialDetail:
    """Raw per-trial outputs for in-process consumers (not serialized)."""

    record: ResultRecord
    per_user_rate: np.ndarray = None
    edge_flags: np.ndarray = None
    per_sp_airtime: np.ndarray = None
    user_slice_ids: np.ndarray = None


def stream_seed(master_seed: int, trial: int, stream: int) -> int:
    words = np.random.SeedSequence(entropy=master_seed,
                                   spawn_key=(trial, stream)).generate_state(2)
    return int(words[0]) | (int(words[1]) << 32)


def _channel_params(cfg: ScenarioConfig) -> ChannelParams:
    ch = cfg.channel
    return ChannelParams(
        pathloss_exponent=float(ch.get("pathloss_exponent", 3.5)),
        reference_distance=float(ch.get("reference_distance", 1.0)),
        reference_gain=float(ch.get("reference_gain", 1.0)),
        noise_power=float(ch.get("noise_power", 1e-13)),
        fading=ch.get("fading", "off"),
    )


def _nodes(cfg: ScenarioConfig):
    return [AccessPoint(id=n.id, position=n.position, channel_id=n.channel_id,
                        tx_power=n.tx_power) for n in cfg.nodes]


def _solver_options(cfg: ScenarioConfig):
    return (wlan.WlanSolverOptions(**cfg.wlan_solver),
            cellular.CellularSolverOptions(**cfg.cellular_solver))


@dataclass
class Instance:
    """One realized trial: its nodes, users, slices and channel state."""

    nodes: list
    params: ChannelParams
    positions: np.ndarray                # (N, 2)
    slice_ids: np.ndarray                # (N,) slice id per user
    slices: list                         # SliceSpec per configured slice
    gains: np.ndarray = None             # (N, A), WLAN
    rates: np.ndarray = None             # (N, A), WLAN
    gain_tensor: np.ndarray = None       # (N, B, S), cellular
    budgets: np.ndarray = None           # (B,), cellular


def build_instance(cfg: ScenarioConfig, trial: int) -> Instance:
    """Draw one trial's users, slices and channel from its seed streams.

    The model functions are called through this module's globals, so a
    wrapper installed on them here sees every instance run and oracle build.
    """
    region = Region(*cfg.region)
    nodes = _nodes(cfg)
    params = _channel_params(cfg)
    deployment = DeploymentParams(lambda_mean=float(cfg.deployment["lambda_mean"]))
    split = LoadSplit(rho1=float(cfg.load_split["rho1"]))

    deploy_seed = stream_seed(cfg.master_seed, trial, STREAM_DEPLOY)
    slice_seed = stream_seed(cfg.master_seed, trial, STREAM_SLICES)
    fading_seed = stream_seed(cfg.master_seed, trial, STREAM_FADING)

    if cfg.scenario_kind == CELLULAR and cfg.edge_fraction is not None:
        positions = generate_edge_weighted_users(region, deployment, nodes,
                                                 cfg.edge_fraction, cfg.edge_threshold,
                                                 deploy_seed)
    else:
        positions = generate_ppp_users(region, deployment, len(nodes), deploy_seed)
    slice_ids = assign_slices(len(positions), split, slice_seed)
    slices = slice_specs(slice_ids, [(sc.slice_id, sc.reservation) for sc in cfg.slices])
    inst = Instance(nodes=nodes, params=params, positions=positions, slice_ids=slice_ids,
                    slices=slices)
    if cfg.scenario_kind == WLAN:
        inst.gains = gain_matrix(positions, nodes, params, fading_seed)
        inst.rates = wlan_rate_matrix(inst.gains, nodes, params, cfg.rate_table)
    else:
        inst.gain_tensor = gain_tensor(positions, nodes, cfg.subcarriers, params, fading_seed)
        inst.budgets = np.array([n.tx_power for n in nodes], dtype=float)
    return inst


def run_trial(cfg: ScenarioConfig, trial: int, policy: str) -> TrialDetail:
    """One seeded trial under one policy, through the control plane."""
    t0 = time.perf_counter()
    inst = build_instance(cfg, trial)
    allocation, status, scaling = _allocate(cfg, inst, policy)
    edge_flags = _edge_flags_or_none(cfg, inst.positions, inst.nodes)
    if cfg.scenario_kind == WLAN:
        rep = wlan.wlan_throughput(allocation, inst.rates, inst.slices)
        per_sp, per_user = rep.per_sp, rep.per_user_per_ap.sum(axis=1)
        airtime = rep.per_sp_airtime
    else:
        rep = cellular.cellular_rates(allocation, inst.gain_tensor, inst.params.noise_power,
                                      inst.slices, edge_flags=edge_flags)
        per_sp, per_user, airtime = rep.per_slice_rate, rep.per_user_rate, None
    summary = metrics.aggregate_trial(per_sp, per_user, edge_flags)
    sp = summary["per_sp_throughput"] + (0.0, 0.0)
    rec = ResultRecord(
        scenario_id=cfg.scenario_id, trial=trial, policy=policy,
        lambda_mean=float(cfg.deployment["lambda_mean"]),
        rho1=float(cfg.load_split["rho1"]),
        total_throughput=summary["total_throughput"], sp1_throughput=sp[0],
        sp2_throughput=sp[1], jain_index=summary["jain_index"],
        edge_median_rate=summary["edge_median_rate"],
        center_median_rate=summary["center_median_rate"], solver_status=status,
        wall_time=time.perf_counter() - t0, scaling=float(scaling))
    return TrialDetail(record=rec, per_user_rate=per_user, edge_flags=edge_flags,
                       per_sp_airtime=airtime, user_slice_ids=inst.slice_ids)


def _allocate(cfg, inst, policy):
    """(allocation, solver status, scaling) of one policy on one instance.

    SDWN runs the control chain once: VRM translation, one CRM scheduling
    call, LRM application. Strict and best-effort infeasibility are recorded
    alike (scaled_infeasible at the maximal uniform scaling), so every
    constraint is sent as scalable and the CRM returns the scaled schedule
    instead of raising and being asked again.
    """
    if policy == "max_snr":
        if cfg.scenario_kind == WLAN:
            return wlan.max_snr_wlan(inst.gains, inst.rates), "baseline", 1.0
        return cellular.max_snr_cellular(inst.gain_tensor, inst.budgets,
                                         inst.params.noise_power), "baseline", 1.0
    ran = control.RanState(ran_id=0, kind=cfg.scenario_kind, user_slice_ids=inst.slice_ids,
                           gains=inst.gains, rates=inst.rates, gain_tensor=inst.gain_tensor,
                           budgets=inst.budgets, noise_power=inst.params.noise_power)
    guarantee = control.GUARANTEE_KIND[cfg.scenario_kind]
    constraints = [replace(control.vrm_translate(
        control.SlaSpec(sc.slice_id, guarantee, sc.reservation, sc.isolation),
        cfg.scenario_kind), scalable=True) for sc in cfg.slices]
    wlan_opts, cell_opts = _solver_options(cfg)
    crm = control.CommonResourceManager(wlan_options=wlan_opts, cellular_options=cell_opts)
    schedule = crm.crm_schedule({0: constraints}, [control.lrm_report(ran)])[0]
    control.LocalResourceManager().lrm_apply(schedule)
    if schedule.scaled:
        return schedule.allocation, "scaled_infeasible", schedule.scaling
    return schedule.allocation, "optimal", 1.0


def _edge_flags_or_none(cfg, positions, nodes):
    if len(positions) == 0 or len(nodes) < 2:
        return None
    return cellular.classify_cell_edge(positions, nodes, cfg.edge_threshold)


def _worker_count(workers=None) -> int:
    cap = os.environ.get("SDWN_SIM_THREADS")
    if workers is None:
        workers = int(cap) if cap else 1
    if cap:
        workers = min(workers, max(1, int(cap)))
    return max(1, workers)


def _task(args):
    cfg_kw, trial, policy = args
    return run_trial(ScenarioConfig(**cfg_kw), trial, policy)


def run_scenario(cfg: ScenarioConfig, policies=None, workers=None, keep_details=False):
    """All replications of one config; records sorted by (policy, trial)."""
    policies = sorted(policies) if policies else [cfg.policy]
    tasks = [(cfg.__dict__, trial, policy)
             for policy in policies for trial in range(cfg.replications)]
    details = _execute(tasks, _worker_count(workers))
    if keep_details:
        return details
    return [d.record for d in details]


def _execute(tasks, workers):
    if workers <= 1 or len(tasks) <= 1:
        return [_task(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_task, tasks, chunksize=1))


def sweep(cfg: ScenarioConfig, grid: dict, workers=None, keep_details=False):
    """Cartesian sweep over lambda_mean and/or rho1, both policies always.

    Records come back in (grid point, policy, trial) lexicographic order
    regardless of execution order.
    """
    names = sorted(grid)
    for name in names:
        if name not in ("lambda_mean", "rho1"):
            raise ConfigError(f"sweep parameter must be lambda_mean or rho1, got {name!r}")
        values = list(grid[name])
        if not values or any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError(f"sweep grid for {name} must be non-empty and strictly increasing")
    points = [()]
    for name in names:
        points = [p + ((name, v),) for p in points for v in grid[name]]
    subs = [_config_at(cfg, point) for point in points]   # validates every point before any run
    tasks = [(sub.__dict__, trial, policy) for sub in subs
             for policy in ("max_snr", "sdwn") for trial in range(cfg.replications)]
    details = _execute(tasks, _worker_count(workers))
    if keep_details:
        return details
    return [d.record for d in details]


def _config_at(cfg: ScenarioConfig, point) -> ScenarioConfig:
    sub = cfg
    for name, value in point:
        if name == "lambda_mean":
            if value <= 0:
                raise ConfigError("lambda_mean grid values must be positive")
            sub = replace(sub, deployment={"lambda_mean": float(value)})
        else:
            if not 0 <= value <= 1:
                raise ConfigError("rho1 grid values must lie in [0, 1]")
            sub = replace(sub, load_split={"rho1": float(value)})
    return sub


def format_float(x: float) -> str:
    return "%.9g" % x


def write_csv(records, path_or_handle, timing=False):
    """CSV with a mandatory header; floats printed with 9 significant digits.

    wall_time is written as 0 unless timing is requested, keeping output
    byte-deterministic under a fixed master seed.
    """
    own = isinstance(path_or_handle, (str, os.PathLike))
    fh = open(path_or_handle, "w") if own else path_or_handle
    try:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for rec in records:
            row = []
            for col in CSV_COLUMNS:
                val = getattr(rec, col)
                if col == "wall_time" and not timing:
                    val = 0.0
                row.append(format_float(val) if isinstance(val, float) else str(val))
            fh.write(",".join(row) + "\n")
    finally:
        if own:
            fh.close()


def read_csv(path):
    """Read a results CSV back into ResultRecord objects."""
    float_fields = {f.name for f in fields(ResultRecord) if f.type in (float, "float")}
    records = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != CSV_COLUMNS:
            raise ConfigError(f"{path}: unexpected CSV header")
        for line in fh:
            vals = line.strip().split(",")
            kw = {}
            for col, val in zip(CSV_COLUMNS, vals):
                if col in float_fields:
                    kw[col] = float(val)
                elif col == "trial":
                    kw[col] = int(val)
                else:
                    kw[col] = val
            records.append(ResultRecord(**kw))
    return records


@dataclass
class VerificationReport:
    scenario_kind: str
    solver_objective: float
    oracle_objective: float
    gap: float
    tolerance: float
    feasibility_agreement: bool
    passed: bool
    detail: str = ""


def verify_oracle(cfg: ScenarioConfig, grid_step: float = None, trial: int = 0):
    """Run the solver and the matching brute-force oracle on the instance
    run_trial draws for `trial`; report the objective gap and feasibility
    agreement."""
    inst = build_instance(cfg, trial)
    wlan_opts, cell_opts = _solver_options(cfg)
    noise = inst.params.noise_power
    solver_feasible, solver_scaling = True, 1.0
    if cfg.scenario_kind == WLAN:
        oracle = wlan.brute_force_tau_oracle(inst.rates, inst.slices, grid_step, wlan_opts)
        tolerance = 1e-2
        try:
            solver_obj = wlan.optimize_tau(inst.rates, inst.slices, wlan_opts).objective
        except InfeasibleError as err:
            solver_obj, solver_feasible, solver_scaling = 0.0, False, err.scaling
        gap = oracle.objective - solver_obj
    else:
        oracle = cellular.brute_force_cellular_oracle(inst.gain_tensor, inst.budgets,
                                                      inst.slices, cell_opts, noise_power=noise)
        tolerance = 0.05
        try:
            alloc = cellular.solve_joint_allocation(inst.gain_tensor, inst.budgets, inst.slices,
                                                    cell_opts, noise_power=noise)
            rep = cellular.cellular_rates(alloc, inst.gain_tensor, noise, inst.slices)
            solver_obj = float(rep.per_user_rate.sum())
        except InfeasibleError as err:
            solver_obj, solver_feasible, solver_scaling = 0.0, False, err.scaling
        gap = (oracle.objective - solver_obj) / oracle.objective if oracle.objective > 0 \
            else 0.0
    agree = solver_feasible == oracle.feasible
    if agree and not solver_feasible:
        agree = abs(solver_scaling - oracle.scaling) <= 0.02
    passed = agree and gap <= tolerance
    detail = "" if solver_feasible else \
        f"scaling solver={solver_scaling:.4f} oracle={oracle.scaling:.4f}"
    return VerificationReport(scenario_kind=cfg.scenario_kind, solver_objective=solver_obj,
                              oracle_objective=oracle.objective, gap=float(gap),
                              tolerance=tolerance, feasibility_agreement=agree,
                              passed=passed, detail=detail)
