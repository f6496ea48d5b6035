"""Scenario configuration: strict JSON schema with round-trip parsing.

Unknown keys are a hard error at every level so typos in experiment
definitions cannot slip through. parse(serialize(parse(text))) returns an
equal ScenarioConfig.
"""

import json
from dataclasses import asdict, dataclass, field

from .errors import ConfigError
from .model import DEFAULT_RATE_TABLE

WLAN = "wlan"
CELLULAR = "cellular"


@dataclass(frozen=True)
class NodeConfig:
    id: int
    position: tuple
    channel_id: int = 0
    tx_power: float = 0.25


@dataclass(frozen=True)
class SliceConfig:
    slice_id: int
    reservation: float
    isolation: str = "strict"


@dataclass(frozen=True)
class ScenarioConfig:
    scenario_kind: str
    region: tuple                    # (width, height)
    nodes: tuple                     # NodeConfig tuple
    channel: dict
    deployment: dict                 # {"lambda_mean": x}
    load_split: dict                 # {"rho1": x}
    slices: tuple                    # SliceConfig tuple
    policy: str = "sdwn"
    replications: int = 50
    master_seed: int = 0
    scenario_id: str = ""
    rate_table: tuple = DEFAULT_RATE_TABLE       # wlan
    subcarriers: int = 4                         # cellular
    edge_fraction: float = None                  # cellular deployment skew
    edge_threshold: float = 0.8                  # gamma
    wlan_solver: dict = field(default_factory=dict)
    cellular_solver: dict = field(default_factory=dict)


_TOP_KEYS = {"scenario_kind", "region", "nodes", "channel", "deployment", "load_split",
             "slices", "policy", "replications", "master_seed", "scenario_id",
             "rate_table", "subcarriers", "edge_fraction", "edge_threshold",
             "wlan_solver", "cellular_solver"}
_REQUIRED = {"scenario_kind", "region", "nodes", "channel", "deployment",
             "load_split", "slices"}
_NODE_KEYS = {"id", "position", "channel_id", "tx_power"}
_SLICE_KEYS = {"slice_id", "reservation", "isolation"}
_CHANNEL_KEYS = {"pathloss_exponent", "reference_distance", "reference_gain",
                 "noise_power", "fading"}
_WLAN_SOLVER_KEYS = {"max_iterations", "step_size", "feasibility_tolerance",
                     "convergence_tolerance", "multistart_count", "oracle_grid_step"}
_CELL_SOLVER_KEYS = {"power_levels", "max_outer_iterations", "convergence_tolerance",
                     "reservation_tolerance"}


def parse_config(data: dict) -> ScenarioConfig:
    """Validate a parsed JSON object into a ScenarioConfig.

    All violations are collected and reported together in one ConfigError, so
    a broken experiment definition surfaces every bad field at once.
    """
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    problems = []

    def _reject_unknown(mapping, allowed, where):
        unknown = set(mapping) - allowed
        if unknown:
            problems.append(f"unknown field(s) in {where}: {sorted(unknown)}")

    _reject_unknown(data, _TOP_KEYS, "config")
    missing = _REQUIRED - set(data)
    if missing:
        raise ConfigError(f"missing required config field(s): {sorted(missing)}"
                          + ("; " + "; ".join(problems) if problems else ""))
    kind = data["scenario_kind"]
    if kind not in (WLAN, CELLULAR):
        problems.append(f"scenario_kind must be wlan or cellular, got {kind!r}")

    region = data["region"]
    if not isinstance(region, dict):
        raise ConfigError("region must be an object with width and height")
    _reject_unknown(region, {"width", "height"}, "region")
    if not (region.get("width", 0) > 0 and region.get("height", 0) > 0):
        problems.append("region width and height must be positive")

    nodes = []
    if not data["nodes"]:
        problems.append("at least one node is required")
    for i, n in enumerate(data["nodes"]):
        _reject_unknown(n, _NODE_KEYS, f"nodes[{i}]")
        if "id" not in n or "position" not in n:
            problems.append(f"nodes[{i}] needs id and position")
            continue
        pos = tuple(float(x) for x in n["position"])
        if len(pos) != 2:
            problems.append(f"nodes[{i}] position must be [x, y]")
            continue
        if not (0 <= pos[0] <= region.get("width", 0)
                and 0 <= pos[1] <= region.get("height", 0)):
            problems.append(f"nodes[{i}] lies outside the region")
        nodes.append(NodeConfig(id=int(n["id"]), position=pos,
                                channel_id=int(n.get("channel_id", i)),
                                tx_power=float(n.get("tx_power", 0.25))))
    if kind == WLAN:
        channels = [n.channel_id for n in nodes]
        if len(set(channels)) != len(channels):
            problems.append("WLAN APs must sit on distinct channels")

    channel = dict(data["channel"])
    _reject_unknown(channel, _CHANNEL_KEYS, "channel")

    deployment = dict(data["deployment"])
    _reject_unknown(deployment, {"lambda_mean"}, "deployment")
    if deployment.get("lambda_mean", 0) <= 0:
        problems.append("deployment.lambda_mean must be positive")

    load_split = dict(data["load_split"])
    _reject_unknown(load_split, {"rho1"}, "load_split")
    if not 0 <= load_split.get("rho1", -1) <= 1:
        problems.append("load_split.rho1 must lie in [0, 1]")

    slices = []
    for i, s in enumerate(data["slices"]):
        _reject_unknown(s, _SLICE_KEYS, f"slices[{i}]")
        iso = s.get("isolation", "strict")
        if iso not in ("strict", "best_effort"):
            problems.append(f"slices[{i}]: unknown isolation {iso!r}")
            iso = "strict"
        try:
            res = float(s.get("reservation", 0.0))
        except (TypeError, ValueError):
            problems.append(f"slices[{i}]: reservation must be a number")
            res = 0.0
        if res < 0 or (kind == WLAN and res > 1):
            problems.append(f"slices[{i}]: reservation out of range")
            res = 0.0
        slices.append(SliceConfig(slice_id=int(s.get("slice_id", i)), reservation=res,
                                  isolation=iso))
    if len({s.slice_id for s in slices}) != len(slices):
        problems.append("slice ids must be distinct")
    if kind == WLAN and sum(s.reservation for s in slices) > 1 + 1e-12:
        problems.append("total airtime reservations exceed 1")

    policy = data.get("policy", "sdwn")
    if policy not in ("sdwn", "max_snr"):
        problems.append(f"policy must be sdwn or max_snr, got {policy!r}")
        policy = "sdwn"

    replications = int(data.get("replications", 50))
    if replications < 0:
        problems.append("replications must be >= 0")

    rate_table = data.get("rate_table")
    if rate_table is None:
        rate_table = DEFAULT_RATE_TABLE
    else:
        rate_table = tuple((float(t), float(r)) for t, r in rate_table)
        thresholds = [t for t, _ in rate_table]
        rates = [r for _, r in rate_table]
        if sorted(thresholds) != thresholds or sorted(rates) != rates:
            problems.append("rate_table must be monotone in threshold and rate")

    subcarriers = int(data.get("subcarriers", 4))
    if kind == CELLULAR and subcarriers < 1:
        problems.append("subcarriers must be >= 1")

    edge_fraction = data.get("edge_fraction")
    if edge_fraction is not None:
        edge_fraction = float(edge_fraction)
        if not 0 <= edge_fraction <= 1:
            problems.append("edge_fraction must lie in [0, 1]")
    edge_threshold = float(data.get("edge_threshold", 0.8))
    if not 0 < edge_threshold < 1:
        problems.append("edge_threshold must lie in (0, 1)")

    wlan_solver = dict(data.get("wlan_solver", {}))
    _reject_unknown(wlan_solver, _WLAN_SOLVER_KEYS, "wlan_solver")
    cellular_solver = dict(data.get("cellular_solver", {}))
    _reject_unknown(cellular_solver, _CELL_SOLVER_KEYS, "cellular_solver")

    if problems:
        raise ConfigError("invalid config: " + "; ".join(problems))

    return ScenarioConfig(
        scenario_kind=kind,
        region=(float(region["width"]), float(region["height"])),
        nodes=tuple(nodes),
        channel=channel,
        deployment=deployment,
        load_split=load_split,
        slices=tuple(slices),
        policy=policy,
        replications=replications,
        master_seed=int(data.get("master_seed", 0)),
        scenario_id=str(data.get("scenario_id", kind)),
        rate_table=rate_table,
        subcarriers=subcarriers,
        edge_fraction=edge_fraction,
        edge_threshold=edge_threshold,
        wlan_solver=wlan_solver,
        cellular_solver=cellular_solver,
    )


def load_config(path) -> ScenarioConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}: invalid JSON ({err})") from err
    return parse_config(data)


def config_to_dict(cfg: ScenarioConfig) -> dict:
    out = {
        "scenario_kind": cfg.scenario_kind,
        "region": {"width": cfg.region[0], "height": cfg.region[1]},
        "nodes": [asdict(n) | {"position": list(n.position)} for n in cfg.nodes],
        "channel": dict(cfg.channel),
        "deployment": dict(cfg.deployment),
        "load_split": dict(cfg.load_split),
        "slices": [asdict(s) for s in cfg.slices],
        "policy": cfg.policy,
        "replications": cfg.replications,
        "master_seed": cfg.master_seed,
        "scenario_id": cfg.scenario_id,
        "rate_table": [list(row) for row in cfg.rate_table],
        "subcarriers": cfg.subcarriers,
        "edge_fraction": cfg.edge_fraction,
        "edge_threshold": cfg.edge_threshold,
        "wlan_solver": dict(cfg.wlan_solver),
        "cellular_solver": dict(cfg.cellular_solver),
    }
    return out


def dump_config(cfg: ScenarioConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
