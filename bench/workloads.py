"""The benchmark's four workloads and the checks on every trial's output.

Each workload turns the seed into inputs, runs them in rounds through the
public sdwnsim entry points in this process (workers=1), and checks each
trial's output. Round r of seed s uses master_seed s * 10000 + r (times 100
plus the grid point's index in the sweeps), so a seed always gives the same
inputs and no two rounds or grid points of a run share a deployment.
wlan-reserved draws further master seeds from that one until the trial has the
empty slice, or the users in both slices, that `reserved_empty_slice` asks for. The
quality numbers and the result digest come from the first `quality_rounds`
rounds only, so they repeat exactly for a seed however long the run is.
README.md beside this file records why each workload was chosen.
"""

import hashlib
import io
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIG_DIR = SRC / "sdwnsim" / "configs"

RHO_GRID = (0.1, 0.5, 0.9)
WLAN_GRID = {"lambda_mean": (2.0, 6.0, 10.0), "rho1": RHO_GRID}
# wlan-reserved's round, as (lambda_mean, rho1). lambda = 6, the shipped
# config's load, runs twice, so the median SDWN trial falls inside the lambda = 6
# cluster of trial times instead of on the boundary with the slower lambda = 10
# cluster. Every block of four points holds lambda 2, 6, 6 and 10, so a round
# that the deadline cuts short keeps the same mix.
WLAN_RESERVED_POINTS = ((6.0, 0.5), (2.0, 0.1), (6.0, 0.1), (10.0, 0.9),
                        (6.0, 0.9), (2.0, 0.5), (6.0, 0.5), (10.0, 0.1),
                        (6.0, 0.1), (2.0, 0.9), (6.0, 0.9), (10.0, 0.5))
WLAN_RESERVED_SWEEPS = [({"lambda_mean": (lam,), "rho1": (rho,)}, 1)
                        for lam, rho in WLAN_RESERVED_POINTS]
MAX_DRAWS = 200            # master seeds tried per point for the wanted stratum
PAIRED_TOL = 1e-9          # SDWN >= Max-SNR up to summation-order noise
WLAN_GAP_TOL = 1e-2        # verify_oracle's absolute WLAN tolerance
CELLULAR_GAP_TOL = 0.05    # verify_oracle's relative cellular tolerance
SCALING_AGREEMENT = 0.02   # verify_oracle's bound on infeasible-scaling disagreement
TINY_NOISE = 1e-3          # noise power of criterion 2's tiny cellular instances


@dataclass
class Trial:
    key: str
    sdwn: bool
    seconds: float               # None when the trial raised before it was timed
    problems: list = field(default_factory=list)
    scaled: bool = False         # the program reported it scaled_infeasible


@dataclass
class Round:
    trials: list
    seconds: float               # program time: the sweep and its CSV, or the verifications
    text: str                    # CSV bytes (oracle-tiny: verification rows) behind the digest
    details: list = field(default_factory=list)


def round_seed(seed: int, r: int) -> int:
    return seed * 10000 + r


def grid_points(grid):
    """Single-point grids in the order harness.sweep visits the points of `grid`."""
    points = [{}]
    for name in sorted(grid):
        points = [dict(p, **{name: (v,)}) for p in points for v in grid[name]]
    return points


def digest(rounds) -> str:
    return hashlib.sha256("".join(rd.text for rd in rounds).encode()).hexdigest()


def lower_median(values) -> float:
    """Smallest sample with empirical CDF >= 0.5, as CdfTable.median defines it."""
    v = np.sort(np.asarray(values, dtype=float))
    return float(v[(len(v) + 1) // 2 - 1])


# ---- output checks ---------------------------------------------------------

def check_scaling(record) -> list:
    if not 0.0 <= record.scaling <= 1.0:
        return [f"scaling {record.scaling!r} outside [0, 1]"]
    return []


def check_wlan_airtime(record, airtime, betas, eps) -> list:
    """SDWN per-SP airtime >= scaling * beta - eps."""
    problems = []
    for k, (got, beta) in enumerate(zip(airtime, betas)):
        need = record.scaling * beta - eps
        if got < need:
            problems.append(f"SP{k + 1} airtime {got:.6g} < scaling*beta-eps {need:.6g}")
    return problems


def check_cellular_rates(record, reservations, tol) -> list:
    """SDWN per-slice rate >= scaling * reservation - tol."""
    problems = []
    rates = (record.sp1_throughput, record.sp2_throughput)
    for k, (got, res) in enumerate(zip(rates, reservations)):
        need = record.scaling * res - tol
        if got < need:
            problems.append(f"slice {k + 1} rate {got:.6g} < scaling*reservation-tol {need:.6g}")
    return problems


def check_paired(records) -> dict:
    """SDWN total >= Max-SNR total - 1e-9 on the same instance; problems keyed by
    the SDWN record's index."""
    baseline = {(r.lambda_mean, r.rho1, r.trial): r.total_throughput
                for r in records if r.policy == "max_snr"}
    problems = {}
    for i, r in enumerate(records):
        base = baseline.get((r.lambda_mean, r.rho1, r.trial))
        if r.policy == "sdwn" and base is not None and r.total_throughput < base - PAIRED_TOL:
            problems[i] = [f"SDWN total {r.total_throughput:.9g} < Max-SNR {base:.9g}"]
    return problems


def check_verification(kind, solver, oracle) -> tuple:
    """(gap, problems) for one solver-vs-oracle verification.

    solver is (objective, feasible, scaling). The gap is absolute for WLAN and
    relative for cellular, as in harness.verify_oracle."""
    objective, feasible, scaling = solver
    problems = []
    if feasible != oracle.feasible:
        problems.append(f"feasibility verdicts differ: solver {feasible}, oracle {oracle.feasible}")
    elif not feasible and abs(scaling - oracle.scaling) > SCALING_AGREEMENT:
        problems.append(f"scaling solver={scaling:.4f} oracle={oracle.scaling:.4f}")
    if kind == "wlan":
        gap, tol = oracle.objective - objective, WLAN_GAP_TOL
    else:
        gap = (oracle.objective - objective) / oracle.objective if oracle.objective > 0 else 0.0
        tol = CELLULAR_GAP_TOL
    if gap > tol:
        problems.append(f"{kind} gap {gap:.3g} > {tol:g}")
    return float(gap), problems


# ---- sweep workloads ---------------------------------------------------------

def reserved_empty_slice(point, r) -> bool:
    """Whether wlan-reserved's trial at `point` in round r has a slice with no users.

    Under strict isolation a trial is infeasible exactly when a slice is empty,
    and it then takes 2 to 4 times as long as a feasible one, so left to chance
    the number of such trials would set most of a run's time. Each round has
    exactly one, at a lambda = 2 corner (rho1 = 0.1 on even rounds, 0.9 on odd
    ones), against about 1.3 per round in unconditioned draws; every other
    point has users in both slices."""
    return point["lambda_mean"] == (2.0,) and point["rho1"] == ((0.1,) if r % 2 == 0 else (0.9,))


class SweepWorkload:
    """A shipped config swept over a grid, both policies, through harness.sweep."""

    quality_rounds = 1
    default_seed = 1

    def __init__(self, name, config_file, sweeps, tail_percentile, reservation=None,
                 paired=False, empty_slice=None):
        self.name, self.config_file = name, config_file
        self.points = [(point, reps) for grid, reps in sweeps for point in grid_points(grid)]
        self.tail_percentile = tail_percentile
        self.reservation, self.paired = reservation, paired
        self.empty_slice = empty_slice   # (point, round) -> whether its trial has an empty slice
        self.kind = "wlan" if config_file.startswith("wlan") else "cellular"
        self.throughput_unit = "Mbit/s" if self.kind == "wlan" else "bit/s/Hz"

    def setup(self, sd, seed):
        cfg = sd.config.load_config(CONFIG_DIR / self.config_file)
        if self.reservation is not None:
            cfg = replace(cfg, slices=tuple(replace(s, reservation=self.reservation)
                                            for s in cfg.slices))
        return SimpleNamespace(sd=sd, seed=seed, cfg=cfg)

    def run_round(self, state, r, deadline=None):
        """One harness.sweep per grid point, on the master seed `master_seed` picks,
        so no two points share a deployment; one CSV of all their records.
        Past `deadline` (a perf_counter time) no further point starts."""
        sd = state.sd
        seeds = [self.master_seed(state, r, k, point) for k, (point, _) in enumerate(self.points)]
        trials, details = [], []
        start = time.perf_counter()
        try:
            for (point, replications), seed in zip(self.points, seeds):
                if deadline is not None and time.perf_counter() >= deadline:
                    break
                cfg = replace(state.cfg, replications=replications, master_seed=seed)
                details.append(sd.harness.sweep(cfg, point, workers=1, keep_details=True))
            buf = io.StringIO()
            sd.harness.write_csv([d.record for sweep in details for d in sweep], buf)
        except Exception as err:   # a raising trial fails every trial of its round
            traceback.print_exc()
            seconds = time.perf_counter() - start
            count = sum(2 * replications for _, replications in self.points)
            return Round(trials=[Trial(f"r{r} task {i}", True, None, [f"raised {err!r}"])
                                 for i in range(count)],
                         seconds=seconds, text="")
        seconds = time.perf_counter() - start
        for sweep, seed in zip(details, seeds):
            paired = check_paired([d.record for d in sweep]) if self.paired else {}
            for i, d in enumerate(sweep):
                rec = d.record
                problems = check_scaling(rec) + paired.get(i, [])
                if rec.policy == "sdwn":
                    problems += self._check_reservations(sd, state.cfg, d)
                key = (f"r{r} lambda={rec.lambda_mean:g} rho1={rec.rho1:g} "
                       f"master_seed={seed} trial={rec.trial} {rec.policy}")
                trials.append(Trial(key, rec.policy == "sdwn", rec.wall_time, problems,
                                    rec.solver_status == "scaled_infeasible"))
        details = [d for sweep in details for d in sweep]
        return Round(trials=trials, seconds=seconds, text=buf.getvalue(), details=details)

    def master_seed(self, state, r, k, point) -> int:
        """round_seed(seed, r) * 100 + k for the k-th point of round r. When the
        workload fixes which trials have an empty slice, the first of that times
        MAX_DRAWS plus 0, 1, 2, ... whose trial 0 falls in the wanted stratum."""
        base = round_seed(state.seed, r) * 100 + k
        if self.empty_slice is None:
            return base
        want = 1 if self.empty_slice(point, r) else 0
        for j in range(MAX_DRAWS):
            if self._empty_slices(state, point, base * MAX_DRAWS + j) == want:
                return base * MAX_DRAWS + j
        raise RuntimeError(f"no master seed in {MAX_DRAWS} draws gives {want} empty slices "
                           f"at {point}")

    @staticmethod
    def _empty_slices(state, point, master_seed) -> int:
        """Slices with no users in trial 0 at `point` on `master_seed`, drawn the way
        harness.run_trial draws its users and slices. Calls sdwnsim.model directly,
        so a traced run records no span for it."""
        sd, cfg = state.sd, state.cfg
        model, stream_seed = sd.model, sd.harness.stream_seed
        positions = model.generate_ppp_users(
            model.Region(*cfg.region), model.DeploymentParams(lambda_mean=point["lambda_mean"][0]),
            len(cfg.nodes), stream_seed(master_seed, 0, sd.harness.STREAM_DEPLOY))
        ids = model.assign_slices(len(positions), model.LoadSplit(rho1=point["rho1"][0]),
                                  stream_seed(master_seed, 0, sd.harness.STREAM_SLICES))
        return sum(not np.any(ids == sc.slice_id) for sc in cfg.slices)

    def _check_reservations(self, sd, cfg, detail):
        reservations = [s.reservation for s in cfg.slices]
        if self.kind == "wlan":
            eps = sd.wlan.WlanSolverOptions(**cfg.wlan_solver).feasibility_tolerance
            return check_wlan_airtime(detail.record, detail.per_sp_airtime, reservations, eps)
        tol = sd.cellular.CellularSolverOptions(**cfg.cellular_solver).reservation_tolerance
        return check_cellular_rates(detail.record, reservations, tol)

    def quality(self, rounds):
        details = [d for rd in rounds for d in rd.details]
        sdwn = [d.record for d in details if d.record.policy == "sdwn"]
        out = {"sdwn_throughput_mean": (float(np.mean([r.total_throughput for r in sdwn])),
                                        self.throughput_unit)}
        if self.kind == "wlan":
            jain = [r.jain_index for r in sdwn if r.solver_status == "optimal"]
            out["sdwn_jain_mean"] = (float(np.mean(jain)) if jain else None, "ratio")
        else:
            out["edge_median_ratio"] = (self._edge_ratio(details), "ratio")
        return out

    @staticmethod
    def _edge_ratio(details):
        pools = {"sdwn": [], "max_snr": []}
        for d in details:
            if d.edge_flags is not None and len(d.per_user_rate):
                flags = np.asarray(d.edge_flags, dtype=bool)
                pools[d.record.policy].extend(np.asarray(d.per_user_rate)[flags].tolist())
        if not pools["sdwn"] or not pools["max_snr"]:
            return None
        base = lower_median(pools["max_snr"])
        return lower_median(pools["sdwn"]) / base if base > 0 else None


# ---- oracle-tiny ----------------------------------------------------------------

@dataclass
class TinyInstance:
    kind: str
    label: str
    slices: list
    rates: np.ndarray = None       # WLAN (users x APs)
    gains: np.ndarray = None       # cellular (users x BSs x subcarriers)
    budgets: np.ndarray = None
    noise: float = TINY_NOISE


class OracleWorkload:
    """Seeded tiny instances, each verified solver against brute-force oracle.

    Round r holds two WLAN instances (2 users x 2 APs, grid step 0.01,
    witness-feasible reservations) and, between them, one cellular instance
    (2 BSs, users x subcarriers from CELL_SHAPES[r % 3], zero reservations on
    even rounds and witness-feasible ones on odd rounds), built the way
    acceptance criteria 1 and 2 build theirs. A WLAN verification does a fixed
    amount of oracle work, and cellular ones take from a quarter of that to
    half as long again, so with two WLAN verifications to one cellular the median is a WLAN
    verification instead of falling between the two kinds. The oracles are
    called directly: harness.verify_oracle draws PPP users even when
    edge_fraction is set.
    """

    name = "oracle-tiny"
    quality_rounds = 2
    default_seed = 1
    grid_step = 0.01
    CELL_SHAPES = ((3, 3), (4, 3), (3, 4))

    def __init__(self, tail_percentile):
        self.tail_percentile = tail_percentile

    def setup(self, sd, seed):
        return SimpleNamespace(sd=sd, seed=seed, first=self.instances(sd, seed, 0))

    def instances(self, sd, seed, r):
        """Round r's instances: WLAN, cellular, WLAN."""
        rng = np.random.default_rng([seed, r])
        first = self.wlan_instance(sd, rng, "2x2 a")
        cell = self.cellular_instance(sd, rng, r)
        return [first, cell, self.wlan_instance(sd, rng, "2x2 b")]

    @staticmethod
    def wlan_instance(sd, rng, label):
        rates = rng.uniform(0.2, 1.0, size=(2, 2))
        tau = rng.uniform(0.05, 0.95, size=(2, 2))
        airtime = (tau * (1.0 - tau[::-1])).mean(axis=1)   # user k is slice k+1's only member
        betas = airtime * rng.uniform(0.3, 0.95, size=2)
        return TinyInstance("wlan", label, [
            sd.model.SliceSpec(1, float(betas[0]), frozenset({0})),
            sd.model.SliceSpec(2, float(betas[1]), frozenset({1}))], rates=rates)

    def cellular_instance(self, sd, rng, r):
        users, subcarriers = self.CELL_SHAPES[r % 3]
        gains = rng.uniform(0.01, 1.0, size=(users, 2, subcarriers))
        budgets = np.ones(2)
        members = rng.integers(0, 2, size=users)
        members[0] = 1
        groups = (frozenset(np.flatnonzero(members == 1).tolist()),
                  frozenset(np.flatnonzero(members == 0).tolist()))
        reservations = (0.0, 0.0)
        witness = r % 2 == 1
        if witness:
            base = sd.cellular.max_snr_cellular(gains, budgets, TINY_NOISE)
            shell = [sd.model.SliceSpec(k + 1, 0.0, g) for k, g in enumerate(groups)]
            rates_by_slice = sd.cellular.cellular_rates(base, gains, TINY_NOISE,
                                                        shell).per_slice_rate
            reservations = tuple(float(0.5 * x) for x in rates_by_slice)
        return TinyInstance(
            "cellular", f"{users}x2x{subcarriers} {'witness' if witness else 'zero'}",
            [sd.model.SliceSpec(k + 1, res, g)
             for k, (res, g) in enumerate(zip(reservations, groups))],
            gains=gains, budgets=budgets)

    def run_round(self, state, r, deadline=None):
        sd = state.sd
        instances = state.first if r == 0 else self.instances(sd, state.seed, r)
        trials, rows, details, total = [], [], [], 0.0
        for inst in instances:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            key = f"r{r} {inst.kind} {inst.label}"
            start = time.perf_counter()
            try:
                solver, oracle = verify(sd, inst, self.grid_step)
            except Exception as err:   # a raising verification fails its own trial only
                traceback.print_exc()
                total += time.perf_counter() - start
                trials.append(Trial(key, True, None, [f"raised {err!r}"]))
                continue
            seconds = time.perf_counter() - start
            total += seconds
            gap, problems = check_verification(inst.kind, solver, oracle)
            trials.append(Trial(key, True, seconds, problems))
            details.append((inst.kind, gap))
            rows.append(",".join([key, "%.9g" % solver[0], str(solver[1]), "%.9g" % solver[2],
                                  "%.9g" % oracle.objective, str(oracle.feasible),
                                  "%.9g" % oracle.scaling]) + "\n")
        return Round(trials=trials, seconds=total, text="".join(rows), details=details)

    def quality(self, rounds):
        gaps = {"wlan": [], "cellular": []}
        for rd in rounds:
            for kind, gap in rd.details:
                gaps[kind].append(gap)
        worst = [g for v in gaps.values() for g in v]
        return {"oracle_gap_max": (max(worst) if worst else None, "gap"),
                "oracle_gap_max_wlan_abs": (max(gaps["wlan"], default=None), "rate"),
                "oracle_gap_max_cellular_rel": (max(gaps["cellular"], default=None), "ratio")}


def verify(sd, inst, grid_step):
    """Solver and oracle on one tiny instance: ((objective, feasible, scaling), oracle).

    Looked up through this module, so a traced run can wrap it as the trial's
    root span."""
    InfeasibleError = sd.errors.InfeasibleError
    if inst.kind == "wlan":
        oracle = sd.wlan.brute_force_tau_oracle(inst.rates, inst.slices, grid_step=grid_step)
        try:
            sol = sd.wlan.optimize_tau(inst.rates, inst.slices)
            return (sol.objective, True, 1.0), oracle
        except InfeasibleError as err:
            return (0.0, False, err.scaling), oracle
    oracle = sd.cellular.brute_force_cellular_oracle(inst.gains, inst.budgets, inst.slices,
                                                     noise_power=inst.noise)
    try:
        alloc = sd.cellular.solve_joint_allocation(inst.gains, inst.budgets, inst.slices,
                                                   noise_power=inst.noise)
    except InfeasibleError as err:
        return (0.0, False, err.scaling), oracle
    rep = sd.cellular.cellular_rates(alloc, inst.gains, inst.noise, inst.slices)
    return (float(rep.per_user_rate.sum()), True, 1.0), oracle


WORKLOADS = {w.name: w for w in (
    SweepWorkload("wlan-reserved", "wlan-4ap.cfg", WLAN_RESERVED_SWEEPS, tail_percentile=75,
                  empty_slice=reserved_empty_slice),
    SweepWorkload("wlan-unreserved", "wlan-4ap.cfg", [(WLAN_GRID, 1)], tail_percentile=90,
                  reservation=0.0, paired=True),
    SweepWorkload("cellular-coverage", "cellular-4bs.cfg",
                  [({"lambda_mean": (0.3,)}, 2), ({"lambda_mean": (2.0,)}, 6)],
                  tail_percentile=75),
    OracleWorkload(tail_percentile=50),
)}
