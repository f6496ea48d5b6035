"""Hierarchical resource-management control plane.

Three roles passing values in one process: the virtual-network manager
translates SLAs into solver constraints, the common manager schedules the
shared pool by dispatching to the scenario solvers, and the local manager
maps schedules onto physical parameters and reports RAN measurements.
Reservations that cannot be met raise InfeasibleError when a reserved slice
is strict; when all are best effort they are scaled by the maximal uniform
factor and the schedule is marked scaled.
Epoch counters guard against out-of-order application of schedules.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import cellular, wlan
from .errors import ConfigError, InfeasibleError, KindMismatchError, StaleEpochError
from .model import slice_specs

WLAN_KIND = "wlan"
CELLULAR_KIND = "cellular"
GUARANTEE_KIND = {WLAN_KIND: "airtime", CELLULAR_KIND: "min_rate"}


@dataclass(frozen=True)
class SlaSpec:
    slice_id: int
    guarantee_kind: str          # airtime | min_rate
    guarantee_value: float
    isolation_level: str = "strict"   # strict | best_effort

    def __post_init__(self):
        if self.guarantee_kind not in ("airtime", "min_rate"):
            raise ConfigError(f"unknown guarantee kind {self.guarantee_kind!r}")
        if self.guarantee_value < 0:
            raise ConfigError("guarantee value must be >= 0")
        if self.guarantee_kind == "airtime" and self.guarantee_value > 1:
            raise ConfigError("airtime guarantees cannot exceed 1")
        if self.isolation_level not in ("strict", "best_effort"):
            raise ConfigError(f"unknown isolation level {self.isolation_level!r}")


@dataclass(frozen=True)
class Constraint:
    slice_id: int
    kind: str            # airtime | min_rate
    value: float
    scalable: bool       # best-effort SLAs may be scaled on infeasibility


@dataclass
class RanState:
    """What SD-LRM knows about one RAN: its kind and current channel state."""

    ran_id: int
    kind: str
    user_slice_ids: np.ndarray           # (N,) slice id per user
    gains: np.ndarray = None             # (N, A) for WLAN
    rates: np.ndarray = None             # (N, A) for WLAN
    gain_tensor: np.ndarray = None       # (N, B, S) for cellular
    budgets: np.ndarray = None           # (B,) for cellular
    noise_power: float = None

    def __post_init__(self):
        if self.kind not in (WLAN_KIND, CELLULAR_KIND):
            raise ConfigError(f"unknown RAN kind {self.kind!r}")
        if self.kind == WLAN_KIND and (self.rates is None or self.gains is None):
            raise ConfigError("a WLAN RAN needs gain and rate matrices")
        if self.kind == CELLULAR_KIND and (self.gain_tensor is None or self.budgets is None):
            raise ConfigError("a cellular RAN needs a gain tensor and power budgets")


@dataclass
class MeasurementReport:
    ran_id: int
    kind: str
    gains: np.ndarray
    rates: np.ndarray
    user_counts: dict
    budgets: np.ndarray = None
    noise_power: float = None
    user_slice_ids: np.ndarray = None


@dataclass
class ResourceBlockSchedule:
    ran_id: int
    kind: str
    epoch: int
    allocation: object            # tau matrix (WLAN) or CellularAllocation
    scaled: bool = False          # reservations were uniformly scaled
    scaling: float = 1.0
    per_sp_airtime: np.ndarray = None
    objective: float = 0.0


@dataclass
class PhysicalConfig:
    ran_id: int
    kind: str
    epoch: int
    cw_table: wlan.CwTable = None
    subcarrier_table: np.ndarray = None
    power_table: np.ndarray = None


def vrm_translate(sla: SlaSpec, ran_kind: str) -> Constraint:
    """Translate one SP's SLA into a solver constraint for its RAN kind."""
    expected = GUARANTEE_KIND.get(ran_kind, sla.guarantee_kind)
    if sla.guarantee_kind != expected:
        raise KindMismatchError(f"{ran_kind} RANs take {expected} guarantees, got "
                                f"{sla.guarantee_kind!r} for slice {sla.slice_id}")
    return Constraint(slice_id=sla.slice_id, kind=sla.guarantee_kind,
                      value=sla.guarantee_value,
                      scalable=(sla.isolation_level == "best_effort"))


def lrm_report(ran: RanState) -> MeasurementReport:
    """Snapshot the RAN's current channel state and capacity summary."""
    counts = {}
    for sid in ran.user_slice_ids:
        counts[int(sid)] = counts.get(int(sid), 0) + 1
    if ran.kind == WLAN_KIND:
        return MeasurementReport(ran_id=ran.ran_id, kind=ran.kind,
                                 gains=ran.gains.copy(), rates=ran.rates.copy(),
                                 user_counts=counts, noise_power=ran.noise_power,
                                 user_slice_ids=ran.user_slice_ids.copy())
    return MeasurementReport(ran_id=ran.ran_id, kind=ran.kind,
                             gains=ran.gain_tensor.copy(), rates=None,
                             user_counts=counts, budgets=ran.budgets.copy(),
                             noise_power=ran.noise_power,
                             user_slice_ids=ran.user_slice_ids.copy())


class CommonResourceManager:
    """SD-CRM: schedules the pooled resources of all registered RANs.

    Scheduling itself is a pure function of (constraints, reports); the
    manager only tracks the per-RAN epoch counters.
    """

    def __init__(self, wlan_options: wlan.WlanSolverOptions = None,
                 cellular_options: cellular.CellularSolverOptions = None):
        self.wlan_options = wlan_options or wlan.WlanSolverOptions()
        self.cellular_options = cellular_options or cellular.CellularSolverOptions()
        self._epochs = {}

    def crm_schedule(self, constraints_by_ran: dict, reports) -> list:
        """Schedule each RAN with its scenario solver.

        When the reservations cannot all be met, InfeasibleError carries the
        maximal uniform scaling. It propagates if some reserved slice is
        strict; if all are scalable, the RAN is re-solved at the scaled
        reservations and its schedule is marked scaled.
        """
        reports_by_ran = {r.ran_id: r for r in reports}
        schedules = []
        for ran_id in sorted(constraints_by_ran):
            if ran_id not in reports_by_ran:
                raise ConfigError(f"no measurement report for RAN {ran_id}")
            report = reports_by_ran[ran_id]
            constraints = constraints_by_ran[ran_id]
            for c in constraints:
                if c.kind != GUARANTEE_KIND[report.kind]:
                    raise KindMismatchError(
                        f"RAN {ran_id} ({report.kind}) got a {c.kind} constraint")
            epoch = self._epochs.get(ran_id, 0) + 1
            self._epochs[ran_id] = epoch
            solve = self._solver(report)
            slices = slice_specs(report.user_slice_ids,
                                 [(c.slice_id, c.value) for c in constraints])
            scaled, scaling = False, 1.0
            try:
                allocation, airtimes, objective = solve(slices)
            except InfeasibleError as err:
                if not all(c.scalable for c in constraints if c.value > 0):
                    raise
                scaled, scaling = True, err.scaling
                allocation, airtimes, objective = solve(
                    [replace(sl, reservation=err.scaling * sl.reservation) for sl in slices])
            schedules.append(ResourceBlockSchedule(
                ran_id=ran_id, kind=report.kind, epoch=epoch, allocation=allocation,
                scaled=scaled, scaling=scaling, per_sp_airtime=airtimes,
                objective=objective))
        return schedules

    def _solver(self, report):
        """The report's scenario solver, warm-started from its Max-SNR baseline,
        as slices -> (allocation, per-slice airtime, objective)."""
        if report.kind == WLAN_KIND:
            baseline = wlan.max_snr_wlan(report.gains, report.rates)

            def solve(slices):
                sol = wlan.optimize_tau(report.rates, slices, self.wlan_options,
                                        baseline_tau=baseline)
                return sol.tau, sol.per_sp_airtime, sol.objective
            return solve
        baseline = cellular.max_snr_cellular(report.gains, report.budgets, report.noise_power)

        def solve(slices):
            alloc = cellular.solve_joint_allocation(report.gains, report.budgets, slices,
                                                    self.cellular_options, baseline=baseline,
                                                    noise_power=report.noise_power)
            return alloc, None, 0.0
        return solve


class LocalResourceManager:
    """SD-LRM: maps schedules onto physical parameters, rejecting replays."""

    def __init__(self):
        self._applied = {}

    def lrm_apply(self, schedule: ResourceBlockSchedule) -> PhysicalConfig:
        last = self._applied.get(schedule.ran_id, 0)
        if schedule.epoch <= last:
            raise StaleEpochError(
                f"RAN {schedule.ran_id}: epoch {schedule.epoch} already applied (last {last})")
        if schedule.kind == WLAN_KIND:
            if not isinstance(schedule.allocation, np.ndarray):
                raise KindMismatchError("WLAN schedule must carry a tau matrix")
            config = PhysicalConfig(ran_id=schedule.ran_id, kind=WLAN_KIND,
                                    epoch=schedule.epoch,
                                    cw_table=wlan.tau_to_cwmin(schedule.allocation))
        elif schedule.kind == CELLULAR_KIND:
            if not isinstance(schedule.allocation, cellular.CellularAllocation):
                raise KindMismatchError("cellular schedule must carry a CellularAllocation")
            config = PhysicalConfig(ran_id=schedule.ran_id, kind=CELLULAR_KIND,
                                    epoch=schedule.epoch,
                                    subcarrier_table=schedule.allocation.assignment.copy(),
                                    power_table=schedule.allocation.power.copy())
        else:
            raise KindMismatchError(f"unknown schedule kind {schedule.kind!r}")
        self._applied[schedule.ran_id] = schedule.epoch
        return config
