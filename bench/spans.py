"""Spans recorded from outside sdwnsim, and the per-layer metrics derived from them.

`installed` wraps the public functions of the model, control, wlan, cellular,
metrics, harness and config layers in the module where each name is looked up
(harness imports the model functions by name; control calls
`wlan.optimize_tau` through the module), so the program's source is untouched.
Every call becomes one in-memory span: name, start, end, parent span, trial id.
"""

import functools
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass

# Spans that start a trial; every span opened inside one carries its id.
TRIAL_ROOTS = frozenset({"harness.run_trial", "bench.verify"})

DEPLOY = ("model.generate_ppp_users", "model.generate_edge_weighted_users",
          "model.assign_slices")
CHANNEL = ("model.gain_matrix", "model.gain_tensor", "model.wlan_rate_matrix")
METRICS = ("metrics.jain_index", "metrics.empirical_cdf")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1      # index of the enclosing span, -1 at top level
    trial: int = -1       # index of the enclosing trial-root span, -1 outside trials
    outcome: str = "ok"   # "raised", or the tag the wrapper's classifier gave the result
    count: int = 0        # work count the wrapper read off the call (users, grid points)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps the spans of one run in memory, in the order they were opened."""

    def __init__(self):
        self.spans = []
        self._open = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        trial = self.spans[parent].trial if parent >= 0 else -1
        if trial < 0 and name in TRIAL_ROOTS:
            trial = index
        self.spans.append(Span(name, time.perf_counter(), parent=parent, trial=trial))
        self._open.append(index)
        return index

    def close(self, index: int, outcome: str = "ok", count: int = 0, end: float = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter() if end is None else end
        span.outcome, span.count = outcome, count
        self._open.pop()

    def wrap(self, fn, name: str, classify=None, count=None):
        """`fn` with a span around each call; classify(result) tags the outcome and
        count(bound_arguments, result) records a work count."""
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(index, "raised")
                raise
            end = time.perf_counter()
            outcome = classify(result) if classify else "ok"
            work = 0
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                work = count(bound.arguments, result)
            self.close(index, outcome, work, end)
            return result
        return traced


def oracle_grid_points(arguments, default_options) -> int:
    """len(grid) ** variables for one brute_force_tau_oracle call."""
    step = arguments["grid_step"]
    if step is None:
        step = (arguments["options"] or default_options).oracle_grid_step
    count = int(1.0 / step + 1e-9)
    points = count + 1 + (count * step < 1.0 - 1e-12)
    return points ** arguments["rates"].size


def targets(sd):
    """(owner, attribute, span name, classify, count) for every wrapped name."""
    users = lambda arguments, result: len(result)   # noqa: E731
    status = lambda detail: detail.record.solver_status   # noqa: E731
    verdict = lambda feas: "ok" if feas.feasible else "infeasible"   # noqa: E731
    h, w, c = sd.harness, sd.wlan, sd.cellular
    grid_points = lambda arguments, result: oracle_grid_points(   # noqa: E731
        arguments, w.WlanSolverOptions())
    return [
        (h, "generate_ppp_users", "model.generate_ppp_users", None, users),
        (h, "generate_edge_weighted_users", "model.generate_edge_weighted_users", None, users),
        (h, "assign_slices", "model.assign_slices", None, None),
        (h, "gain_matrix", "model.gain_matrix", None, None),
        (h, "gain_tensor", "model.gain_tensor", None, None),
        (h, "wlan_rate_matrix", "model.wlan_rate_matrix", None, None),
        (h, "run_trial", "harness.run_trial", status, None),
        (h, "sweep", "harness.sweep", None, None),
        (h, "write_csv", "harness.write_csv", None, None),
        (sd.control.CommonResourceManager, "crm_schedule", "control.crm_schedule", None, None),
        (sd.control.LocalResourceManager, "lrm_apply", "control.lrm_apply", None, None),
        (w, "optimize_tau", "wlan.optimize_tau", None, None),
        (w, "feasibility_check", "wlan.feasibility_check", verdict, None),
        (w, "max_snr_wlan", "wlan.max_snr_wlan", None, None),
        (w, "wlan_throughput", "wlan.wlan_throughput", None, None),
        (w, "brute_force_tau_oracle", "wlan.brute_force_tau_oracle", None, grid_points),
        (c, "solve_joint_allocation", "cellular.solve_joint_allocation", None, None),
        (c, "max_snr_cellular", "cellular.max_snr_cellular", None, None),
        (c, "cellular_rates", "cellular.cellular_rates", None, None),
        (c, "classify_cell_edge", "cellular.classify_cell_edge", None, None),
        (c, "brute_force_cellular_oracle", "cellular.brute_force_cellular_oracle", None, None),
        (sd.metrics, "jain_index", "metrics.jain_index", None, None),
        (sd.metrics, "empirical_cdf", "metrics.empirical_cdf", None, None),
        (sd.config, "load_config", "config.load_config", None, None),
    ]


@contextmanager
def installed(tracer: Tracer, wrap_targets):
    """Wrap every target for the duration of the block, then restore the originals."""
    patched = []
    try:
        for owner, attr, name, classify, count in wrap_targets:
            original = owner.__dict__[attr]
            setattr(owner, attr, tracer.wrap(original, name, classify, count))
            patched.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def self_seconds(start: float, end: float, children) -> float:
    """Duration of [start, end] not covered by any child interval."""
    covered, reach = 0.0, start
    for lo, hi in sorted(children):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (end - start) - covered


def layer_metrics(spans) -> dict:
    """Per-layer totals, self times, counts and ratios from one run's spans."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))

    def pick(*names, outcome=None):
        return [(i, s) for i, s in enumerate(spans) if s.name in names
                and (outcome is None or s.outcome == outcome)]

    def total(*names, outcome=None):
        return sum(s.seconds for _, s in pick(*names, outcome=outcome))

    def self_total(*names):
        return sum(self_seconds(s.start, s.end, children[i]) for i, s in pick(*names))

    def calls(*names, outcome=None):
        return len(pick(*names, outcome=outcome))

    def useful_ratio(name):
        n = calls(name)
        return (n - calls(name, outcome="raised")) / n if n else 0.0

    sdwn_trials = [s for _, s in pick("harness.run_trial") if s.outcome != "baseline"]
    return {
        "model.deploy.total_s": total(*DEPLOY),
        "model.channel.total_s": total(*CHANNEL),
        "model.users": sum(s.count for _, s in pick(*DEPLOY[:2])),
        "control.crm_schedule.calls": calls("control.crm_schedule"),
        "control.crm_schedule.raised": calls("control.crm_schedule", outcome="raised"),
        "control.crm_schedule.self_s": self_total("control.crm_schedule"),
        "control.lrm_apply.total_s": total("control.lrm_apply"),
        "wlan.optimize_tau.calls": calls("wlan.optimize_tau"),
        "wlan.optimize_tau.raised": calls("wlan.optimize_tau", outcome="raised"),
        "wlan.optimize_tau.total_s": total("wlan.optimize_tau"),
        "wlan.optimize_tau.self_s": self_total("wlan.optimize_tau"),
        "wlan.optimize_tau.useful_ratio": useful_ratio("wlan.optimize_tau"),
        "wlan.feasibility_check.calls": calls("wlan.feasibility_check"),
        "wlan.feasibility_check.infeasible": calls("wlan.feasibility_check",
                                                   outcome="infeasible"),
        "wlan.feasibility_check.total_s": total("wlan.feasibility_check"),
        "wlan.feasibility_check.infeasible_s": total("wlan.feasibility_check",
                                                     outcome="infeasible"),
        "wlan.max_snr_wlan.total_s": total("wlan.max_snr_wlan"),
        "wlan.wlan_throughput.total_s": total("wlan.wlan_throughput"),
        "wlan.brute_force_tau_oracle.calls": calls("wlan.brute_force_tau_oracle"),
        "wlan.brute_force_tau_oracle.total_s": total("wlan.brute_force_tau_oracle"),
        "wlan.oracle.grid_points": sum(s.count for _, s in pick("wlan.brute_force_tau_oracle")),
        "cellular.solve_joint_allocation.calls": calls("cellular.solve_joint_allocation"),
        "cellular.solve_joint_allocation.raised": calls("cellular.solve_joint_allocation",
                                                        outcome="raised"),
        "cellular.solve_joint_allocation.total_s": total("cellular.solve_joint_allocation"),
        "cellular.solve_joint_allocation.raised_s": total("cellular.solve_joint_allocation",
                                                          outcome="raised"),
        "cellular.solve_joint_allocation.useful_ratio":
            useful_ratio("cellular.solve_joint_allocation"),
        "cellular.max_snr_cellular.total_s": total("cellular.max_snr_cellular"),
        "cellular.cellular_rates.total_s": total("cellular.cellular_rates"),
        "cellular.classify_cell_edge.total_s": total("cellular.classify_cell_edge"),
        "cellular.brute_force_cellular_oracle.calls": calls("cellular.brute_force_cellular_oracle"),
        "cellular.brute_force_cellular_oracle.total_s":
            total("cellular.brute_force_cellular_oracle"),
        "metrics.total_s": total(*METRICS),
        "harness.run_trial.calls": calls("harness.run_trial"),
        "harness.run_trial.total_s": total("harness.run_trial"),
        "harness.run_trial.self_s": self_total("harness.run_trial"),
        "harness.run_trial.sdwn_calls": len(sdwn_trials),
        "harness.run_trial.sdwn_total_s": sum(s.seconds for s in sdwn_trials),
        "harness.run_trial.scaled": calls("harness.run_trial", outcome="scaled_infeasible"),
        "harness.overhead_s": self_total("harness.sweep"),
        "harness.write_csv.total_s": total("harness.write_csv"),
        "config.load_config.total_s": total("config.load_config"),
    }
