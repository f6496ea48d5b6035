"""Throughput aggregation, Jain fairness, empirical CDFs, edge statistics."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UndefinedMetricError


@dataclass(frozen=True)
class FairnessReport:
    per_sp_throughput: tuple
    jain_index: float


@dataclass(frozen=True)
class CdfTable:
    """Step CDF: values sorted ascending, cumulative probabilities in (0, 1]."""

    values: np.ndarray
    probabilities: np.ndarray

    def evaluate(self, x: float) -> float:
        return float(np.searchsorted(self.values, x, side="right")) / len(self.values)

    def median(self) -> float:
        # lower interpolation: smallest sample value with F >= 0.5
        idx = int(np.searchsorted(self.probabilities, 0.5, side="left"))
        return float(self.values[idx])


def jain_index(throughputs) -> float:
    """Jain's fairness index (sum T)^2 / (K * sum T^2) over per-SP throughputs."""
    t = np.asarray(throughputs, dtype=float)
    if t.size == 0 or np.any(t < 0):
        raise UndefinedMetricError("jain_index needs a non-empty vector of non-negative throughputs")
    total_sq = t.sum() ** 2
    if total_sq == 0.0:
        raise UndefinedMetricError("jain_index is undefined for an all-zero throughput vector")
    return float(total_sq / (t.size * np.sum(t * t)))


def empirical_cdf(values) -> CdfTable:
    """Empirical step CDF F(x) = (count <= x) / N of a non-empty sample."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise UndefinedMetricError("empirical_cdf needs a non-empty sample")
    v = np.sort(v)
    p = np.arange(1, v.size + 1, dtype=float) / v.size
    return CdfTable(values=v, probabilities=p)


def aggregate_trial(per_sp_throughput, per_user_rate=None, edge_flags=None):
    """Collect one trial's metrics: totals, per-SP split, Jain, edge/center medians.

    per_sp_throughput must partition the total; per_user_rate and edge_flags are
    optional and feed the edge/center medians. A metric with no data (Jain of
    an all-zero trial, the median of an empty group) reads 0.0, as in the
    results CSV.
    """
    t = np.asarray(per_sp_throughput, dtype=float)
    total = float(t.sum())
    j = jain_index(t) if total > 0 else 0.0
    edge_median = 0.0
    center_median = 0.0
    if per_user_rate is not None and edge_flags is not None:
        rates = np.asarray(per_user_rate, dtype=float)
        flags = np.asarray(edge_flags, dtype=bool)
        if flags.shape != rates.shape:
            raise ConfigError("edge flags do not match per-user rates")
        if flags.any():
            edge_median = empirical_cdf(rates[flags]).median()
        if (~flags).any():
            center_median = empirical_cdf(rates[~flags]).median()
    return {
        "total_throughput": total,
        "per_sp_throughput": tuple(float(x) for x in t),
        "jain_index": j,
        "edge_median_rate": edge_median,
        "center_median_rate": center_median,
    }
