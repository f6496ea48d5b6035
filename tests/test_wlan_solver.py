import numpy as np
import pytest

from sdwnsim.errors import InfeasibleError
from sdwnsim.model import SliceSpec
from sdwnsim.wlan import (WlanSolverOptions, _airtime_values, _membership_matrix,
                          brute_force_tau_oracle, feasibility_check, max_snr_wlan,
                          optimize_tau, wlan_throughput)


def two_user_slices(b1, b2):
    return [SliceSpec(1, b1, frozenset({0})), SliceSpec(2, b2, frozenset({1}))]


def random_reserved_instance(rng, n_max=3, aps=1):
    n = int(rng.integers(1, n_max + 1))
    rates = rng.uniform(0.2, 1.0, size=(n, aps))
    witness = rng.uniform(0.05, 0.95, size=(n, aps))
    members = rng.integers(0, 2, size=n)
    members[0] = 1
    s1 = frozenset(np.flatnonzero(members == 1).tolist())
    s2 = frozenset(np.flatnonzero(members == 0).tolist())
    shell = [SliceSpec(1, 0.0, s1), SliceSpec(2, 0.0, s2)]
    airtimes = _airtime_values(witness, _membership_matrix(n, shell))
    betas = airtimes * rng.uniform(0.3, 0.95, size=2)
    return rates, [SliceSpec(1, float(betas[0]), s1), SliceSpec(2, float(betas[1]), s2)]


def test_analytic_reserved_instance():
    rates = np.ones((2, 1))
    sol = optimize_tau(rates, two_user_slices(0.2, 0.2))
    assert sol.objective == pytest.approx(1.4 - 2 * np.sqrt(0.2), abs=5e-3)
    ordered = sorted(sol.tau.ravel())
    assert ordered[0] == pytest.approx(np.sqrt(0.2), abs=5e-3)
    assert ordered[1] == pytest.approx(1 - np.sqrt(0.2), abs=5e-3)
    assert np.all(sol.per_sp_airtime >= 0.2 - 1e-4)


def test_monopoly_tie_breaks_to_lower_user():
    sol = optimize_tau(np.ones((2, 1)), two_user_slices(0.0, 0.0))
    assert sol.objective == pytest.approx(1.0)
    assert sol.tau[0, 0] == pytest.approx(1.0)
    assert sol.tau[1, 0] == pytest.approx(0.0)


def test_infeasible_raises_with_scaling():
    with pytest.raises(InfeasibleError) as err:
        optimize_tau(np.ones((2, 1)), two_user_slices(0.4, 0.4))
    assert err.value.scaling == pytest.approx(0.625, abs=0.02)


def test_feasibility_check_basics():
    rates = np.ones((2, 1))
    assert feasibility_check(rates, two_user_slices(0.0, 0.0)).feasible
    res = feasibility_check(rates, two_user_slices(0.4, 0.4))
    assert not res.feasible
    assert res.scaling == pytest.approx(0.625, abs=0.02)
    ok = feasibility_check(rates, two_user_slices(0.2, 0.2))
    assert ok.feasible
    airtimes = _airtime_values(ok.witness, _membership_matrix(2, two_user_slices(0, 0)))
    assert np.all(airtimes >= np.array([0.2, 0.2]) - 1e-4)


def test_sum_reservations_above_one_infeasible():
    with pytest.raises(InfeasibleError):
        optimize_tau(np.ones((3, 1)),
                     [SliceSpec(1, 0.6, frozenset({0})), SliceSpec(2, 0.6, frozenset({1, 2}))])


def test_empty_slice_with_reservation_infeasible():
    with pytest.raises(InfeasibleError) as err:
        optimize_tau(np.ones((1, 1)),
                     [SliceSpec(1, 0.3, frozenset({0})), SliceSpec(2, 0.3, frozenset())])
    assert err.value.scaling < 0.01


@pytest.mark.parametrize("seed", range(10))
def test_solver_output_feasible_and_boxed(seed):
    rng = np.random.default_rng(seed)
    rates, slices = random_reserved_instance(rng)
    sol = optimize_tau(rates, slices)
    assert np.all(sol.tau >= 0) and np.all(sol.tau <= 1)
    betas = np.array([s.reservation for s in slices])
    assert np.all(sol.per_sp_airtime >= betas - 1e-4)


@pytest.mark.parametrize("seed", range(8))
def test_oracle_dominance(seed):
    rng = np.random.default_rng(100 + seed)
    rates, slices = random_reserved_instance(rng)
    oracle = brute_force_tau_oracle(rates, slices, grid_step=0.02)
    sol = optimize_tau(rates, slices)
    assert sol.objective >= oracle.objective - 1e-2


# 2-user x 2-AP instances on which optimize_tau stops at a local optimum; the
# comment gives the objective gap to the grid-step-0.01 oracle.
@pytest.mark.xfail(strict=True, reason="optimize_tau stops at a local optimum")
@pytest.mark.parametrize("rates, betas", [
    ([[0.225, 0.4525], [0.2504, 0.955]], (0.5471, 0.0134)),    # gap 0.1065
    ([[0.4299, 0.431], [0.9635, 0.9375]], (0.0549, 0.1981)),   # gap 0.0319
])
def test_two_by_two_reaches_oracle(rates, betas):
    rates = np.array(rates)
    slices = two_user_slices(*betas)
    oracle = brute_force_tau_oracle(rates, slices, grid_step=0.01)
    sol = optimize_tau(rates, slices)
    assert sol.objective >= oracle.objective - 1e-2


def test_rate_scaling_invariance():
    rng = np.random.default_rng(5)
    rates, slices = random_reserved_instance(rng)
    sol1 = optimize_tau(rates, slices)
    sol2 = optimize_tau(10.0 * rates, slices)
    assert sol2.objective == pytest.approx(10.0 * sol1.objective, rel=1e-6)
    assert np.allclose(sol1.tau, sol2.tau, atol=1e-6)


@pytest.mark.parametrize("seed", range(6))
def test_baseline_containment(seed):
    rng = np.random.default_rng(200 + seed)
    n = int(rng.integers(2, 7))
    a = int(rng.integers(1, 4))
    gains = rng.uniform(0.01, 1.0, size=(n, a))
    rates = rng.uniform(1.0, 54.0, size=(n, a))
    slices = [SliceSpec(1, 0.0, frozenset(range(0, n, 2))),
              SliceSpec(2, 0.0, frozenset(range(1, n, 2)))]
    baseline = max_snr_wlan(gains, rates)
    base_obj = wlan_throughput(baseline, rates, slices).per_user_per_ap.sum()
    sol = optimize_tau(rates, slices, baseline_tau=baseline)
    assert sol.objective >= base_obj - 1e-9


def test_deterministic_given_inputs():
    rng = np.random.default_rng(9)
    rates, slices = random_reserved_instance(rng, n_max=3)
    a = optimize_tau(rates, slices)
    b = optimize_tau(rates, slices)
    assert np.array_equal(a.tau, b.tau)
    assert a.objective == b.objective


def test_options_validation():
    with pytest.raises(Exception):
        WlanSolverOptions(feasibility_tolerance=1e-3)
    with pytest.raises(Exception):
        WlanSolverOptions(max_iterations=0)


def test_empty_network():
    sol = optimize_tau(np.zeros((0, 2)), [SliceSpec(1, 0.0, frozenset())])
    assert sol.objective == 0.0
    with pytest.raises(InfeasibleError):
        optimize_tau(np.zeros((0, 2)), [SliceSpec(1, 0.5, frozenset())])
