"""Virtualized multi-cell OFDMA scenario: SINR rates under inter-cell
interference, joint association + subcarrier + power solver with per-slice
rate reservations, the Max-SNR baseline, and a tiny-instance enumeration
oracle.

Rates are spectral efficiencies: a user's rate is the sum of log2(1 + SINR)
over the subcarriers it holds, in bit/s/Hz.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InfeasibleError, OracleSizeError
from .model import _edge_distance_cut

_ORACLE_LIMITS = {"users": 4, "stations": 2, "subcarriers": 4, "power_levels": 3}


@dataclass(frozen=True)
class CellularSolverOptions:
    power_levels: int = 3            # oracle discretization
    max_outer_iterations: int = 12
    convergence_tolerance: float = 1e-6
    reservation_tolerance: float = 1e-3

    def __post_init__(self):
        for name in ("power_levels", "max_outer_iterations", "convergence_tolerance",
                     "reservation_tolerance"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"solver option {name} must be strictly positive")


@dataclass
class CellularAllocation:
    association: np.ndarray   # (U,) BS index per user
    assignment: np.ndarray    # (B, S) holding user index, -1 = unassigned
    power: np.ndarray         # (B, S) watts

    def copy(self):
        return CellularAllocation(self.association.copy(), self.assignment.copy(),
                                  self.power.copy())


@dataclass
class CellularReport:
    per_user_rate: np.ndarray
    per_slice_rate: np.ndarray
    cell_edge_flags: np.ndarray = None


@dataclass
class CellularOracleResult:
    allocation: CellularAllocation
    objective: float
    feasible: bool
    scaling: float = 1.0


def validate_allocation(alloc: CellularAllocation, n_users: int, budgets) -> None:
    """Check every CellularAllocation invariant; raises ConfigError on violation."""
    budgets = np.asarray(budgets, dtype=float)
    b, s = alloc.assignment.shape
    if alloc.power.shape != (b, s):
        raise ConfigError("power matrix shape does not match the subcarrier assignment")
    if alloc.association.shape != (n_users,):
        raise ConfigError("association vector does not match the user count")
    if np.any(alloc.power < 0):
        raise ConfigError("powers must be non-negative")
    if np.any(alloc.power.sum(axis=1) > budgets + 1e-9):
        raise ConfigError("per-BS power budget exceeded")
    if np.any((alloc.assignment == -1) & (alloc.power > 0)):
        raise ConfigError("unassigned subcarriers must carry zero power")
    for bs in range(b):
        for n in range(s):
            holder = alloc.assignment[bs, n]
            if holder == -1:
                continue
            if not 0 <= holder < n_users:
                raise ConfigError(f"subcarrier ({bs},{n}) assigned to unknown user {holder}")
            if alloc.association[holder] != bs:
                raise ConfigError(f"user {holder} holds a subcarrier on BS {bs} "
                                  f"but is associated with BS {alloc.association[holder]}")


def _sinr_rates(power: np.ndarray, gains: np.ndarray, noise: float) -> np.ndarray:
    """(U, B, S) per-subcarrier spectral efficiencies under current powers."""
    received = power[None, :, :] * gains            # (U, B, S)
    total = received.sum(axis=1, keepdims=True)     # sum over BSs per subcarrier
    interference = total - received
    return np.log2(1.0 + received / (noise + interference))


def cellular_rates(alloc: CellularAllocation, gains: np.ndarray, noise_power: float,
                   slices=(), edge_flags=None) -> CellularReport:
    """Per-user and per-slice rates for a validated allocation."""
    gains = np.asarray(gains, dtype=float)
    validate_allocation(alloc, gains.shape[0], budgets=alloc.power.sum(axis=1) + 1.0)
    per_user = _user_rates(alloc, gains, noise_power)
    return CellularReport(per_user_rate=per_user, per_slice_rate=_slice_rates(per_user, slices),
                          cell_edge_flags=edge_flags)


def classify_cell_edge(positions, stations, edge_threshold: float) -> np.ndarray:
    """Flag users whose nearest-BS distance exceeds edge_threshold * half the
    minimum inter-BS distance."""
    if not 0 < edge_threshold < 1:
        raise ConfigError("edge threshold must lie in (0, 1)")
    cut = _edge_distance_cut(stations, edge_threshold)
    xy = np.array([bs.position for bs in stations], dtype=float)
    positions = np.asarray(positions, dtype=float).reshape(-1, 2)
    dnear = np.linalg.norm(positions[:, None, :] - xy[None, :, :], axis=-1).min(axis=1)
    return dnear >= cut


def max_snr_cellular(gains: np.ndarray, budgets, noise_power: float) -> CellularAllocation:
    """Max-SNR baseline: associate by subcarrier-averaged reference SNR at
    full per-subcarrier power, split power equally, round-robin subcarriers
    over each BS's users in id order."""
    gains = np.asarray(gains, dtype=float)
    u, b, s = gains.shape
    budgets = np.asarray(budgets, dtype=float)
    ref = gains.mean(axis=2) * (budgets / s)[None, :] / noise_power   # (U, B)
    association = np.argmax(ref, axis=1) if u else np.zeros(0, dtype=int)
    assignment = np.full((b, s), -1, dtype=int)
    power = np.zeros((b, s))
    for bs in range(b):
        members = np.flatnonzero(association == bs)
        if members.size == 0:
            continue
        for n in range(s):
            assignment[bs, n] = members[n % members.size]
        power[bs, :] = budgets[bs] / s
    return CellularAllocation(association=association, assignment=assignment, power=power)


def _waterfill(inverse_gains: np.ndarray, budget: float) -> np.ndarray:
    """Classic water-filling: maximize sum log(1 + p/c) with sum p = budget."""
    c = np.asarray(inverse_gains, dtype=float)
    order = np.argsort(c)
    cs = c[order]
    n = len(cs)
    active = n
    while active > 0:
        level = (budget + cs[:active].sum()) / active
        if level >= cs[active - 1]:
            break
        active -= 1
    p = np.zeros(n)
    if active > 0:
        level = (budget + cs[:active].sum()) / active
        p[order[:active]] = level - cs[:active]
    return p


def _greedy_assign(bs: int, members, gains, power, noise, budget, deficits,
                   slice_of_user, penalty, probe=False):
    """Assign every subcarrier of one BS to one of its members.

    Metric = marginal rate at provisional equal power + penalty * min(rate,
    remaining slice deficit). Probe mode always serves the most-deficient
    slice first (feasibility machinery). Returns (owners, estimated rates).
    """
    s = gains.shape[2]
    owners = np.full(s, -1, dtype=int)
    est = np.zeros(s)
    if len(members) == 0:
        return owners, est
    p_prov = budget / s
    other = power.copy()
    other[bs, :] = 0.0
    interference = (other[None, :, :] * gains).sum(axis=1)       # (U, S)
    snr = p_prov * gains[:, bs, :] / (noise + interference)      # (U, S)
    rate = np.log2(1.0 + snr)
    deficits = deficits.copy()
    for n in range(s):
        cand = members
        if probe and deficits.size and deficits.max() > 0:
            k_star = int(np.argmax(deficits))
            in_k = [i for i in members if slice_of_user[i] == k_star]
            if in_k:
                cand = in_k
        scores = []
        for i in cand:
            r = rate[i, n]
            k = slice_of_user[i]
            bonus = penalty[k] * min(r, deficits[k]) if (k >= 0 and deficits.size) else 0.0
            scores.append(r + bonus)
        best = int(np.argmax(scores))
        owners[n] = cand[best]
        est[n] = rate[cand[best], n]
        k = slice_of_user[cand[best]]
        if k >= 0 and deficits.size:
            deficits[k] = max(0.0, deficits[k] - est[n])
    return owners, est


def _resource_step(association, gains, budgets, noise, reservations, slice_of_user,
                   penalty, options, probe=False):
    """Fix association; greedy subcarrier assignment then iterative per-BS
    water-filling with a fixed sweep order."""
    u, b, s = gains.shape
    assignment = np.full((b, s), -1, dtype=int)
    power = np.zeros((b, s))
    k_count = len(reservations)
    for _sweep in range(options.max_outer_iterations):
        prev_power = power.copy()
        prev_assignment = assignment.copy()
        deficits = np.asarray(reservations, dtype=float).copy()
        for bs in range(b):
            members = sorted(np.flatnonzero(association == bs).tolist())
            owners, est = _greedy_assign(bs, members, gains, power, noise,
                                         budgets[bs], deficits, slice_of_user,
                                         penalty, probe=probe)
            assignment[bs] = owners
            for n in range(s):
                if owners[n] >= 0 and k_count:
                    k = slice_of_user[owners[n]]
                    if k >= 0:
                        deficits[k] = max(0.0, deficits[k] - est[n])
            power = _rewaterfill_bs(CellularAllocation(association, assignment, power), bs,
                                    np.flatnonzero(owners >= 0), gains, budgets, noise).power
        if (assignment == prev_assignment).all() and \
                np.abs(power - prev_power).max() < options.convergence_tolerance:
            break
    return CellularAllocation(association=association.copy(), assignment=assignment,
                              power=power)


def _user_rates(alloc, gains, noise):
    rates = _sinr_rates(alloc.power, gains, noise)
    per_user = np.zeros(gains.shape[0])
    b, s = alloc.assignment.shape
    for bs in range(b):
        for n in range(s):
            holder = alloc.assignment[bs, n]
            if holder >= 0:
                per_user[holder] += rates[holder, bs, n]
    return per_user


def _slice_rates(per_user, slices):
    return np.array([per_user[sorted(sl.user_ids)].sum() if sl.user_ids else 0.0
                     for sl in slices])


def _association_step(alloc, gains, budgets, noise, reservations, slice_of_user,
                      penalty, options, probe=False):
    """Fix resources; move each user (id order) to the BS maximizing its own
    rate, with powers frozen. Only the two affected BSs re-run their greedy
    assignment (others cannot change). Ties keep the current BS, then the
    lowest BS id."""
    u, b, s = gains.shape
    association = alloc.association.copy()
    power = alloc.power
    changed = False
    for i in range(u):
        current = int(association[i])
        rate_by_bs = np.zeros(b)
        for cand in range(b):
            trial = association.copy()
            trial[i] = cand
            members = sorted(np.flatnonzero(trial == cand).tolist())
            # a silent BS would power up for an arriving user: evaluate it at
            # nominal equal-split power, else the move is invisibly rated zero
            p_eval = power
            if power[cand].sum() == 0.0:
                p_eval = power.copy()
                p_eval[cand, :] = budgets[cand] / s
            owners, _ = _greedy_assign(cand, members, gains, p_eval, noise,
                                       budgets[cand], np.asarray(reservations, dtype=float),
                                       slice_of_user, penalty, probe=probe)
            rates = _sinr_rates(p_eval, gains, noise)
            rate_by_bs[cand] = sum(rates[i, cand, n] for n in range(s) if owners[n] == i)
        near = np.flatnonzero(rate_by_bs >= rate_by_bs.max() - options.convergence_tolerance)
        new_bs = current if current in near else int(near[0])
        if new_bs != current:
            association[i] = new_bs
            changed = True
    return association, changed


def solve_joint_allocation(gains, budgets, slices, options: CellularSolverOptions = None,
                           baseline: CellularAllocation = None, noise_power: float = None):
    """Joint user association + subcarrier + power allocation.

    Alternating optimization: (1) fix association, greedy subcarrier
    assignment by penalized marginal rate then iterative water-filling in a
    fixed BS sweep order; (2) fix resources, reassociate users one at a time
    in id order to the BS maximizing their own rate. The best-objective
    iterate seen is kept (feasible iterates dominate infeasible ones). Raises
    InfeasibleError with the maximal uniform reservation scaling when the
    per-slice rate reservations cannot be met.
    """
    options = options or CellularSolverOptions()
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 3:
        raise ConfigError("gains must be a (users x stations x subcarriers) tensor")
    if noise_power is None:
        raise ConfigError("noise_power is required")
    u, b, s = gains.shape
    budgets = np.asarray(budgets, dtype=float)
    if budgets.shape != (b,) or np.any(budgets <= 0):
        raise ConfigError("one positive power budget per BS is required")
    reservations = np.array([sl.reservation for sl in slices], dtype=float)
    slice_of_user = _slice_index_of_users(u, slices)
    tol = options.reservation_tolerance

    if u == 0:
        if np.any(reservations > tol):
            raise InfeasibleError("no users to carry reserved rate", scaling=0.0)
        return CellularAllocation(association=np.zeros(0, dtype=int),
                                  assignment=np.full((b, s), -1, dtype=int),
                                  power=np.zeros((b, s)))

    probe_best, probe_key = None, None
    if np.any(reservations > tol):
        probe_best, probe_key = _solve_core(gains, budgets, slices, reservations,
                                            options, noise_power, baseline, probe=True)
        if probe_key is None or not probe_key[0]:
            scaling = _bisect_rate_scaling(gains, budgets, slices, options, noise_power,
                                           reservations)
            raise InfeasibleError(
                f"rate reservations infeasible; maximal uniform scaling {scaling:.4f}",
                scaling=scaling)

    seeds = [a for a in (probe_best, baseline) if a is not None]
    best, _ = _solve_core(gains, budgets, slices, reservations, options, noise_power,
                          baseline, probe=False, seed_allocs=seeds)
    validate_allocation(best, u, budgets)
    return best


def _snapshot_key(alloc, gains, noise, reservations, slices, tol, probe):
    """Ranking key for iterates: feasibility first, then total rate (normal
    mode) or shortfall reduction (probe mode)."""
    per_user = _user_rates(alloc, gains, noise)
    total = float(per_user.sum())
    if reservations.size:
        shortfall = float(np.maximum(0.0, reservations - _slice_rates(per_user, slices)).max())
    else:
        shortfall = 0.0
    feasible = shortfall <= tol
    if probe:
        return (feasible, -shortfall, total)
    return (feasible, total, -shortfall)


def _solve_core(gains, budgets, slices, reservations, options, noise, baseline,
                probe, seed_allocs=()):
    """Association multistart around the alternating resource/association
    loop, with the muting polish applied to each start's best iterate."""
    u = gains.shape[0]
    tol = options.reservation_tolerance
    slice_of_user = _slice_index_of_users(u, slices)

    def key_fn(alloc):
        return _snapshot_key(alloc, gains, noise, reservations, slices, tol, probe)

    best, best_key = None, None
    for assoc0 in _initial_associations(gains, budgets, noise, baseline):
        association = assoc0.copy()
        penalty = np.full(len(slices), 8.0) if probe else np.zeros(len(slices))
        start_best, start_key = None, None
        for _outer in range(options.max_outer_iterations):
            alloc = _resource_step(association, gains, budgets, noise,
                                   reservations, slice_of_user, penalty, options,
                                   probe=probe)
            key = key_fn(alloc)
            if start_key is None or key > start_key:
                start_best, start_key = alloc.copy(), key
            shortfall_max = max(0.0, -key[2] if not probe else -key[1])
            if reservations.size and shortfall_max > tol:
                short = reservations - _slice_rates(_user_rates(alloc, gains, noise), slices)
                penalty = np.where(short > tol, np.minimum(64.0, 2.0 * penalty + 1.0), penalty)
            association, changed = _association_step(alloc, gains, budgets, noise,
                                                     reservations, slice_of_user,
                                                     penalty, options, probe=probe)
            if not changed and shortfall_max <= tol:
                break
        # joint muting explores the start's own association: the alternating
        # loop may have drifted away from it before coordination pays off
        b, s = gains.shape[1], gains.shape[2]
        shell = CellularAllocation(association=assoc0.copy(),
                                   assignment=np.full((b, s), -1, dtype=int),
                                   power=np.zeros((b, s)))
        for base in (shell, start_best):
            joint, joint_key = _joint_muting_search(base, gains, budgets, noise, key_fn)
            if joint_key > start_key:
                start_best, start_key = joint, joint_key
        polished, polished_key = _muting_polish(start_best, gains, budgets, noise,
                                                key_fn, options)
        if polished_key > start_key:
            start_best, start_key = polished, polished_key
        if best_key is None or start_key > best_key:
            best, best_key = start_best, start_key
    for seed in seed_allocs:
        key = key_fn(seed)
        if key > best_key:
            best, best_key = seed.copy(), key
    return best, best_key


def _slice_index_of_users(n_users, slices):
    out = np.full(n_users, -1, dtype=int)
    for k, sl in enumerate(slices):
        for uid in sl.user_ids:
            if not 0 <= uid < n_users:
                raise ConfigError(f"slice {sl.slice_id} references unknown user {uid}")
            if out[uid] != -1:
                raise ConfigError(f"user {uid} belongs to more than one slice")
            out[uid] = k
    return out


def _initial_associations(gains, budgets, noise, baseline):
    """Deterministic association multistart: reference-SNR argmax, the
    baseline's association when given, and every all-users-to-one-BS pattern
    (silencing the other cells is optimal in strong interference)."""
    u, b, s = gains.shape
    ref = gains.mean(axis=2) * (np.asarray(budgets) / s)[None, :] / noise
    starts = [np.argmax(ref, axis=1)]
    if baseline is not None and baseline.association.shape == (u,):
        starts.append(baseline.association.copy())
    for bs in range(b):
        starts.append(np.full(u, bs, dtype=int))
    # load-spreading matching: users in id order take their best-gain BS among
    # the least-loaded ones, so co-residence needs to earn its keep
    spread = np.zeros(u, dtype=int)
    load = np.zeros(b, dtype=int)
    for i in range(u):
        least = load.min()
        cands = np.flatnonzero(load == least)
        spread[i] = cands[int(np.argmax(ref[i, cands]))]
        load[spread[i]] += 1
    if u:
        starts.append(spread)
    if 1 < b ** u <= 16:
        # tiny instance: the association step cannot discover moves onto
        # currently-silent BSs (frozen powers), so enumerate them all
        starts.extend(np.array(a, dtype=int) for a in itertools.product(range(b), repeat=u))
    seen, unique = set(), []
    for st in starts:
        key = tuple(st.tolist())
        if key not in seen:
            seen.add(key)
            unique.append(st)
    return unique


def _rewaterfill_bs(alloc, bs, keep_idx, gains, budgets, noise):
    """Re-spread one BS's budget over the kept subcarriers, others muted."""
    new = alloc.copy()
    new.power[bs, :] = 0.0
    if keep_idx.size == 0:
        return new
    other = new.power.copy()
    other[bs, :] = 0.0
    inv = np.empty(keep_idx.size)
    for j, n in enumerate(keep_idx):
        i = new.assignment[bs, n]
        interf = float((other[:, n] * gains[i, :, n]).sum())
        inv[j] = (noise + interf) / gains[i, bs, n]
    new.power[bs, keep_idx] = _waterfill(inv, budgets[bs])
    return new


def _joint_muting_search(alloc, gains, budgets, noise, key_fn):
    """Exhaustive joint muting patterns for two-BS instances.

    Unilateral best responses stall at silent-cell equilibria when the optimum
    needs simultaneous moves (each BS concentrating on disjoint subcarriers),
    so for B = 2 enumerate both BSs' keep-subsets jointly with the budget
    split equally over kept subcarriers. Water-filling refinement follows in
    the per-BS polish."""
    b, s = alloc.assignment.shape
    if b != 2 or s > 5:
        return alloc, key_fn(alloc)
    members = [np.flatnonzero(alloc.association == bs) for bs in range(b)]
    held = [np.arange(s) if members[bs].size else np.zeros(0, dtype=int) for bs in range(b)]
    best, best_key = alloc, key_fn(alloc)
    subsets = []
    for bs in range(b):
        subsets.append([held[bs][[j for j in range(held[bs].size) if mask & (1 << j)]]
                        for mask in range(1 << held[bs].size)])
    fractions = (1.0, 0.5)   # partial budget can pay off by shrinking interference
    for keep0 in subsets[0]:
        for keep1 in subsets[1]:
            for f0 in fractions:
                for f1 in fractions:
                    cand = alloc.copy()
                    cand.power[:, :] = 0.0
                    cand.assignment[:, :] = -1
                    for bs, keep, f in ((0, keep0, f0), (1, keep1, f1)):
                        if keep.size:
                            cand.power[bs, keep] = f * budgets[bs] / keep.size
                    # owners are per-subcarrier independent once powers are fixed
                    rates = _sinr_rates(cand.power, gains, noise)
                    for bs in range(b):
                        if members[bs].size:
                            for n in (keep0 if bs == 0 else keep1):
                                cand.assignment[bs, n] = members[bs][
                                    int(np.argmax(rates[members[bs], bs, n]))]
                    key = key_fn(cand)
                    if key > best_key:
                        best, best_key = cand, key
    return best, best_key


def _muting_polish(alloc, gains, budgets, noise, key_fn, options):
    """Per-BS best response over subcarrier muting patterns.

    Each BS in turn tries every subset of its held subcarriers (when at most
    five are held, otherwise full and all leave-one-out patterns),
    re-water-filling its budget over the kept ones against frozen other-cell
    powers; the best pattern by key_fn is applied. Repeats until stable. This
    is what recovers the interference-avoidance coordination the enumeration
    oracle reaches through its explicit 0-power level."""
    alloc = alloc.copy()
    b, s = alloc.assignment.shape
    best_key = key_fn(alloc)
    for _round in range(2 * b):
        improved = False
        for bs in range(b):
            held = np.flatnonzero(alloc.assignment[bs, :] >= 0)
            if held.size == 0:
                continue
            if held.size <= 5:
                patterns = [held[[j for j in range(held.size) if mask & (1 << j)]]
                            for mask in range(1 << held.size)]
            else:
                patterns = [held] + [np.delete(held, j) for j in range(held.size)]
            local_best, local_key = None, best_key
            for keep in patterns:
                for frac in (1.0, 0.5):
                    scaled = budgets.copy()
                    scaled[bs] *= frac
                    cand = _rewaterfill_bs(alloc, bs, np.asarray(keep, dtype=int),
                                           gains, scaled, noise)
                    key = key_fn(cand)
                    if key > local_key:
                        local_best, local_key = cand, key
            if local_best is not None:
                alloc, best_key = local_best, local_key
                improved = True
        if not improved:
            break
    return alloc, best_key


def _reservations_attainable(gains, budgets, slices, options, noise, reservations):
    for k, sl in enumerate(slices):
        if reservations[k] > options.reservation_tolerance and not sl.user_ids:
            return False
    _, key = _solve_core(gains, budgets, slices, reservations, options, noise,
                         baseline=None, probe=True)
    return key is not None and key[0]


def _bisect_rate_scaling(gains, budgets, slices, options, noise, reservations):
    lo, hi = 0.0, 1.0
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        if _reservations_attainable(gains, budgets, slices, options, noise,
                                    mid * reservations):
            lo = mid
        else:
            hi = mid
    return lo


def brute_force_cellular_oracle(gains, budgets, slices,
                                options: CellularSolverOptions = None,
                                noise_power: float = None) -> CellularOracleResult:
    """Exhaustive enumeration for tiny instances (<= 4 users, 2 BSs, 4
    subcarriers, 3 power levels per subcarrier under the per-BS budget).

    Scan order (and tie-break encoding) is lexicographic over (per-BS power
    level indices, association tuple, subcarrier owner tuple); the first
    strictly-better allocation wins, so ties resolve to the smallest encoding.
    """
    options = options or CellularSolverOptions()
    gains = np.asarray(gains, dtype=float)
    u, b, s = gains.shape
    budgets = np.asarray(budgets, dtype=float)
    if noise_power is None:
        raise ConfigError("noise_power is required")
    limits = _ORACLE_LIMITS
    if u > limits["users"] or b > limits["stations"] or s > limits["subcarriers"] \
            or options.power_levels > limits["power_levels"]:
        raise OracleSizeError(
            f"instance ({u} users, {b} BSs, {s} subcarriers, {options.power_levels} "
            f"levels) exceeds oracle limits {limits}")
    reservations = np.array([sl.reservation for sl in slices], dtype=float)
    members = [np.array(sorted(sl.user_ids), dtype=int) for sl in slices]
    tol = options.reservation_tolerance

    level_fracs = np.linspace(0.0, 1.0, options.power_levels)
    per_bs_vectors = []
    for bs in range(b):
        vecs = [np.array(v) * budgets[bs]
                for v in itertools.product(level_fracs, repeat=s)
                if sum(v) * budgets[bs] <= budgets[bs] + 1e-12]
        per_bs_vectors.append(vecs)

    best_val = -np.inf
    best_alloc = None
    best_scale = 0.0
    assoc_list = list(itertools.product(range(b), repeat=u))
    for pw_combo in itertools.product(*per_bs_vectors):
        power = np.stack(pw_combo)                       # (B, S)
        rates = _sinr_rates(power, gains, noise_power)   # (U, B, S)
        for assoc in assoc_list:
            assoc_arr = np.array(assoc, dtype=int)
            # per BS: all owner tuples over (members + unassigned)
            per_bs_maps, per_bs_user_rates = [], []
            for bs in range(b):
                mem = [i for i in range(u) if assoc_arr[i] == bs]
                choices = mem + [-1]
                maps = np.array(list(itertools.product(choices, repeat=s)), dtype=int)
                ur = np.zeros((maps.shape[0], u))
                for n in range(s):
                    col = maps[:, n]
                    held = col >= 0
                    ur[held, col[held]] += rates[col[held], bs, n]
                per_bs_maps.append(maps)
                per_bs_user_rates.append(ur)
            # each BS's owner maps vary independently: broadcast one axis per BS
            total = np.zeros(())
            sl_tot = np.zeros((1,) * b + (reservations.size,))
            for bs, ur in enumerate(per_bs_user_rates):
                axis = [1] * b
                axis[bs] = ur.shape[0]
                total = total + ur.sum(axis=1).reshape(axis)
                if reservations.size:
                    sl = np.stack([ur[:, mk].sum(axis=1) if mk.size else np.zeros(ur.shape[0])
                                   for mk in members], axis=1)
                    sl_tot = sl_tot + sl.reshape(axis + [reservations.size])
            if reservations.size:
                feas = (sl_tot >= reservations - tol).all(axis=-1)
                scale = ((sl_tot + tol) / np.maximum(reservations, 1e-12)).min(axis=-1) \
                    if (reservations > 0).any() else np.ones_like(total)
            else:
                feas = np.ones_like(total, dtype=bool)
                scale = np.ones_like(total)
            score = np.where(feas, total, -np.inf)
            pick = np.unravel_index(int(np.argmax(score)), score.shape)
            val = float(score[pick])
            smax = float(scale.max())
            pick_maps = [maps[i] for maps, i in zip(per_bs_maps, pick)]
            if val > best_val:
                best_val = val
                assignment = np.stack(pick_maps)
                pw = power.copy()
                pw[assignment == -1] = 0.0
                best_alloc = CellularAllocation(association=assoc_arr.copy(),
                                                assignment=assignment, power=pw)
            if smax > best_scale:
                best_scale = smax

    if not np.isfinite(best_val):
        return CellularOracleResult(allocation=None, objective=0.0, feasible=False,
                                    scaling=float(min(1.0, best_scale)))
    validate_allocation(best_alloc, u, budgets)
    return CellularOracleResult(allocation=best_alloc, objective=best_val, feasible=True)
