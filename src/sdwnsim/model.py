"""Shared network model: topology, PPP deployment, channel and PHY-rate mapping.

Everything here is pure given its inputs and seed, so trial runners can call
into it concurrently without shared state.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError

# 802.11a-style discrete rate table: (SNR threshold in dB, rate in Mbit/s).
# SNR exactly at a threshold maps to that threshold's rate; below the lowest
# threshold the user is out of coverage (rate 0).
DEFAULT_RATE_TABLE = (
    (5.0, 6.0),
    (6.0, 9.0),
    (8.0, 12.0),
    (11.0, 18.0),
    (15.0, 24.0),
    (19.0, 36.0),
    (23.0, 48.0),
    (25.0, 54.0),
)


@dataclass(frozen=True)
class Region:
    """Rectangular deployment area, origin at (0, 0)."""

    width: float
    height: float

    def __post_init__(self):
        if not (self.width > 0 and self.height > 0):
            raise ConfigError(f"region dimensions must be positive, got {self.width}x{self.height}")

    def contains(self, position) -> bool:
        x, y = position
        return 0.0 <= x <= self.width and 0.0 <= y <= self.height


@dataclass(frozen=True)
class AccessPoint:
    """A radio node (WLAN AP or cellular BS)."""

    id: int
    position: tuple
    channel_id: int = 0
    tx_power: float = 0.25  # watts

    def __post_init__(self):
        if self.tx_power <= 0:
            raise ConfigError(f"AP {self.id}: tx_power must be positive")


@dataclass(frozen=True)
class User:
    id: int
    position: tuple
    slice_id: int


@dataclass
class SliceSpec:
    """Per-SP reservation: airtime fraction (WLAN) or min aggregate rate (cellular)."""

    slice_id: int
    reservation: float
    user_ids: frozenset = field(default_factory=frozenset)
    isolation: str = "strict"  # strict | best_effort

    def __post_init__(self):
        if self.reservation < 0:
            raise ConfigError(f"slice {self.slice_id}: reservation must be >= 0")
        if self.isolation not in ("strict", "best_effort"):
            raise ConfigError(f"slice {self.slice_id}: unknown isolation {self.isolation!r}")


@dataclass(frozen=True)
class ChannelParams:
    """Distance-based path loss with optional Rayleigh fading.

    gain = reference_gain * (d / reference_distance)^(-pathloss_exponent),
    with d clamped below at reference_distance to avoid the singularity.
    """

    pathloss_exponent: float = 3.5
    reference_distance: float = 1.0
    reference_gain: float = 1.0
    noise_power: float = 1e-13  # watts
    fading: str = "off"  # off | rayleigh

    def __post_init__(self):
        if self.pathloss_exponent <= 2:
            raise ConfigError("pathloss_exponent must exceed 2")
        if self.reference_distance <= 0 or self.reference_gain <= 0 or self.noise_power <= 0:
            raise ConfigError("reference_distance, reference_gain and noise_power must be positive")
        if self.fading not in ("off", "rayleigh"):
            raise ConfigError(f"unknown fading mode {self.fading!r}")


@dataclass(frozen=True)
class LoadSplit:
    """rho1: fraction of users belonging to SP 1."""

    rho1: float

    def __post_init__(self):
        if not 0.0 <= self.rho1 <= 1.0:
            raise ConfigError(f"rho1 must lie in [0, 1], got {self.rho1}")


@dataclass(frozen=True)
class DeploymentParams:
    """lambda_mean: expected number of users per AP under PPP deployment."""

    lambda_mean: float

    def __post_init__(self):
        if self.lambda_mean <= 0:
            raise ConfigError(f"lambda_mean must be positive, got {self.lambda_mean}")


def generate_ppp_users(region: Region, deployment: DeploymentParams, ap_count: int, seed: int) -> np.ndarray:
    """Draw user positions from a 2D Poisson point process over the region.

    The user count is Poisson with mean lambda_mean * ap_count; positions are
    i.i.d. uniform. Returns an (N, 2) array; N = 0 is a legal outcome.
    """
    rng = np.random.default_rng(seed)
    n = rng.poisson(deployment.lambda_mean * ap_count)
    xs = rng.uniform(0.0, region.width, n)
    ys = rng.uniform(0.0, region.height, n)
    return np.column_stack((xs, ys))


def generate_edge_weighted_users(
    region: Region,
    deployment: DeploymentParams,
    aps,
    edge_fraction: float,
    edge_threshold: float,
    seed: int,
    center_margin: float = 0.5,
) -> np.ndarray:
    """PPP count, but positions concentrated in the cell-edge annulus.

    Each user is an edge user with probability edge_fraction (rejection-sampled
    uniform position where the distance to the nearest node is >=
    edge_threshold * half the minimum inter-node distance), otherwise a
    cell-center user placed well inside a cell (within center_margin of the
    edge radius) so the center and edge populations are geometrically
    separated. Used by the cellular coverage experiments.
    """
    if not 0.0 <= edge_fraction <= 1.0:
        raise ConfigError("edge_fraction must lie in [0, 1]")
    if not 0.0 < center_margin <= 1.0:
        raise ConfigError("center_margin must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    n = rng.poisson(deployment.lambda_mean * len(aps))
    cut = _edge_distance_cut(aps, edge_threshold)
    ap_xy = np.array([ap.position for ap in aps])
    out = np.empty((n, 2))
    for i in range(n):
        want_edge = rng.uniform() < edge_fraction
        limit = cut if want_edge else center_margin * cut
        while True:
            p = np.array([rng.uniform(0.0, region.width), rng.uniform(0.0, region.height)])
            d = np.min(np.linalg.norm(ap_xy - p, axis=1))
            if (d >= cut) if want_edge else (d <= limit):
                out[i] = p
                break
    return out


def _edge_distance_cut(aps, edge_threshold: float) -> float:
    if len(aps) < 2:
        raise ConfigError("edge classification needs at least two nodes")
    xy = np.array([ap.position for ap in aps])
    diff = xy[:, None, :] - xy[None, :, :]
    dist = np.linalg.norm(diff, axis=-1)
    np.fill_diagonal(dist, np.inf)
    return edge_threshold * dist.min() / 2.0


def assign_slices(n_users: int, split: LoadSplit, seed: int) -> np.ndarray:
    """Assign each user independently to slice 1 with probability rho1, else slice 2."""
    rng = np.random.default_rng(seed)
    draws = rng.uniform(size=n_users)
    return np.where(draws < split.rho1, 1, 2)


def slice_specs(slice_ids: np.ndarray, reservations) -> list:
    """One SliceSpec per (slice_id, reservation) pair, holding the users whose
    entry in slice_ids is that slice id."""
    return [SliceSpec(slice_id=sid, reservation=res,
                      user_ids=frozenset(int(i) for i in np.flatnonzero(slice_ids == sid)))
            for sid, res in reservations]


def channel_gain(user_position, ap: AccessPoint, params: ChannelParams, fading_draw: float = 1.0) -> float:
    """Path-loss gain between one user and one AP (distance clamped at d0)."""
    d = float(np.hypot(user_position[0] - ap.position[0], user_position[1] - ap.position[1]))
    d = max(d, params.reference_distance)
    gain = params.reference_gain * (d / params.reference_distance) ** (-params.pathloss_exponent)
    if params.fading == "rayleigh":
        gain *= fading_draw
    return gain


def gain_matrix(positions: np.ndarray, aps, params: ChannelParams, fading_seed=None) -> np.ndarray:
    """(N, A) gain matrix for all user-AP pairs.

    Rayleigh fading multiplies each entry by an independent exponential(1)
    draw from its own seed stream, so deployment and fading vary independently.
    """
    positions = np.asarray(positions, dtype=float).reshape(-1, 2)
    ap_xy = np.array([ap.position for ap in aps], dtype=float)
    d = np.linalg.norm(positions[:, None, :] - ap_xy[None, :, :], axis=-1)
    d = np.maximum(d, params.reference_distance)
    g = params.reference_gain * (d / params.reference_distance) ** (-params.pathloss_exponent)
    if params.fading == "rayleigh":
        rng = np.random.default_rng(fading_seed)
        g = g * rng.exponential(1.0, size=g.shape)
    return g


def gain_tensor(positions: np.ndarray, aps, n_subcarriers: int, params: ChannelParams, fading_seed=None) -> np.ndarray:
    """(N, B, S) per-subcarrier gain tensor for the cellular scenario."""
    g = gain_matrix(positions, aps, replace(params, fading="off"))
    t = np.repeat(g[:, :, None], n_subcarriers, axis=2)
    if params.fading == "rayleigh":
        rng = np.random.default_rng(fading_seed)
        t = t * rng.exponential(1.0, size=t.shape)
    return t


def wlan_phy_rate(snr: float, table=DEFAULT_RATE_TABLE) -> float:
    """Map an SNR (linear) to a discrete PHY rate in Mbit/s.

    The table is a monotone step function over SNR in dB; an SNR exactly at a
    threshold earns that threshold's rate (closed lower bound). Below the
    lowest threshold the rate is 0 (out of coverage).
    """
    if snr < 0:
        raise ConfigError("snr must be >= 0")
    if snr == 0.0:
        return 0.0
    snr_db = 10.0 * np.log10(snr)
    rate = 0.0
    for threshold_db, r in table:
        if snr_db >= threshold_db:
            rate = r
        else:
            break
    return rate


def wlan_rate_matrix(gains: np.ndarray, aps, params: ChannelParams, table=DEFAULT_RATE_TABLE) -> np.ndarray:
    """(N, A) PHY-rate matrix from the gain matrix: r = rate(tx_power*g/sigma^2)."""
    tx = np.array([ap.tx_power for ap in aps], dtype=float)
    snr = gains * tx[None, :] / params.noise_power
    rates = np.zeros_like(snr)
    if snr.size:
        snr_db = np.full_like(snr, -np.inf)
        pos = snr > 0
        snr_db[pos] = 10.0 * np.log10(snr[pos])
        for threshold_db, r in table:
            rates[snr_db >= threshold_db] = r
    return rates


def build_users(positions: np.ndarray, slice_ids: np.ndarray):
    """Zip positions and slice membership into User records (ids are positional)."""
    return [User(id=i, position=(float(p[0]), float(p[1])), slice_id=int(s))
            for i, (p, s) in enumerate(zip(positions, slice_ids))]
