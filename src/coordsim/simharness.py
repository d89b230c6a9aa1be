"""Closed-loop scenario simulation and mission metrics.

Couples the virtual-time coordination law, the topology-switching law and
the point-mass path followers into one fixed-step RK4 loop.  The active
topology and adjacency are held constant across each step; the switching
decision (state-feedback law in directed mode, seeded random schedule in
the bidirectional baseline) is applied at step boundaries, followed by
arrival clamping.

Communication cost and windowed connectivity are integrated exactly over
the piecewise-constant topology history instead of being sampled, so the
headline metrics do not depend on the step size.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import coordctrl, switchlaw, vehicle
from .coordalg import (
    SwitchingCertificate,
    build_certificate,
    build_projection,
    reduced_laplacian,
)
from .coordctrl import MissionRateProfile, Violation, smoothstep_profile
from .digraph import Digraph, contains_spanning_tree, jointly_connected, laplacian
from .errors import ConfigError, NumericError, SynthesisError
from .vehicle import LaneSweepFamily

MODE_DIRECTED = "directed-switched"
MODE_BIDIRECTIONAL = "bidirectional-random"


def default_directed_family() -> list[Digraph]:
    """Three two-edge topologies, individually disconnected, jointly
    connected through transmitters at vehicles 2 and 3."""
    return [
        Digraph(5, [(1, 3), (4, 2)]),
        Digraph(5, [(2, 3), (5, 2)]),
        Digraph(5, [(2, 3), (4, 2)]),
    ]


def mirror_family(family: list[Digraph]) -> list[Digraph]:
    """Symmetrized counterparts: every edge paired with its reverse."""
    return [
        Digraph(d.n, set(d.edges) | {(j, i) for (i, j) in d.edges}) for d in family
    ]


@dataclass
class GustEvent:
    """Extra acceleration on one vehicle inside a time window."""

    vehicle: int  # 1-based
    accel: tuple[float, float, float]
    window: tuple[float, float]

    def to_dict(self) -> dict:
        return {
            "vehicle": self.vehicle,
            "accel": list(self.accel),
            "window": list(self.window),
        }


@dataclass
class ScenarioConfig:
    """Everything a run needs; defaults reproduce the five-vehicle
    directed-switching scenario."""

    n: int = 5
    mode: str = MODE_DIRECTED
    topology_family: list[Digraph] = field(default_factory=default_directed_family)
    a: float = 0.75
    b: float = 1.82
    delta: float = 1.2
    mu_list: list[float] = field(default_factory=lambda: [0.2638, 0.2638, 0.2638])
    phi0: list[float] | None = field(
        default_factory=lambda: [0.9, 1.7, 1.1, 0.1]
    )
    dt: float = 1e-3
    t_max: float = 60.0
    rng_seed: int = 1
    random_switch_period: float = 0.3
    pe_window: float = 3.4
    # mission rate profile: constant base, one smoothstep ramp to final
    rate_base: float = 1.0
    rate_final: float = 1.1
    ramp_start: float = 28.0
    ramp_duration: float = 8.0
    # feasibility envelope on virtual-time rate / acceleration
    gamma_dot_max: float = 0.5
    gamma_ddot_max: float = 5.0
    # vehicle / path-following parameters
    kp: float = 4.0
    kd: float = 4.0
    accel_limit: float = 10.0
    speed_limit: float = 5.0
    rho: float = 0.5
    initial_positions: list[list[float]] | None = None
    initial_velocities: list[list[float]] | None = None
    # trajectory family parameters (None -> lane defaults for n vehicles)
    traj_offsets: list[float] | None = None
    traj_angles: list[float] | None = None
    t_f: float = 50.0
    gusts: list[GustEvent] = field(default_factory=list)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(d)
        if "topology_family" in kwargs:
            kwargs["topology_family"] = [
                Digraph.from_dict(g) for g in kwargs["topology_family"]
            ]
        if "gusts" in kwargs:
            kwargs["gusts"] = [
                GustEvent(g["vehicle"], tuple(g["accel"]), tuple(g["window"]))
                for g in kwargs["gusts"]
            ]
        return cls(**kwargs)

    def to_dict(self) -> dict:
        d = {}
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if name == "topology_family":
                value = [g.to_dict() for g in value]
            elif name == "gusts":
                value = [g.to_dict() for g in value]
            d[name] = value
        return d

    def trajectory_family(self) -> LaneSweepFamily:
        return LaneSweepFamily(
            offsets=self.traj_offsets, angles=self.traj_angles, t_f=self.t_f, n=self.n
        )

    def mission_profile(self) -> MissionRateProfile:
        return smoothstep_profile(
            self.rate_base, self.rate_final, self.ramp_start, self.ramp_duration
        )

    def default_initial_positions(self, fam: LaneSweepFamily) -> np.ndarray:
        # on the ground, two meters short of the trajectory start line
        p0 = np.zeros((self.n, 3))
        p0[:, 0] = -2.0
        p0[:, 1] = fam.offsets
        return p0

    # -- validation -----------------------------------------------------------

    def validate(self) -> None:
        """Raise ConfigError on the first violated precondition."""
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.mode not in (MODE_DIRECTED, MODE_BIDIRECTIONAL):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.t_max <= 0:
            raise ConfigError("t_max must be positive")
        if self.a <= 0 or self.b <= 0:
            raise ConfigError("gains a and b must be positive")
        if self.delta <= 0:
            raise ConfigError("delta must be positive")
        if not (0 < self.gamma_dot_max < 1):
            raise ConfigError("gamma_dot_max must lie in (0, 1)")
        if self.gamma_ddot_max <= 0:
            raise ConfigError("gamma_ddot_max must be positive")
        if min(self.kp, self.kd, self.accel_limit, self.speed_limit, self.rho) <= 0:
            raise ConfigError("vehicle gains and limits must be positive")
        if not self.topology_family:
            raise ConfigError("topology_family is empty")
        for g in self.topology_family:
            if g.n != self.n:
                raise ConfigError(
                    f"topology node count {g.n} does not match n={self.n}"
                )
        if not jointly_connected(self.topology_family):
            raise ConfigError("topology family is not jointly connected")
        if self.mode == MODE_DIRECTED and self.n >= 2:
            if self.phi0 is None or len(self.phi0) != self.n - 1:
                raise ConfigError(f"phi0 must have dimension n-1 = {self.n - 1}")
            if not any(self.phi0):
                raise ConfigError("phi0 must be nonzero")
            if len(self.mu_list) != len(self.topology_family):
                raise ConfigError("mu_list length must match the topology family")
        if self.mode == MODE_BIDIRECTIONAL:
            if self.random_switch_period <= 0:
                raise ConfigError("random_switch_period must be positive")
            _require_symmetric(self.topology_family)
        fam = self.trajectory_family()
        if fam.n != self.n:
            raise ConfigError("trajectory family size does not match n")
        if self.initial_positions is not None and np.shape(self.initial_positions) != (
            self.n,
            3,
        ):
            raise ConfigError("initial_positions must be an n x 3 array")
        if self.initial_velocities is not None and np.shape(
            self.initial_velocities
        ) != (self.n, 3):
            raise ConfigError("initial_velocities must be an n x 3 array")
        for g in self.gusts:
            if not (1 <= g.vehicle <= self.n):
                raise ConfigError(f"gust vehicle {g.vehicle} outside 1..{self.n}")
            if g.window[0] >= g.window[1]:
                raise ConfigError(f"gust window {g.window} must be increasing")
        self.mission_profile().validate(self.t_max)
        # the convergence analysis wants delta above the spread of desired
        # speeds; warn (tuning hint), do not reject
        speeds = np.linalg.norm(_family_speed_grid(fam), axis=-1)
        spread = float(speeds.max() - speeds.min())
        if self.delta <= spread:
            warnings.warn(
                f"delta={self.delta} does not exceed the desired-speed spread "
                f"{spread:.3g}; convergence margins may shrink"
            )


def _family_speed_grid(fam: LaneSweepFamily) -> np.ndarray:
    ts = np.linspace(0.0, fam.t_f, 2000)
    return np.stack([fam.velocity_all(np.full(fam.n, t)) for t in ts]).reshape(-1, 3)


def _require_symmetric(family: list[Digraph]) -> None:
    for idx, g in enumerate(family):
        for (i, j) in g.edges:
            if (j, i) not in g.edges:
                raise ConfigError(
                    f"baseline topology {idx + 1} is not bidirectional: "
                    f"edge ({i},{j}) lacks its reverse"
                )


def default_directed_config(**overrides) -> ScenarioConfig:
    return ScenarioConfig(**overrides)


def default_bidirectional_config(**overrides) -> ScenarioConfig:
    cfg = ScenarioConfig(
        mode=MODE_BIDIRECTIONAL,
        topology_family=mirror_family(default_directed_family()),
        **overrides,
    )
    return cfg


def load_config(path: str) -> ScenarioConfig:
    """Read a scenario JSON file; parse errors carry line/column info."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a JSON object, got {type(raw).__name__}")
    try:
        return ScenarioConfig.from_dict(raw)
    except (TypeError, KeyError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid config {path}: {exc}") from exc


def random_bidirectional_schedule(
    graphs: list[Digraph], period: float, seed: int, t_max: float
) -> np.ndarray:
    """Seeded uniform i.i.d. topology index (1-based) per period, covering
    ``[0, t_max]``.  Every graph must be bidirectional."""
    if period <= 0:
        raise ConfigError("schedule period must be positive")
    _require_symmetric(graphs)
    n_periods = max(1, int(math.ceil(t_max / period)))
    rng = np.random.default_rng(seed)
    return rng.integers(1, len(graphs) + 1, size=n_periods)


# ---------------------------------------------------------------------------
# world state and stepping
# ---------------------------------------------------------------------------


@dataclass
class SimWorld:
    """Mutable state of one run plus the immutable objects it needs;
    ``switch_log`` is the run's one switch record (in directed mode, the
    switching law's own list)."""

    config: ScenarioConfig
    fam: LaneSweepFamily
    profile: MissionRateProfile
    laplacians: tuple[np.ndarray, ...]
    cert: SwitchingCertificate | None
    sw: switchlaw.SwitchingState | None
    schedule: np.ndarray | None
    # dynamic state
    step_idx: int = 0
    t: float = 0.0
    sigma: int = 1
    gamma: np.ndarray = None
    gamma_dot: np.ndarray = None
    p: np.ndarray = None
    v: np.ndarray = None
    arrived: np.ndarray = None
    switch_log: list[tuple[float, int, int]] = field(default_factory=list)
    # diagnostics of the most recent sample, filled by _sample()
    last_sample: dict = None

    @property
    def all_arrived(self) -> bool:
        return bool(self.arrived.all())


def init_world(config: ScenarioConfig) -> SimWorld:
    config.validate()
    fam = config.trajectory_family()
    profile = config.mission_profile()
    laps = tuple(laplacian(d).astype(float) for d in config.topology_family)
    for m in laps:
        m.setflags(write=False)

    cert = None
    sw = None
    schedule = None
    if config.mode == MODE_DIRECTED and config.n >= 2:
        cert = build_certificate(
            config.topology_family, config.mu_list, config.a, config.b
        )
        if config.dt > cert.dwell_bound / 10.0:
            raise ConfigError(
                f"dt={config.dt} exceeds a tenth of the guaranteed dwell time "
                f"{cert.dwell_bound:.6g}; switching boundaries would quantize too coarsely"
            )
        sw = switchlaw.init_switching(np.asarray(config.phi0, float), cert)
        sigma = sw.sigma
    elif config.mode == MODE_BIDIRECTIONAL:
        schedule = random_bidirectional_schedule(
            config.topology_family,
            config.random_switch_period,
            config.rng_seed,
            config.t_max,
        )
        sigma = int(schedule[0])
    else:  # directed with n == 1: nothing to switch
        sigma = 1

    if config.initial_positions is not None:
        p0 = np.asarray(config.initial_positions, dtype=float).copy()
    else:
        p0 = config.default_initial_positions(fam)
    if config.initial_velocities is not None:
        v0 = np.asarray(config.initial_velocities, dtype=float).copy()
    else:
        v0 = np.zeros((config.n, 3))

    return SimWorld(
        config=config,
        fam=fam,
        profile=profile,
        laplacians=laps,
        cert=cert,
        sw=sw,
        schedule=schedule,
        sigma=sigma,
        gamma=np.zeros(config.n),
        gamma_dot=np.ones(config.n),
        p=p0,
        v=v0,
        arrived=np.zeros(config.n, dtype=bool),
        switch_log=sw.switch_log if sw is not None else [],
    )


def _check_finite(world: SimWorld) -> None:
    named = [
        ("gamma", world.gamma),
        ("gamma_dot", world.gamma_dot),
        ("position", world.p),
        ("velocity", world.v),
    ]
    if world.sw is not None:
        named.append(("phi", world.sw.phi))
    for name, arr in named:
        if not np.isfinite(arr).all():
            idx = np.argwhere(~np.isfinite(arr))[0]
            raise NumericError(
                f"non-finite {name}[{tuple(int(i) for i in idx)}] at t={world.t:.6g}"
            )


def _rhs(world: SimWorld):
    """Coupled smooth dynamics under the active topology, ``rhs(t, gamma,
    gamma_dot, p, v) -> (gamma', gamma_dot', p', v', path errors)``; the
    virtual time of an arrived vehicle is held (its derivatives are 0)."""
    cfg = world.config
    fam = world.fam
    rate = world.profile.rate
    a, b, delta = cfg.a, cfg.b, cfg.delta
    kp, kd, a_lim = cfg.kp, cfg.kd, cfg.accel_limit
    lap = world.laplacians[world.sigma - 1]
    arrived = world.arrived
    any_arrived = bool(arrived.any())
    gust_rows = [
        (g.vehicle - 1, np.asarray(g.accel, float), g.window) for g in cfg.gusts
    ]

    def rhs(t, gamma, gamma_dot, p, v):
        tp, tv = fam.pos_vel_all(gamma)
        e = tp - p
        alpha = coordctrl.path_error_feedback_all(tv, e, delta)
        gdd = coordctrl.coordination_accel_matrix(
            gamma, gamma_dot, lap, alpha, rate(t), a, b
        )
        if any_arrived:
            dgamma = np.where(arrived, 0.0, gamma_dot)
            gdd = np.where(arrived, 0.0, gdd)
        else:
            dgamma = gamma_dot
        u = vehicle.pf_control_all(p, v, tp, tv * dgamma[:, None], kp, kd, a_lim)
        for row, gvec, window in gust_rows:
            u[row] = vehicle.apply_disturbance(u[row], t, gvec, window)
        return dgamma, gdd, v, u, e

    return rhs


def _sample(world: SimWorld, rhs) -> tuple:
    """First RK4 stage at the current state; the sample's diagnostics land
    in ``world.last_sample``, which holds the state arrays themselves
    (``step`` replaces them, never writes into them)."""
    k1 = rhs(world.t, world.gamma, world.gamma_dot, world.p, world.v)
    world.last_sample = {
        "t": world.t,
        "sigma": world.sigma,
        "gamma": world.gamma,
        "gamma_dot": world.gamma_dot,
        "gamma_ddot": k1[1],
        "p": world.p,
        "epf_norm": np.sqrt(np.einsum("ij,ij->i", k1[4], k1[4])),
        "arrived": world.arrived,
        "aux_v": (
            float(world.sw.phi @ world.cert.p @ world.sw.phi)
            if world.sw is not None
            else None
        ),
    }
    return k1


def step(world: SimWorld, dt: float) -> SimWorld:
    """Advance one step: RK4 on the coupled smooth dynamics with the
    topology held fixed, then the switching decision, then arrival
    clamping and the velocity limit.

    Diagnostics of the pre-step sample land in ``world.last_sample``.
    """
    cfg = world.config
    rhs = _rhs(world)
    t0 = world.t
    g0, gd0, p0, v0 = world.gamma, world.gamma_dot, world.p, world.v
    k1 = _sample(world, rhs)

    h = 0.5 * dt
    k2 = rhs(t0 + h, g0 + h * k1[0], gd0 + h * k1[1], p0 + h * k1[2], v0 + h * k1[3])
    k3 = rhs(t0 + h, g0 + h * k2[0], gd0 + h * k2[1], p0 + h * k2[2], v0 + h * k2[3])
    k4 = rhs(
        t0 + dt, g0 + dt * k3[0], gd0 + dt * k3[1], p0 + dt * k3[2], v0 + dt * k3[3]
    )
    w = dt / 6.0
    world.gamma = g0 + w * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
    world.gamma_dot = gd0 + w * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    world.p = p0 + w * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
    world.v = v0 + w * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3])

    world.step_idx += 1
    world.t = world.step_idx * dt

    # speed limit: direction-preserving clamp
    speeds = np.sqrt(np.einsum("ij,ij->i", world.v, world.v))
    over = speeds > cfg.speed_limit
    if np.any(over):
        world.v[over] *= (cfg.speed_limit / speeds[over])[:, None]

    # switching decision at the step boundary
    if world.sw is not None:
        switchlaw.advance(world.sw, dt, cfg.a, cfg.b, world.cert)
        world.sigma = world.sw.sigma
    elif world.schedule is not None:
        idx = min(int(world.t / cfg.random_switch_period), len(world.schedule) - 1)
        new = int(world.schedule[idx])
        if new != world.sigma:
            world.switch_log.append((world.t, world.sigma, new))
            world.sigma = new

    # arrival clamping: virtual time pinned at t_f, rate pinned to the
    # desired rate so the coordination metric closes out cleanly
    newly = (~world.arrived) & (world.gamma >= cfg.t_f)
    if newly.any():
        world.arrived = world.arrived | newly
    if world.arrived.any():
        world.gamma[world.arrived] = cfg.t_f
        world.gamma_dot[world.arrived] = world.profile.rate(world.t)

    _check_finite(world)
    return world


# ---------------------------------------------------------------------------
# metrics log and scenario driver
# ---------------------------------------------------------------------------


@dataclass
class MetricsLog:
    """Complete per-step record of one run plus its integral metrics."""

    config: ScenarioConfig
    t: np.ndarray
    sigma: np.ndarray
    xi_norm: np.ndarray
    gamma: np.ndarray
    gamma_dot: np.ndarray
    gamma_ddot: np.ndarray
    epf_norm: np.ndarray
    positions: np.ndarray
    aux_v: np.ndarray | None
    topology_segments: list[tuple[float, float, int]]
    switch_log: list[tuple[float, int, int]]
    tau_f: float | None
    arrived: bool
    eta_observed: float | None
    lambda_hat_t: np.ndarray | None
    lambda_hat: np.ndarray | None
    final_xi_norm: float
    violations: list[Violation]
    certificate: SwitchingCertificate | None
    laplacians: tuple[np.ndarray, ...]
    final_state: dict

    @property
    def comm_amount(self) -> float:
        return communication_amount(self)

    @property
    def lambda_hat_min(self) -> float | None:
        if self.lambda_hat is None or len(self.lambda_hat) == 0:
            return None
        return float(self.lambda_hat.min())


def run_scenario(config: ScenarioConfig) -> MetricsLog:
    """Run one scenario to arrival or ``t_max``; deterministic for a fixed
    config (the baseline schedule is seeded)."""
    world = init_world(config)
    n = config.n
    dt = config.dt
    n_steps = int(round(config.t_max / dt))
    q = world.cert.q if world.cert is not None else (
        build_projection(n) if n >= 2 else None
    )

    size = n_steps + 1
    log_t = np.empty(size)
    log_sigma = np.empty(size, dtype=np.int64)
    log_xi = np.empty(size)
    log_gamma = np.empty((size, n))
    log_gdot = np.empty((size, n))
    log_gddot = np.empty((size, n))
    log_epf = np.empty((size, n))
    log_pos = np.empty((size, n, 3))
    log_aux = np.empty(size) if world.sw is not None else None

    violations: list[Violation] = []
    bounds = (config.gamma_dot_max, config.gamma_ddot_max)
    first_arrival_row = None

    def record(k: int, s: dict) -> None:
        """Write log row ``k`` from sample ``s`` and check its feasibility."""
        nonlocal first_arrival_row
        log_t[k] = s["t"]
        log_sigma[k] = s["sigma"]
        log_gamma[k] = s["gamma"]
        log_gdot[k] = s["gamma_dot"]
        log_gddot[k] = s["gamma_ddot"]
        log_epf[k] = s["epf_norm"]
        log_pos[k] = s["p"]
        log_xi[k] = coordctrl.coordination_error(
            s["gamma"], s["gamma_dot"], q, world.profile.rate(s["t"])
        )[2]
        if log_aux is not None:
            log_aux[k] = s["aux_v"]
        if first_arrival_row is None and s["arrived"].any():
            first_arrival_row = k
        violations.extend(
            coordctrl.feasibility_check(
                s["gamma_dot"], s["gamma_ddot"], bounds, s["t"], ~s["arrived"]
            )
        )

    rows = 0
    for _ in range(n_steps):
        step(world, dt)
        record(rows, world.last_sample)
        rows += 1
        if world.all_arrived:
            break

    # closing sample at the final state
    _sample(world, _rhs(world))
    record(rows, world.last_sample)
    rows += 1

    t_end = world.t
    tau_f = t_end if world.all_arrived else None
    segments = _segments_from_events(world.switch_log, log_sigma[0], t_end)

    times = [t for t, _, _ in world.switch_log]
    eta_obs = float(np.diff(times).min()) if len(times) >= 2 else None

    # coordination error at the last pre-arrival sample: once virtual
    # times start clamping at t_f the error closes to zero by construction
    final_row = first_arrival_row - 1 if first_arrival_row is not None else rows - 1
    final_xi = float(log_xi[max(final_row, 0)])

    log = MetricsLog(
        config=config,
        t=log_t[:rows],
        sigma=log_sigma[:rows],
        xi_norm=log_xi[:rows],
        gamma=log_gamma[:rows],
        gamma_dot=log_gdot[:rows],
        gamma_ddot=log_gddot[:rows],
        epf_norm=log_epf[:rows],
        positions=log_pos[:rows],
        aux_v=log_aux[:rows] if log_aux is not None else None,
        topology_segments=segments,
        switch_log=world.switch_log,
        tau_f=tau_f,
        arrived=world.all_arrived,
        eta_observed=eta_obs,
        lambda_hat_t=None,
        lambda_hat=None,
        final_xi_norm=final_xi,
        violations=violations,
        certificate=world.cert,
        laplacians=world.laplacians,
        final_state={
            "gamma": world.gamma.copy(),
            "gamma_dot": world.gamma_dot.copy(),
            "p": world.p.copy(),
            "v": world.v.copy(),
        },
    )

    if config.mode == MODE_BIDIRECTIONAL and n >= 2:
        ts, lh = pe_connectivity(log, config.pe_window, q)
        log.lambda_hat_t = ts
        log.lambda_hat = lh
    return log


def _segments_from_events(events, sigma0: int, t_end: float):
    segments = []
    t_prev = 0.0
    sig = int(sigma0)
    for (t_sw, _old, new) in events:
        segments.append((t_prev, t_sw, sig))
        t_prev, sig = t_sw, int(new)
    segments.append((t_prev, t_end, sig))
    return [(t0, t1, s) for (t0, t1, s) in segments if t1 > t0]


def communication_amount(log: MetricsLog) -> float:
    """Total information flow: the adjacency matrix integrated exactly
    over the piecewise-constant topology history up to arrival, summed
    over all entries (edge count times interval length per segment)."""
    horizon = log.tau_f if log.tau_f is not None else float(log.t[-1])
    total = 0.0
    for t0, t1, sig in log.topology_segments:
        overlap = min(t1, horizon) - t0
        if overlap > 0:
            # in-degree sum of the Laplacian equals the edge count
            total += overlap * float(np.trace(log.laplacians[sig - 1]))
    return total


def pe_connectivity(
    log: MetricsLog, window: float, q
) -> tuple[np.ndarray, np.ndarray]:
    """Sliding-window connectivity: smallest eigenvalue of the projected
    Laplacian averaged over ``[t - window, t]``, evaluated at every logged
    sample with ``t >= window``.

    The integral is exact interval arithmetic over the topology history;
    the integrand is symmetrized before the eigensolve so the quantity is
    well defined on directed histories too.
    """
    duration = float(log.t[-1])
    if window > duration:
        warnings.warn(
            f"connectivity window {window} s exceeds run duration {duration} s; "
            "empty series"
        )
        return np.empty(0), np.empty(0)
    n = log.config.n
    k = n - 1
    projected = []
    for lap in log.laplacians:
        m_ = reduced_laplacian(q, lap)
        projected.append(0.5 * (m_ + m_.T))

    seg_start = np.array([s[0] for s in log.topology_segments])
    seg_sigma = [s[2] for s in log.topology_segments]
    cum = np.zeros((len(seg_sigma) + 1, k, k))
    for i, (t0, t1, sig) in enumerate(log.topology_segments):
        cum[i + 1] = cum[i] + (t1 - t0) * projected[sig - 1]

    def prefix(t: float) -> np.ndarray:
        i = int(np.searchsorted(seg_start, t, side="right")) - 1
        i = max(0, min(i, len(seg_sigma) - 1))
        return cum[i] + (t - seg_start[i]) * projected[seg_sigma[i] - 1]

    mask = log.t >= window - 1e-12
    ts = log.t[mask]
    out = np.empty(len(ts))
    scale = 1.0 / (n * window)
    for idx, t in enumerate(ts):
        integral = prefix(float(t)) - prefix(float(t) - window)
        out[idx] = np.linalg.eigvalsh(scale * integral)[0]
    return ts, out


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------


def summary_dict(log: MetricsLog) -> dict:
    return {
        "mode": log.config.mode,
        "n": log.config.n,
        "dt": log.config.dt,
        "t_end": float(log.t[-1]),
        "arrived": log.arrived,
        "tau_f": log.tau_f,
        "comm_amount": log.comm_amount,
        "eta_observed": log.eta_observed,
        "dwell_bound": log.certificate.dwell_bound if log.certificate else None,
        "lambda_hat_min": log.lambda_hat_min,
        "final_xi_norm": log.final_xi_norm,
        "n_switches": len(log.switch_log),
        "violation_count": len(log.violations),
    }


def write_outputs(log: MetricsLog, outdir: str) -> None:
    """Write ``metrics.csv``, ``switches.csv`` and ``summary.json``."""
    os.makedirs(outdir, exist_ok=True)
    n = log.config.n
    cols = ["t", "sigma", "xi_norm"]
    cols += [f"gamma_{i}" for i in range(1, n + 1)]
    cols += [f"gamma_dot_{i}" for i in range(1, n + 1)]
    cols += [f"epf_norm_{i}" for i in range(1, n + 1)]
    for i in range(1, n + 1):
        cols += [f"px_{i}", f"py_{i}", f"pz_{i}"]
    rows = len(log.t)
    data = np.empty((rows, len(cols)))
    data[:, 0] = log.t
    data[:, 1] = log.sigma
    data[:, 2] = log.xi_norm
    data[:, 3 : 3 + n] = log.gamma
    data[:, 3 + n : 3 + 2 * n] = log.gamma_dot
    data[:, 3 + 2 * n : 3 + 3 * n] = log.epf_norm
    data[:, 3 + 3 * n :] = log.positions.reshape(rows, 3 * n)
    fmts = ["%.12g", "%d"] + ["%.12g"] * (len(cols) - 2)
    np.savetxt(
        os.path.join(outdir, "metrics.csv"),
        data,
        fmt=fmts,
        delimiter=",",
        header=",".join(cols),
        comments="",
    )
    with open(os.path.join(outdir, "switches.csv"), "w", encoding="utf-8") as f:
        f.write("time,old_sigma,new_sigma\n")
        for t, old, new in log.switch_log:
            f.write("%.12g,%d,%d\n" % (t, old, new))
    with open(os.path.join(outdir, "summary.json"), "w", encoding="utf-8") as f:
        json.dump(summary_dict(log), f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# config validation report (CLI surface)
# ---------------------------------------------------------------------------


def validation_report(config: ScenarioConfig) -> dict:
    """Structured pass/fail report over the scenario preconditions,
    covering joint connectivity, per-topology connectivity status, the
    admissible threshold interval and the step-size check."""
    checks = []

    def add(name: str, ok: bool, detail: str) -> None:
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    try:
        config.validate()
        add("config", True, "all structural preconditions hold")
    except ConfigError as exc:
        add("config", False, str(exc))
        return {"checks": checks, "ok": False}

    fam_ok = jointly_connected(config.topology_family)
    add(
        "jointly_connected",
        fam_ok,
        "union of the family contains a directed spanning tree"
        if fam_ok
        else "union of the family contains no directed spanning tree",
    )
    for i, d in enumerate(config.topology_family, start=1):
        has = contains_spanning_tree(d)
        add(
            f"topology_{i}_spanning_tree",
            True,
            f"contains a directed spanning tree: {has} (informational)",
        )

    if config.mode == MODE_DIRECTED and config.n >= 2:
        try:
            cert = build_certificate(
                config.topology_family, config.mu_list, config.a, config.b
            )
        except (ValueError, SynthesisError, NumericError) as exc:
            add("certificate", False, str(exc))
            return {"checks": checks, "ok": False}
        cap = 1.0 / cert.lambda_max_p
        add(
            "mu_range",
            True,
            f"all mu in (0, {cap:.6g})",
        )
        dt_ok = config.dt <= cert.dwell_bound / 10.0
        add(
            "dt_vs_dwell",
            dt_ok,
            f"dt={config.dt} vs dwell_bound/10={cert.dwell_bound / 10.0:.6g}",
        )
    ok = all(c["ok"] for c in checks)
    return {"checks": checks, "ok": ok}
