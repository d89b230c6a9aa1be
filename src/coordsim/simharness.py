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
import numbers
import os
import warnings
from dataclasses import dataclass, field, fields

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
from .errors import ConfigError, NumericError
from .vehicle import LaneSweepFamily

MODE_DIRECTED = "directed-switched"
MODE_BIDIRECTIONAL = "bidirectional-random"
# cap on t_max / dt: the per-step log is preallocated for the whole run
MAX_STEPS = 1_000_000


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


def _num(default, lo=None, hi=None):
    """A numeric config field admitted only when finite and inside the open
    range ``(lo, hi)``; ``None`` leaves that side unbounded.  The field's
    annotation (``int`` or ``float``) is its type."""
    return field(default=default, metadata={"range": (lo, hi)})


_NUMERIC_TYPES = {"int": numbers.Integral, "float": numbers.Real}


def _check_number(name: str, value, kind: str, lo=None, hi=None) -> None:
    """Refuse ``value`` unless it is a finite ``kind`` inside ``(lo, hi)``."""
    if isinstance(value, bool) or not isinstance(value, _NUMERIC_TYPES[kind]):
        raise ConfigError(f"{name} must be of type {kind}, got {value!r}")
    if not (
        (isinstance(value, numbers.Integral) or math.isfinite(value))
        and (lo is None or value > lo)
        and (hi is None or value < hi)
    ):
        raise ConfigError(
            f"{name}={value!r} must be finite and inside the open range "
            f"({'-inf' if lo is None else lo}, {'inf' if hi is None else hi})"
        )


def _check_array(name: str, value, shape: tuple[int, ...]) -> None:
    """Refuse ``value`` unless it is a finite real array of ``shape``."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf" or arr.shape != shape or not np.isfinite(arr).all():
        raise ConfigError(
            f"{name} must be a finite real array of shape {shape}, got {value!r}"
        )


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

    n: int = _num(5, 0)
    mode: str = MODE_DIRECTED
    topology_family: list[Digraph] = field(default_factory=default_directed_family)
    a: float = _num(0.75, 0)
    b: float = _num(1.82, 0)
    delta: float = _num(1.2, 0)
    mu_list: list[float] = field(default_factory=lambda: [0.2638, 0.2638, 0.2638])
    phi0: list[float] | None = field(
        default_factory=lambda: [0.9, 1.7, 1.1, 0.1]
    )
    dt: float = _num(1e-3, 0)
    t_max: float = _num(60.0, 0)
    rng_seed: int = _num(1, -1)
    random_switch_period: float = _num(0.3, 0)
    pe_window: float = _num(3.4, 0)
    # mission rate profile: constant base, one smoothstep ramp to final
    rate_base: float = _num(1.0, 0)
    rate_final: float = _num(1.1, 0)
    ramp_start: float = _num(28.0)
    ramp_duration: float = _num(8.0, 0)
    # feasibility envelope on virtual-time rate / acceleration
    gamma_dot_max: float = _num(0.5, 0, 1)
    gamma_ddot_max: float = _num(5.0, 0)
    # vehicle / path-following parameters
    kp: float = _num(4.0, 0)
    kd: float = _num(4.0, 0)
    accel_limit: float = _num(10.0, 0)
    speed_limit: float = _num(5.0, 0)
    initial_positions: list[list[float]] | None = None
    initial_velocities: list[list[float]] | None = None
    # trajectory family parameters (None -> lane defaults for n vehicles)
    traj_offsets: list[float] | None = None
    traj_angles: list[float] | None = None
    t_f: float = _num(50.0, 0)
    gusts: list[GustEvent] = field(default_factory=list)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(d)
        for name, parse in (
            ("topology_family", Digraph.from_dict),
            ("gusts", lambda g: GustEvent(**g)),
        ):
            if name in kwargs:
                try:
                    kwargs[name] = [parse(entry) for entry in kwargs[name]]
                except (TypeError, KeyError, ValueError) as exc:
                    raise ConfigError(f"{name}: {type(exc).__name__}: {exc}") from exc
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
        """Raise ConfigError, naming the field, on the first violated
        precondition."""
        for f in fields(self):
            if "range" in f.metadata:
                _check_number(f.name, getattr(self, f.name), f.type, *f.metadata["range"])
        if self.t_max / self.dt > MAX_STEPS:
            raise ConfigError(
                f"dt={self.dt} with t_max={self.t_max} needs more than {MAX_STEPS} steps"
            )
        if self.mode not in (MODE_DIRECTED, MODE_BIDIRECTIONAL):
            raise ConfigError(f"unknown mode {self.mode!r}")
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
            _check_array("phi0", self.phi0, (self.n - 1,))
            if not any(self.phi0):
                raise ConfigError("phi0 must be nonzero")
            _check_array("mu_list", self.mu_list, (len(self.topology_family),))
        if self.mode == MODE_BIDIRECTIONAL:
            if self.random_switch_period < self.dt:
                raise ConfigError("random_switch_period must be at least dt")
            _require_symmetric(self.topology_family)
        for name in ("traj_offsets", "traj_angles"):
            if getattr(self, name) is not None:
                _check_array(name, getattr(self, name), (self.n,))
        for name in ("initial_positions", "initial_velocities"):
            if getattr(self, name) is not None:
                _check_array(name, getattr(self, name), (self.n, 3))
        for k, g in enumerate(self.gusts):
            _check_number(f"gusts[{k}].vehicle", g.vehicle, "int")
            if not (1 <= g.vehicle <= self.n):
                raise ConfigError(f"gust vehicle {g.vehicle} outside 1..{self.n}")
            _check_array(f"gusts[{k}].accel", g.accel, (3,))
            _check_array(f"gusts[{k}].window", g.window, (2,))
            if g.window[0] >= g.window[1]:
                raise ConfigError(f"gust window {g.window} must be increasing")
        self.mission_profile().validate(self.t_max)
        # the convergence analysis wants delta above the spread of desired
        # speeds; warn (tuning hint), do not reject
        fam = self.trajectory_family()
        speeds = np.linalg.norm(_family_speed_grid(fam), axis=-1)
        spread = float(speeds.max() - speeds.min())
        if self.delta <= spread:
            warnings.warn(
                f"delta={self.delta} does not exceed the desired-speed spread "
                f"{spread:.3g}; convergence margins may shrink"
            )


def _family_speed_grid(fam: LaneSweepFamily) -> np.ndarray:
    ts = np.linspace(0.0, fam.t_f, 2000)
    return fam.velocity_all(np.repeat(ts[:, None], fam.n, axis=1)).reshape(-1, 3)


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
    return ScenarioConfig.from_dict(raw)


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
    """Mutable state of one run plus the immutable objects it needs.

    The smooth state is one packed array ``x = [gamma | gamma_dot | p | v]``
    of ``8 n`` floats, updated in place; ``gamma``, ``gamma_dot``, ``p`` and
    ``v`` are views of it.  ``dx`` and ``e`` are the state derivative and
    the path errors at ``x``.  ``any_arrived`` is set once some entry of
    ``arrived`` is; until then the arrival masks are skipped.
    ``switch_log`` is the run's one switch record (in directed mode, the
    switching law's own list)."""

    config: ScenarioConfig
    fam: LaneSweepFamily
    profile: MissionRateProfile
    laplacians: tuple[np.ndarray, ...]
    cert: SwitchingCertificate | None
    sw: switchlaw.SwitchingState | None
    schedule: np.ndarray | None
    # (row, acceleration, window) of each gust
    gusts: list[tuple[int, np.ndarray, tuple[float, float]]]
    # dynamic state
    step_idx: int = 0
    t: float = 0.0
    sigma: int = 1
    x: np.ndarray = None
    dx: np.ndarray = None
    e: np.ndarray = None
    arrived: np.ndarray = None
    any_arrived: bool = False
    switch_log: list[tuple[float, int, int]] = field(default_factory=list)
    gamma: np.ndarray = field(init=False, repr=False)
    gamma_dot: np.ndarray = field(init=False, repr=False)
    p: np.ndarray = field(init=False, repr=False)
    v: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.gamma, self.gamma_dot, self.p, self.v = _unpack(self.x, self.config.n)

    @property
    def all_arrived(self) -> bool:
        return self.any_arrived and bool(self.arrived.all())


def _unpack(x: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """Views ``(gamma, gamma_dot, p, v)`` of the packed state ``x``."""
    return x[:n], x[n : 2 * n], x[2 * n : 5 * n].reshape(n, 3), x[5 * n :].reshape(n, 3)


def certify(config: ScenarioConfig) -> SwitchingCertificate | None:
    """Admit ``config`` or raise ConfigError naming the field: run
    ``validate``, then, for a directed scenario with ``n >= 2``, synthesize
    its certificate and check the inputs only it can judge (every ``mu_i``
    inside ``(0, 1/lambda_max(P))`` and ``dt <= dwell_bound / 10``).
    Returns the certificate, or None when the scenario has none."""
    config.validate()
    if config.mode != MODE_DIRECTED or config.n < 2:
        return None
    try:
        cert = build_certificate(
            config.topology_family, config.mu_list, config.a, config.b
        )
    except ValueError as exc:  # the structural arguments passed validate
        raise ConfigError(f"mu_list: {exc}") from exc
    if config.dt > cert.dwell_bound / 10.0:
        raise ConfigError(
            f"dt={config.dt} exceeds a tenth of the guaranteed dwell time "
            f"{cert.dwell_bound:.6g}; switching boundaries would quantize too coarsely"
        )
    return cert


def init_world(config: ScenarioConfig) -> SimWorld:
    cert = certify(config)
    fam = config.trajectory_family()
    profile = config.mission_profile()
    laps = tuple(laplacian(d).astype(float) for d in config.topology_family)
    for m in laps:
        m.setflags(write=False)

    sw = None
    schedule = None
    if cert is not None:
        sw = switchlaw.init_switching(
            np.asarray(config.phi0, float), cert, config.a, config.b
        )
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

    n = config.n
    x = np.zeros(8 * n)  # gamma = 0, gamma_dot = 1, v = 0 unless configured
    x[n : 2 * n] = 1.0
    x[2 * n : 5 * n] = np.ravel(
        config.default_initial_positions(fam)
        if config.initial_positions is None
        else config.initial_positions
    )
    if config.initial_velocities is not None:
        x[5 * n :] = np.ravel(config.initial_velocities)

    world = SimWorld(
        config=config,
        fam=fam,
        profile=profile,
        laplacians=laps,
        cert=cert,
        sw=sw,
        schedule=schedule,
        gusts=[
            (g.vehicle - 1, np.asarray(g.accel, float), g.window) for g in config.gusts
        ],
        sigma=sigma,
        x=x,
        arrived=np.zeros(n, dtype=bool),
        switch_log=sw.switch_log if sw is not None else [],
    )
    world.dx, world.e = _rhs(world, 0.0, x)
    return world


def _check_finite(world: SimWorld) -> None:
    """Raise NumericError naming the first non-finite entry of the state.
    A finite sum of squares proves every entry finite; when it is not (an
    entry is non-finite, or a huge one overflows), the fields are scanned."""
    x = world.x
    phi = world.sw.phi if world.sw is not None else x[:0]
    if math.isfinite(float(x @ x) + float(phi @ phi)):
        return
    for name, arr in (
        ("gamma", world.gamma),
        ("gamma_dot", world.gamma_dot),
        ("position", world.p),
        ("velocity", world.v),
        ("phi", phi),
    ):
        if not np.isfinite(arr).all():
            idx = np.argwhere(~np.isfinite(arr))[0]
            raise NumericError(
                f"non-finite {name}[{tuple(int(i) for i in idx)}] at t={world.t:.6g}"
            )


def _rhs(world: SimWorld, t: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coupled smooth dynamics of the packed state ``x`` under the active
    topology: ``(x', path errors)``.  The virtual time of an arrived
    vehicle is held (its derivatives are 0)."""
    cfg = world.config
    gamma, gamma_dot, p, v = _unpack(x, cfg.n)
    tp, tv = world.fam.pos_vel_all(gamma)
    e = tp - p
    alpha = coordctrl.path_error_feedback_all(tv, e, cfg.delta)
    lap = world.laplacians[world.sigma - 1]
    gamma_ddot = coordctrl.coordination_accel_matrix(
        gamma, gamma_dot, lap, alpha, world.profile.rate(t), cfg.a, cfg.b
    )
    if world.any_arrived:
        gamma_dot = np.where(world.arrived, 0.0, gamma_dot)
        gamma_ddot[world.arrived] = 0.0
    u = vehicle.pf_control_all(
        p, v, tp, tv * gamma_dot[:, None], cfg.kp, cfg.kd, cfg.accel_limit
    )
    for row, gvec, window in world.gusts:
        u[row] = vehicle.apply_disturbance(u[row], t, gvec, window)
    return np.concatenate((gamma_dot, gamma_ddot, x[5 * cfg.n :], u.ravel())), e


def step(world: SimWorld, dt: float) -> SimWorld:
    """Advance one step: RK4 on the coupled smooth dynamics with the
    topology held fixed (``world.dx`` is its first stage), then the speed
    limit, the switching decision and arrival clamping; ``world.dx`` and
    ``world.e`` are then evaluated at the new state."""
    cfg = world.config
    t0, x, k1 = world.t, world.x, world.dx
    h = 0.5 * dt
    k2 = _rhs(world, t0 + h, x + h * k1)[0]
    k3 = _rhs(world, t0 + h, x + h * k2)[0]
    k4 = _rhs(world, t0 + dt, x + dt * k3)[0]
    x += dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)  # in place: the views follow

    world.step_idx += 1
    world.t = world.step_idx * dt

    # speed limit: direction-preserving clamp, a factor of exactly 1.0
    # on every vehicle under the limit
    speeds = np.sqrt(np.einsum("ij,ij->i", world.v, world.v))
    world.v *= (cfg.speed_limit / np.maximum(speeds, cfg.speed_limit))[:, None]

    # switching decision at the step boundary
    if world.sw is not None:
        switchlaw.advance(world.sw, dt, world.cert)
        world.sigma = world.sw.sigma
    elif world.schedule is not None:
        idx = min(int(world.t / cfg.random_switch_period), len(world.schedule) - 1)
        new = int(world.schedule[idx])
        if new != world.sigma:
            world.switch_log.append((world.t, world.sigma, new))
            world.sigma = new

    # arrival clamping: virtual time pinned at t_f, rate pinned to the
    # desired rate so the coordination metric closes out cleanly
    if world.any_arrived or world.gamma.max() >= cfg.t_f:
        world.arrived |= world.gamma >= cfg.t_f
        world.any_arrived = True
        world.gamma[world.arrived] = cfg.t_f
        world.gamma_dot[world.arrived] = world.profile.rate(world.t)

    _check_finite(world)
    world.dx, world.e = _rhs(world, world.t, world.x)
    return world


# ---------------------------------------------------------------------------
# metrics log and scenario driver
# ---------------------------------------------------------------------------


@dataclass
class MetricsLog:
    """Complete per-step record of one run plus its integral metrics.

    ``table`` has one row per logged sample and the columns of
    ``metrics.csv``: ``t``, ``sigma``, ``xi_norm``, then ``n`` columns each
    of ``gamma``, ``gamma_dot`` and ``epf_norm``, then ``px, py, pz`` per
    vehicle.  The named per-step arrays are views of it."""

    config: ScenarioConfig
    table: np.ndarray
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
    t: np.ndarray = field(init=False, repr=False)
    sigma: np.ndarray = field(init=False, repr=False)
    xi_norm: np.ndarray = field(init=False, repr=False)
    gamma: np.ndarray = field(init=False, repr=False)
    gamma_dot: np.ndarray = field(init=False, repr=False)
    epf_norm: np.ndarray = field(init=False, repr=False)
    positions: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n, tab = self.config.n, self.table
        self.t, self.sigma, self.xi_norm = tab[:, 0], tab[:, 1], tab[:, 2]
        self.gamma, self.gamma_dot, self.epf_norm = (
            tab[:, 3 + k * n : 3 + (k + 1) * n] for k in range(3)
        )
        self.positions = tab[:, 3 + 3 * n :].reshape(-1, n, 3)

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

    table = np.empty((n_steps + 1, 3 + 6 * n))
    log_aux = np.empty(n_steps + 1) if world.sw is not None else None
    violations: list[Violation] = []
    bounds = (config.gamma_dot_max, config.gamma_ddot_max)
    first_arrival_row = None

    def record(k: int) -> None:
        """Write log row ``k`` from the world's state and check its
        feasibility."""
        nonlocal first_arrival_row
        row, x, t = table[k], world.x, world.t
        row[0] = t
        row[1] = world.sigma
        row[2] = coordctrl.coordination_error(
            world.gamma, world.gamma_dot, q, world.profile.rate(t)
        )[2]
        row[3 : 3 + 2 * n] = x[: 2 * n]  # gamma, gamma_dot
        row[3 + 2 * n : 3 + 3 * n] = np.sqrt(np.einsum("ij,ij->i", world.e, world.e))
        row[3 + 3 * n :] = x[2 * n : 5 * n]  # positions
        if log_aux is not None:
            log_aux[k] = float(world.sw.phi @ world.cert.p @ world.sw.phi)
        if first_arrival_row is None and world.any_arrived:
            first_arrival_row = k
        active = ~world.arrived if world.any_arrived else None
        violations.extend(
            coordctrl.feasibility_check(
                world.gamma_dot, world.dx[n : 2 * n], bounds, t, active
            )
        )

    record(0)
    rows = 1
    for _ in range(n_steps):
        step(world, dt)
        record(rows)
        rows += 1
        if world.all_arrived:
            break

    t_end = world.t
    tau_f = t_end if world.all_arrived else None
    segments = _segments_from_events(world.switch_log, table[0, 1], t_end)

    times = [t for t, _, _ in world.switch_log]
    eta_obs = float(np.diff(times).min()) if len(times) >= 2 else None

    # coordination error at the last pre-arrival sample: once virtual
    # times start clamping at t_f the error closes to zero by construction
    final_row = first_arrival_row - 1 if first_arrival_row is not None else rows - 1
    final_xi = float(table[max(final_row, 0), 2])

    log = MetricsLog(
        config=config,
        table=table[:rows],
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
            "gamma": world.gamma,
            "gamma_dot": world.gamma_dot,
            "p": world.p,
            "v": world.v,
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
    for name in ("gamma", "gamma_dot", "epf_norm"):
        cols += [f"{name}_{i}" for i in range(1, n + 1)]
    cols += [f"p{c}_{i}" for i in range(1, n + 1) for c in "xyz"]
    fmts = ["%.12g", "%d"] + ["%.12g"] * (len(cols) - 2)
    np.savetxt(
        os.path.join(outdir, "metrics.csv"),
        log.table,
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
    """Structured pass/fail report over the scenario preconditions: either
    one failed ``config`` check naming the refused field, or the passed
    checks with per-topology connectivity status, the admissible threshold
    interval and the step-size check."""
    try:
        cert = certify(config)
    except ConfigError as exc:
        failed = {"name": "config", "ok": False, "detail": str(exc)}
        return {"checks": [failed], "ok": False}
    passed = [
        ("config", "all structural preconditions hold"),
        ("jointly_connected", "union of the family contains a directed spanning tree"),
    ]
    passed += [
        (
            f"topology_{i}_spanning_tree",
            f"contains a directed spanning tree: {contains_spanning_tree(d)} "
            "(informational)",
        )
        for i, d in enumerate(config.topology_family, start=1)
    ]
    if cert is not None:
        passed += [
            ("mu_range", f"all mu in (0, {1.0 / cert.lambda_max_p:.6g})"),
            (
                "dt_vs_dwell",
                f"dt={config.dt} <= dwell_bound/10={cert.dwell_bound / 10.0:.6g}",
            ),
        ]
    checks = [{"name": name, "ok": True, "detail": detail} for name, detail in passed]
    return {"checks": checks, "ok": True}
