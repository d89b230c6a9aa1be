"""Closed-loop scenario simulation and mission metrics.

Couples the virtual-time coordination law and the point-mass path
followers into one fixed-step RK4 loop.  Two signals read nothing the
vehicles do, so they are evaluated outside the step and handed to it.  The
topology of every step is fixed before the loop starts: by the
state-feedback switching law in directed mode and by a seeded random
schedule in the bidirectional baseline.  It is held constant across each
step and changes at step boundaries, before arrival clamping.  The desired
mission rate, a function of time alone, is evaluated for a block of
``RATE_BLOCK`` steps at a time, at each step's RK4 stage times and new
sample time.  The loop logs the state alone; one pass after it derives
every measured column and the feasibility records from the logged state,
``RATE_BLOCK`` rows per kernel call.

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
from .errors import ConfigError, check_finite
from .vehicle import LaneSweepFamily, row_norms, saturate

MODE_DIRECTED = "directed-switched"
MODE_BIDIRECTIONAL = "bidirectional-random"
# cap on t_max / dt: the per-step log is preallocated for the whole run
MAX_STEPS = 1_000_000
# windows per stacked eigensolve in pe_connectivity: stacking all of a
# baseline run's windows at once raised its peak memory by half
PE_CHUNK = 256
# steps per call of the mission-rate profile in run_scenario, and log rows
# per call of each kernel in its post-pass: one call per block, not per RK4
# stage or row, and no temporaries the size of the whole log
RATE_BLOCK = 256


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
                kwargs[name] = _parse_entries(name, parse, kwargs[name])
        return cls(**kwargs)

    def to_dict(self) -> dict:
        d = {name: getattr(self, name) for name in self.__dataclass_fields__}
        for name in ("topology_family", "gusts"):
            d[name] = [g.to_dict() for g in d[name]]
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
        for k, g in enumerate(self.topology_family):
            if g.n != self.n:
                raise ConfigError(
                    f"topology_family[{k}]: node count {g.n} does not match n={self.n}"
                )
        if not jointly_connected(self.topology_family):
            raise ConfigError("topology family is not jointly connected")
        if self.n >= 2:
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
        # speeds; warn (tuning hint), do not reject.  One column of sample
        # times serves every vehicle; speed_spread says why the spread has
        # the bits of the norm of each vehicle's velocity at each sample.
        fam = self.trajectory_family()
        spread = fam.speed_spread(np.linspace(0.0, fam.t_f, 2000))
        if self.delta <= spread:
            warnings.warn(
                f"delta={self.delta} does not exceed the desired-speed spread "
                f"{spread:.3g}; convergence margins may shrink"
            )


def _parse_entries(name: str, parse, entries) -> list:
    """``parse`` applied to each entry of the JSON list ``entries``; a
    refused entry raises ConfigError naming ``name[k]``."""
    if not isinstance(entries, list):
        raise ConfigError(f"{name} must be a list, got {entries!r}")
    parsed = []
    for k, entry in enumerate(entries):
        try:
            parsed.append(parse(entry))
        except (TypeError, KeyError, ValueError) as exc:
            raise ConfigError(f"{name}[{k}]: {type(exc).__name__}: {exc}") from exc
    return parsed


def _require_symmetric(family: list[Digraph]) -> None:
    for k, g in enumerate(family):
        for (i, j) in g.edges:
            if (j, i) not in g.edges:
                raise ConfigError(
                    f"topology_family[{k}]: baseline topology is not "
                    f"bidirectional: edge ({i},{j}) lacks its reverse"
                )


def default_directed_config(**overrides) -> ScenarioConfig:
    return ScenarioConfig(**overrides)


def default_bidirectional_config(**overrides) -> ScenarioConfig:
    return ScenarioConfig(
        mode=MODE_BIDIRECTIONAL,
        topology_family=mirror_family(default_directed_family()),
        **overrides,
    )


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


def _topology_schedule(
    config: ScenarioConfig, cert: SwitchingCertificate | None, n_steps: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """``(sigma, aux_v)``: the 1-based topology index at every step boundary
    ``k * dt``, ``k = 0..n_steps``, and the switching law's auxiliary
    energy there (None without the law).  The law decides in directed mode
    (``cert`` is its certificate).  The baseline draws a seeded uniform
    i.i.d. index per ``random_switch_period``, covering ``[0, t_max]``.  A
    single vehicle stays on topology 1."""
    if cert is not None:
        return switchlaw.schedule(config.phi0, cert, config.a, config.b, config.dt, n_steps)
    if config.mode == MODE_BIDIRECTIONAL:
        period = config.random_switch_period
        n_periods = max(1, int(math.ceil(config.t_max / period)))
        periods = np.random.default_rng(config.rng_seed).integers(
            1, len(config.topology_family) + 1, size=n_periods
        )
        idx = (np.arange(n_steps + 1) * config.dt / period).astype(int)
        return periods[np.minimum(idx, n_periods - 1)], None
    return np.ones(n_steps + 1, dtype=np.int64), None


# ---------------------------------------------------------------------------
# world state and stepping
# ---------------------------------------------------------------------------


@dataclass
class SimWorld:
    """Mutable state of one run plus the immutable objects it needs.

    The smooth state is one packed array ``x = [gamma | gamma_dot | p | v]``
    of ``8 n`` floats, updated in place; ``gamma``, ``gamma_dot``, ``p`` and
    ``v`` are views of it, ``dx`` is its derivative and ``sigma`` the
    topology index in force at ``t``.  ``any_arrived`` is set once some
    entry of ``arrived`` is; until then the arrival masks are skipped."""

    config: ScenarioConfig
    fam: LaneSweepFamily
    profile: MissionRateProfile
    laplacians: np.ndarray  # (m, n, n), one per topology
    cert: SwitchingCertificate | None
    # (row, acceleration, window) of each gust
    gusts: list[tuple[int, np.ndarray, tuple[float, float]]]
    # dynamic state
    step_idx: int = 0
    t: float = 0.0
    sigma: int = 1
    x: np.ndarray = None
    dx: np.ndarray = None
    arrived: np.ndarray = None
    any_arrived: bool = False
    gamma: np.ndarray = field(init=False, repr=False)
    gamma_dot: np.ndarray = field(init=False, repr=False)
    p: np.ndarray = field(init=False, repr=False)
    v: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        x, n = self.x, self.config.n
        self.gamma, self.gamma_dot = x[:n], x[n : 2 * n]
        self.p, self.v = x[2 * n : 5 * n].reshape(n, 3), x[5 * n :].reshape(n, 3)

    @property
    def all_arrived(self) -> bool:
        return self.any_arrived and bool(self.arrived.all())


def certify(config: ScenarioConfig) -> SwitchingCertificate | None:
    """Admit ``config`` or raise ConfigError naming the field: run
    ``validate``, then, for a directed scenario with ``n >= 2``, synthesize
    its certificate and check the inputs only it can judge (every ``mu_i``
    inside ``(0, 1/lambda_max(P))``, ``dt <= dwell_bound / 10``, and
    ``phi0^T phi0``, ``phi0^T P phi0`` and every ``phi0^T H_i phi0``
    finite, which the switching law evaluates).  Returns the certificate,
    or None when the scenario has none."""
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
    phi0 = np.asarray(config.phi0, dtype=float)
    with np.errstate(over="ignore"):
        forms = [phi0 @ phi0, *(phi0 @ m @ phi0 for m in (cert.p, *cert.h_matrices))]
    if not np.isfinite(forms).all():
        raise ConfigError(
            f"phi0={config.phi0!r} is too large: the quadratic forms of the "
            "switching law overflow"
        )
    return cert


def init_world(config: ScenarioConfig) -> SimWorld:
    cert = certify(config)
    fam = config.trajectory_family()
    profile = config.mission_profile()
    laps = np.stack([laplacian(d) for d in config.topology_family]).astype(float)
    laps.setflags(write=False)

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
        gusts=[
            (g.vehicle - 1, np.asarray(g.accel, float), g.window) for g in config.gusts
        ],
        sigma=int(_topology_schedule(config, cert, 0)[0][0]),
        x=x,
        arrived=np.zeros(n, dtype=bool),
    )
    world.dx = _rhs(world, 0.0, x, float(profile.rate(0.0)))
    return world


def _check_finite(world: SimWorld) -> None:
    """Raise NumericError naming the first non-finite entry of the state.
    A finite sum of squares proves every entry finite; when it is not (an
    entry is non-finite, or a huge one overflows), the fields are scanned."""
    x = world.x
    if math.isfinite(float(x @ x)):
        return
    for name, arr in (
        ("gamma", world.gamma),
        ("gamma_dot", world.gamma_dot),
        ("position", world.p),
        ("velocity", world.v),
    ):
        check_finite(name, arr, world.t)


def _coordination(world: SimWorld, gamma, gamma_dot, p, lap, rate):
    """``(path errors, desired velocities, virtual-time accelerations)`` of
    one sample of the state, or of a stack with a Laplacian and a desired
    mission rate per sample."""
    cfg = world.config
    tp, tv = world.fam.pos_vel_all(gamma)
    e = tp - p
    alpha = coordctrl.path_error_feedback_all(tv, e, cfg.delta)
    return e, tv, coordctrl.coordination_accel_matrix(
        gamma, gamma_dot, lap, alpha, rate, cfg.a, cfg.b
    )


def _rhs(world: SimWorld, t: float, x: np.ndarray, rate: float) -> np.ndarray:
    """Coupled smooth dynamics ``x'`` of the packed state ``x`` at time
    ``t`` under the active topology and the desired mission rate ``rate``;
    the virtual time of an arrived vehicle is held (its derivatives are 0)."""
    cfg = world.config
    n = cfg.n
    gamma, gamma_dot, v_flat = x[:n], x[n : 2 * n], x[5 * n :]
    lap, p = world.laplacians[world.sigma - 1], x[2 * n : 5 * n].reshape(n, 3)
    e, tv, gamma_ddot = _coordination(world, gamma, gamma_dot, p, lap, rate)
    if world.any_arrived:
        gamma_dot = np.where(world.arrived, 0.0, gamma_dot)
        gamma_ddot[world.arrived] = 0.0
    target_vel = tv * gamma_dot[:, None]
    u = vehicle.pf_control_all(
        e, v_flat.reshape(n, 3), target_vel, cfg.kp, cfg.kd, cfg.accel_limit
    )
    for row, gvec, window in world.gusts:
        u[row] = vehicle.apply_disturbance(u[row], t, gvec, window)
    return np.concatenate((gamma_dot, gamma_ddot, v_flat, u.ravel()))


def _step_rates(
    profile: MissionRateProfile, k0: int, count: int, dt: float
) -> np.ndarray:
    """Desired mission rates of steps ``k0 .. k0 + count - 1``, one column
    per step, from one profile call: rows at ``k dt + dt/2`` (the middle
    RK4 stages), at ``k dt + dt`` (the last stage) and at ``(k + 1) dt``
    (the new sample), each time formed as ``step`` forms it."""
    t = np.arange(k0, k0 + count) * dt
    return profile.rate(
        np.stack((t + 0.5 * dt, t + dt, np.arange(k0 + 1, k0 + count + 1) * dt))
    )


def step(
    world: SimWorld, dt: float, sigma: int, rates: tuple[float, float, float]
) -> SimWorld:
    """Advance one step: RK4 on the coupled smooth dynamics with the
    topology held fixed (``world.dx`` is its first stage), then the speed
    limit, the switch to topology ``sigma``, arrival clamping and
    ``world.dx`` at the new state.  ``rates`` holds the desired mission
    rate at ``t + dt/2``, at ``t + dt`` and at the new sample time (a
    column of ``_step_rates``)."""
    cfg = world.config
    t0, x, k1 = world.t, world.x, world.dx
    rate_mid, rate_end, rate_new = rates
    h = 0.5 * dt
    k2 = _rhs(world, t0 + h, x + h * k1, rate_mid)
    k3 = _rhs(world, t0 + h, x + h * k2, rate_mid)
    k4 = _rhs(world, t0 + dt, x + dt * k3, rate_end)
    x += dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)  # in place: the views follow

    world.step_idx += 1
    world.t = world.step_idx * dt

    saturate(world.v, cfg.speed_limit)  # speed limit, direction preserved

    world.sigma = sigma

    # arrival clamping: virtual time pinned at t_f, rate pinned to the
    # desired rate so the coordination metric closes out cleanly
    if world.any_arrived or world.gamma.max() >= cfg.t_f:
        world.arrived |= world.gamma >= cfg.t_f
        world.any_arrived = True
        world.gamma[world.arrived] = cfg.t_f
        world.gamma_dot[world.arrived] = rate_new

    _check_finite(world)
    world.dx = _rhs(world, world.t, world.x, rate_new)
    return world


# ---------------------------------------------------------------------------
# metrics log and scenario driver
# ---------------------------------------------------------------------------


@dataclass
class MetricsLog:
    """Per-step record of one run: the table plus what only the loop knows.

    ``table`` has one row per logged sample and the columns of
    ``metrics.csv``: ``t``, ``sigma``, ``xi_norm``, then ``n`` columns each
    of ``gamma``, ``gamma_dot`` and ``epf_norm``, then ``px, py, pz`` per
    vehicle; the named per-step arrays are views of it.  The loop logs the
    state, ``_measure`` the other columns and ``violations``.  The log ends
    at arrival (``tau_f``) or at ``t_max``.  The switch log, arrival,
    observed dwell, final coordination error and communication amount are
    derived from the table; edge counts and Laplacians come from
    ``config.topology_family``."""

    config: ScenarioConfig
    table: np.ndarray
    aux_v: np.ndarray | None
    tau_f: float | None
    violations: list[Violation]
    certificate: SwitchingCertificate | None
    final_state: dict
    lambda_hat_t: np.ndarray | None = None
    lambda_hat: np.ndarray | None = None
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
    def arrived(self) -> bool:
        return self.tau_f is not None

    @property
    def switch_log(self) -> list[tuple[float, int, int]]:
        """``(time, old index, new index)`` of every change of the logged
        topology index."""
        start, _, sigma = _segments(self)
        return list(zip(start[1:].tolist(), sigma[:-1].tolist(), sigma[1:].tolist()))

    @property
    def eta_observed(self) -> float | None:
        """Shortest observed time between two switches."""
        times = _segments(self)[0][1:]
        return float(np.diff(times).min()) if len(times) >= 2 else None

    @property
    def final_xi_norm(self) -> float:
        """Coordination error at the last pre-arrival sample: once virtual
        times start clamping at ``t_f`` the error closes to zero by
        construction.  Clamping sets them to exactly ``t_f``."""
        clamped = (self.gamma >= self.config.t_f).any(axis=1)
        first = int(clamped.argmax()) if clamped.any() else len(self.t)
        return float(self.xi_norm[first - 1])

    @property
    def comm_amount(self) -> float:
        """Total information flow: the adjacency matrix integrated exactly
        over the piecewise-constant topology history, summed over all
        entries (edge count times length per segment)."""
        start, end, sigma = _segments(self)
        edges = np.array([len(d.edges) for d in self.config.topology_family])
        # a running total in segment order; np.sum's pairwise order rounds
        # differently
        return sum(((end - start) * edges[sigma - 1]).tolist())

    @property
    def lambda_hat_min(self) -> float | None:
        if self.lambda_hat is None or len(self.lambda_hat) == 0:
            return None
        return float(self.lambda_hat.min())


def _segments(log: MetricsLog) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(start, end, sigma)`` of the constant-topology segments that tile
    ``[0, t_end]``, from the logged ``t`` and ``sigma`` columns; a switch
    at the last sample leaves a last segment of length 0."""
    first = np.flatnonzero(np.concatenate(([True], log.sigma[1:] != log.sigma[:-1])))
    start = log.t[first]
    return start, np.append(start[1:], log.t[-1]), log.sigma[first].astype(int)


def run_scenario(config: ScenarioConfig) -> MetricsLog:
    """Run one scenario to arrival or ``t_max``; deterministic for a fixed
    config (the baseline schedule is seeded)."""
    world = init_world(config)
    n, dt = config.n, config.dt
    n_steps = int(round(config.t_max / dt))
    q = world.cert.q if world.cert is not None else (
        build_projection(n) if n >= 2 else None
    )

    sigma, aux_v = _topology_schedule(config, world.cert, n_steps)
    table = np.empty((n_steps + 1, 3 + 6 * n))
    # the logged state: views of the table's columns and of the world's x
    log_rates, log_pos = table[:, 3 : 3 + 2 * n], table[:, 3 + 3 * n :]
    rates_now, pos_now = world.x[: 2 * n], world.x[2 * n : 5 * n]
    log_rates[0], log_pos[0] = rates_now, pos_now
    for k in range(n_steps):
        j = k % RATE_BLOCK
        if j == 0:
            r_mid, r_end, r_new = _step_rates(
                world.profile, k, min(RATE_BLOCK, n_steps - k), dt
            )
        step(world, dt, int(sigma[k + 1]), (r_mid[j], r_end[j], r_new[j]))
        log_rates[k + 1], log_pos[k + 1] = rates_now, pos_now
        if world.all_arrived:
            break

    rows = world.step_idx + 1
    table = table[:rows]
    table[:, 1] = sigma[:rows]
    log = MetricsLog(
        config=config,
        table=table,
        aux_v=aux_v[:rows] if aux_v is not None else None,
        tau_f=world.t if world.all_arrived else None,
        violations=_measure(world, table, q),
        certificate=world.cert,
        final_state=dict(gamma=world.gamma, gamma_dot=world.gamma_dot, p=world.p, v=world.v),
    )
    if config.mode == MODE_BIDIRECTIONAL and n >= 2:
        log.lambda_hat_t, log.lambda_hat = pe_connectivity(log, config.pe_window, q)
    return log


def _measure(world: SimWorld, table: np.ndarray, q) -> list[Violation]:
    """Fill the ``t``, ``xi_norm`` and ``epf_norm`` columns of the log
    ``table`` from its state and ``sigma`` columns, ``RATE_BLOCK`` rows per
    kernel call, and return the feasibility records of its rows.  A vehicle
    whose virtual time reached ``t_f`` has arrived and is not checked (its
    acceleration, 0 in ``_rhs``, is not read)."""
    cfg, n = world.config, world.config.n
    bounds = (cfg.gamma_dot_max, cfg.gamma_ddot_max)
    violations: list[Violation] = []
    for lo in range(0, len(table), RATE_BLOCK):
        block = table[lo : lo + RATE_BLOCK]
        t = np.arange(lo, lo + len(block)) * cfg.dt
        rate = world.profile.rate(t)[:, None]
        gamma, gamma_dot = block[:, 3 : 3 + n], block[:, 3 + n : 3 + 2 * n]
        lap = world.laplacians[block[:, 1].astype(int) - 1]
        p = block[:, 3 + 3 * n :].reshape(-1, n, 3)
        e, _, gamma_ddot = _coordination(world, gamma, gamma_dot, p, lap, rate)
        block[:, 0] = t
        block[:, 2] = coordctrl.coordination_error(gamma, gamma_dot, q, rate)[2]
        block[:, 3 + 2 * n : 3 + 3 * n] = row_norms(e)
        flying = gamma < cfg.t_f  # the logged state is finite
        violations += coordctrl.feasibility_check(gamma_dot, gamma_ddot, bounds, t, flying)
    return violations


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
    reduced = np.stack(
        [reduced_laplacian(q, laplacian(d).astype(float)) for d in log.config.topology_family]
    )
    projected = 0.5 * (reduced + reduced.transpose(0, 2, 1))

    seg_start, seg_end, seg_sigma = _segments(log)
    # cum[i]: the integral over the segments before segment i
    seg_integral = (seg_end - seg_start)[:, None, None] * projected[seg_sigma - 1]
    cum = np.concatenate((np.zeros((1, n - 1, n - 1)), np.cumsum(seg_integral, axis=0)))

    ts = log.t[log.t >= window - 1e-12]
    out = np.empty(len(ts))
    scale = 1.0 / (n * window)
    for lo in range(0, len(ts), PE_CHUNK):
        # integral up to each window's end (row 0) and start (row 1): the
        # whole segments before it plus the part of the segment it falls in
        t = ts[lo : lo + PE_CHUNK]
        ends = np.stack((t, t - window))
        i = np.clip(np.searchsorted(seg_start, ends, side="right") - 1, 0, len(seg_start) - 1)
        prefix = cum[i] + (ends - seg_start[i])[..., None, None] * projected[seg_sigma[i] - 1]
        out[lo : lo + PE_CHUNK] = np.linalg.eigvalsh(scale * (prefix[0] - prefix[1]))[:, 0]
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
