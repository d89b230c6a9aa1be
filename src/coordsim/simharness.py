"""Closed-loop scenario simulation and mission metrics.

Couples the virtual-time coordination law and the point-mass path
followers into one fixed-step RK4 loop.  Two signals read nothing the
vehicles do, so they are evaluated outside the step and handed to it.  The
topology of every step is fixed before the loop starts: by the
state-feedback switching law in directed mode and by a seeded random
schedule in the bidirectional baseline.  Each step evaluates all four RK4
stages under the topology it is handed, so a topology changes only at a
step boundary.  The desired mission rate, a function of time alone, is
evaluated for a block of ``RATE_BLOCK`` steps at a time, at each step's
RK4 stage times.  ``init_world`` binds each world's step once, in
``_bind_step``: four stage closures (``_bind_stages``) and the RK4
combination over views of its state and workspace, with the kernels
bound to their scratch, so a step runs its numpy calls and little else.
The loop logs the state it integrates, ``[gamma | gamma_dot | p]``, and
the schedule, and nothing else.  Everything the log reports is derived
from those rows where it is read, ``RATE_BLOCK`` rows per kernel call: the
time, the coordination error and the path-error norms on each read, the
feasibility records and the windowed connectivity on the first.

Communication cost and windowed connectivity are integrated exactly over
the piecewise-constant topology history instead of being sampled, so the
headline metrics do not depend on the step size.
"""

from __future__ import annotations

import json
import logging
import math
import numbers
import os
import warnings
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Callable

import numpy as np

from . import coordctrl, switchlaw, vehicle
from .coordalg import (
    SwitchingCertificate,
    build_certificate,
    build_projection,
    reduced_laplacian,
)
from .coordctrl import MissionRateProfile, Violation
from .digraph import Digraph, contains_spanning_tree, jointly_connected, laplacians
from .errors import ConfigError, NumericError, check_finite
from .vehicle import LaneSweepFamily, row_norms

logger = logging.getLogger(__name__)

MODE_DIRECTED = "directed-switched"
MODE_BIDIRECTIONAL = "bidirectional-random"
# cap on t_max / dt: the per-step log is preallocated for the whole run
MAX_STEPS = 1_000_000
# RK4 multiplies the rate mode -b of the coordination law by
# R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 per step, z = -b dt; |R(z)| <= 1 on
# the negative real axis down to the negative root of R(z) = 1, that is of
# z^3 + 4 z^2 + 12 z + 24 = 0, so b dt must stay below its magnitude
RK4_STABILITY_LIMIT = 2.785293563405282
# radius of the largest left half-disc {|z| <= r, Re z <= 0} inside RK4's
# stability region |R(z)| <= 1: the boundary |R(z)| = 1 comes closest to the
# origin in the left half-plane at z = r exp(i theta), theta = 2.14229 (122.7
# degrees), where the circle |z| = r touches it, so |R(r exp(i theta))|^2 = 1
# and its theta-derivative vanishes.  Solved to 40 digits, r =
# 2.6155876882352939243; pinned truncated, below it
RK4_HALF_DISC_RADIUS = 2.615587688235293
# growth |R(s dt)| - 1 of a coordination mode taken as rounding, not
# instability (see _check_coordination_modes)
MODE_GROWTH_SLACK = 1e-12
# cap on n in every mode: synthesis solves an (n-1)^2 x (n-1)^2 system, and
# a run's preallocated log has 5 n columns
MAX_SYNTHESIS_N = 40
# windows per stacked eigensolve in pe_connectivity: stacking all of a
# baseline run's windows at once raised its peak memory by half
PE_CHUNK = 256
# steps per call of the mission-rate profile and per read of the schedule in
# run_scenario, and log rows per call of each kernel in MetricsLog._rows and
# per block of metrics.csv: one call per block, not per RK4 stage or row,
# and no temporaries the size of the whole log
RATE_BLOCK = 256


def default_directed_family() -> list[Digraph]:
    """Three two-edge topologies, individually disconnected, jointly
    connected through transmitters at vehicles 2 and 3."""
    return [
        Digraph(5, [(1, 3), (4, 2)]),
        Digraph(5, [(2, 3), (5, 2)]),
        Digraph(5, [(2, 3), (4, 2)]),
    ]


def _num(default, lo=None, hi=None):
    """A numeric config field admitted only when finite and inside the open
    range ``(lo, hi)``; ``None`` leaves that side unbounded.  The field's
    annotation (``int`` or ``float``) is its type."""
    return field(default=default, metadata={"range": (lo, hi)})


_NUMERIC_TYPES = {"int": numbers.Integral, "float": numbers.Real}
# the exact types that JSON numbers parse to, admitted without the ABC check
_EXACT_TYPES = {"int": (int,), "float": (int, float)}


def _check_number(name: str, value, kind: str, lo=None, hi=None) -> None:
    """Refuse ``value`` unless it is a finite ``kind`` inside ``(lo, hi)``."""
    if type(value) not in _EXACT_TYPES[kind] and (
        isinstance(value, bool) or not isinstance(value, _NUMERIC_TYPES[kind])
    ):
        raise ConfigError(f"{name} must be of type {kind}, got {value!r}")
    try:
        finite = kind == "int" or math.isfinite(value)
    except OverflowError:  # an integer literal beyond the float range
        finite = False
    if not (
        finite
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
    dt: float = _num(1e-3, np.finfo(float).tiny)  # normal: 1 / (n dt) is finite
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
        return MissionRateProfile(
            self.rate_base, self.rate_final, self.ramp_start, self.ramp_duration
        )

    def initial_pos_vel(self, fam: LaneSweepFamily) -> tuple[np.ndarray, np.ndarray]:
        """Initial positions and velocities, ``(n, 3)`` each: as configured,
        else on the ground two meters short of the trajectory start line,
        and at rest."""
        if self.initial_positions is None:
            p0 = np.zeros((self.n, 3))
            p0[:, 0] = -2.0
            p0[:, 1] = fam.offsets
        else:
            p0 = np.asarray(self.initial_positions, float)
        if self.initial_velocities is None:
            return p0, np.zeros((self.n, 3))
        return p0, np.asarray(self.initial_velocities, float)

    # -- validation -----------------------------------------------------------

    def validate(self) -> tuple[LaneSweepFamily, MissionRateProfile, np.ndarray]:
        """Raise ConfigError, naming the field, on the first violated
        precondition; return the trajectory family, the mission-rate profile
        and its rates at 0 and t_max, which the run uses.  Overflow in the
        run's first evaluations is refused by ``certify``, not here."""
        for name, kind, lo, hi in _RANGE_FIELDS:
            _check_number(name, getattr(self, name), kind, lo, hi)
        if self.n > MAX_SYNTHESIS_N:  # refused before anything is sized by n
            raise ConfigError(f"n={self.n} exceeds MAX_SYNTHESIS_N={MAX_SYNTHESIS_N}")
        if self.t_max / self.dt > MAX_STEPS:
            raise ConfigError(
                f"dt={self.dt} with t_max={self.t_max} needs more than {MAX_STEPS} steps"
            )
        if self.b * self.dt >= RK4_STABILITY_LIMIT:
            raise ConfigError(
                f"b={self.b} with dt={self.dt}: b*dt must stay below RK4's "
                f"stability limit {RK4_STABILITY_LIMIT}"
            )
        if self.mode not in (MODE_DIRECTED, MODE_BIDIRECTIONAL):
            raise ConfigError(f"mode: unknown mode {self.mode!r}")
        if not self.topology_family:
            raise ConfigError("topology_family is empty")
        for k, g in enumerate(self.topology_family):
            if g.n != self.n:
                raise ConfigError(
                    f"topology_family[{k}]: node count {g.n} does not match n={self.n}"
                )
        if not jointly_connected(self.topology_family):
            raise ConfigError("topology_family is not jointly connected")
        if self.n >= 2:
            _check_array("phi0", self.phi0, (self.n - 1,))
            if not any(self.phi0):
                raise ConfigError("phi0 must be nonzero")
            _check_array("mu_list", self.mu_list, (len(self.topology_family),))
        if self.mode == MODE_BIDIRECTIONAL:
            for name in ("random_switch_period", "pe_window"):
                if getattr(self, name) < self.dt:
                    raise ConfigError(f"{name} must be at least dt")
            _require_symmetric(self.topology_family)
        # every coordination mode s, a root of s^2 + b s + a lambda for an
        # eigenvalue lambda of a Laplacian, has |s| <= b + sqrt(a |lambda|),
        # and Gershgorin gives |lambda| <= 2 (n - 1): when that bound times dt
        # fits the half-disc, every stable mode lies in RK4's region
        a, b, dt = float(self.a), float(self.b), float(self.dt)
        if (b + math.sqrt(2.0 * a * (self.n - 1))) * dt > RK4_HALF_DISC_RADIUS:
            _check_coordination_modes(self.topology_family, a, b, dt)
        for name in ("traj_offsets", "traj_angles"):
            if getattr(self, name) is not None:
                _check_array(name, getattr(self, name), (self.n,))
        for name in ("initial_positions", "initial_velocities"):
            if getattr(self, name) is not None:
                _check_array(name, getattr(self, name), (self.n, 3))
        for k, g in enumerate(self.gusts):
            _check_number(f"gusts[{k}].vehicle", g.vehicle, "int")
            if not (1 <= g.vehicle <= self.n):
                raise ConfigError(
                    f"gusts[{k}].vehicle: gust vehicle {g.vehicle} outside 1..{self.n}"
                )
            _check_array(f"gusts[{k}].accel", g.accel, (3,))
            _check_array(f"gusts[{k}].window", g.window, (2,))
            if g.window[0] >= g.window[1]:
                raise ConfigError(
                    f"gusts[{k}].window: gust window {g.window} must be increasing"
                )
        profile = self.mission_profile()
        rates = profile.validate(self.t_max)
        fam = self.trajectory_family()
        # the convergence analysis wants delta above the spread of desired
        # speeds; warn (tuning hint), do not reject.  The lateral rate
        # 1.8 t exp(-0.6 t) is 0 at t = 0 and peaks at t = 5/3, the two
        # times that decide the spread over [0, t_f]
        spread = fam.speed_spread(np.array([0.0, min(fam.t_f, 5.0 / 3.0)]))
        if self.delta <= spread:
            warnings.warn(
                f"delta={self.delta} does not exceed the desired-speed spread "
                f"{spread:.3g}; convergence margins may shrink"
            )
        return fam, profile, rates


# (name, type, lo, hi) of each ranged numeric field, checked first by validate
_RANGE_FIELDS = [
    (f.name, f.type, *f.metadata["range"]) for f in fields(ScenarioConfig) if f.metadata
]


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


def _check_coordination_modes(family: list[Digraph], a: float, b: float, dt: float) -> None:
    """Refuse, naming ``a`` and ``dt``, a coordination mode of some topology
    of ``family`` that is stable (``Re s < 0``) but outside RK4's region
    (``|R(s dt)| > 1``), or that is not finite.  The modes of a topology are
    the roots ``s`` of ``s^2 + b s + a lambda`` over the eigenvalues
    ``lambda`` of its Laplacian: ``s_2 = (-b - sqrt(b^2 - 4 a lambda)) / 2``,
    whose real part is at most ``-b / 2``, and ``s_1 = a lambda / s_2``,
    with no cancellation.

    ``R`` is evaluated to about ``1e-14`` where ``|s dt|`` is below 3, so a
    growth up to ``1 + MODE_GROWTH_SLACK`` is taken as rounding: the rate
    mode ``-b`` with ``b dt`` one ulp inside ``RK4_STABILITY_LIMIT`` is such
    a case, and a mode that did grow by that much per step would grow by
    about one part in a million over ``MAX_STEPS`` steps."""
    lam = np.linalg.eigvals(laplacians(family).astype(float))
    with np.errstate(all="ignore"):
        s2 = -0.5 * (b + np.sqrt(b * b - 4.0 * a * lam.astype(complex)))
        modes = np.stack((a * lam / s2, s2), axis=-1)  # (m, n, 2)
        z = modes * dt
        growth = np.abs(1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0))))
        outside = (modes.real < 0) & (growth > 1.0 + MODE_GROWTH_SLACK)
        finite = np.isfinite(modes)
    if not (finite.all() and not outside.any()):
        k, i, j = np.argwhere(~finite | outside)[0]
        where = f"of topology_family[{k}] (a root of s^2 + b s + a lambda, b={b})"
        if not finite[k, i, j]:
            raise ConfigError(f"a={a} with dt={dt}: a coordination mode {where} overflows")
        raise ConfigError(
            f"a={a} with dt={dt}: the coordination mode s={complex(modes[k, i, j]):.6g} "
            f"{where} is stable but outside RK4's stability region: "
            f"|R(s dt)| = {growth[k, i, j]:.6g} > 1"
        )


def _require_symmetric(family: list[Digraph]) -> None:
    for k, g in enumerate(family):
        for (i, j) in g.edges:
            if (j, i) not in g.edges:
                raise ConfigError(
                    f"topology_family[{k}]: baseline topology is not "
                    f"bidirectional: edge ({i},{j}) lacks its reverse"
                )


def load_config(path: str) -> ScenarioConfig:
    """Read a scenario JSON file; parse errors carry line/column info."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
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
        periods = np.array(
            _uniform_topologies(int(config.rng_seed), len(config.topology_family), n_periods),
            dtype=np.int64,
        )
        idx = (np.arange(n_steps + 1) * config.dt / period).astype(int)
        return periods[np.minimum(idx, n_periods - 1)], None
    return np.ones(n_steps + 1, dtype=np.int64), None


_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uniform_topologies(seed: int, m: int, count: int) -> list[int]:
    """``count`` uniform i.i.d. indices in ``1..m`` (``m <= 2**32``): the
    draws of ``numpy.random.default_rng(seed).integers(1, m + 1,
    size=count)``, bit for bit, in plain integer arithmetic, so that a run
    never imports ``numpy.random`` (about 5 MB resident).  ``SeedSequence``
    hashes the seed's 32-bit words into a pool of four and expands it to
    PCG64's 128-bit state and increment; each XSL-RR output gives two
    32-bit words, low half first; Lemire's multiply-and-reject maps a word
    to ``0..m - 1``.  ``m == 1`` draws nothing."""
    if m == 1:
        return [1] * count

    def hasher(h: int, mult: int) -> Callable[[int], int]:
        """SeedSequence's running 32-bit hash, starting at ``h``."""

        def hash32(value: int) -> int:
            nonlocal h
            value, h = value ^ h, h * mult & _MASK32
            value = value * h & _MASK32
            return value ^ value >> 16

        return hash32

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return r ^ r >> 16

    hashmix = hasher(0x43B0D7E5, 0x931E8875)
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    pool = [hashmix(w) for w in (words + [0] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        pool = [mix(p, hashmix(w)) for p in pool]
    # generate_state(4, uint64): eight 32-bit words, little-endian
    out_hash = hasher(0x8B51F9DD, 0x58F38DED)
    state = sum(out_hash(pool[k % 4]) << 32 * k for k in range(8))
    u = [state >> 64 * j & _MASK64 for j in range(4)]
    # PCG64's seeding: from state 0, one step, add the seed state, one step
    inc = ((u[2] << 64 | u[3]) << 1 | 1) & _MASK128
    x = ((inc + (u[0] << 64 | u[1])) * _PCG64_MULT + inc) & _MASK128

    def words32(x: int):
        while True:
            x = (x * _PCG64_MULT + inc) & _MASK128
            rot, word = x >> 122, (x >> 64 ^ x) & _MASK64
            word = (word >> rot | word << 64 - rot) & _MASK64
            yield word & _MASK32
            yield word >> 32

    # Lemire: the high word of word * m, unless the low word falls below
    # 2**32 % m, the share of products that would bias it
    threshold, draw, out = 2**32 % m, words32(x), []
    while len(out) < count:
        p = next(draw) * m
        if p & _MASK32 >= threshold:
            out.append((p >> 32) + 1)
    return out


# ---------------------------------------------------------------------------
# world state and stepping
# ---------------------------------------------------------------------------


def _split(state: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """Views of the packed ``8 n`` array ``state = [gamma | gamma_dot | p |
    v]``, or of a derivative row in the same layout, or of a stack of them
    (``(..., 8 n)``): ``gamma``, ``gamma_dot``, ``gamma_dot`` as an
    ``(n, 1)`` column, and ``p`` and ``v`` as ``(n, 3)`` rows."""
    gamma_dot, rows = state[..., n : 2 * n], state.shape[:-1] + (n, 3)
    return (
        state[..., :n],
        gamma_dot,
        gamma_dot[..., None],
        state[..., 2 * n : 5 * n].reshape(rows),
        state[..., 5 * n :].reshape(rows),
    )


@dataclass
class SimWorld:
    """Mutable state of one run plus the immutable objects it needs.

    The smooth state is one packed array ``x = [gamma | gamma_dot | p | v]``
    of ``8 n`` floats, updated in place; ``gamma``, ``gamma_dot``, ``p`` and
    ``v`` are views of it.  ``any_arrived`` is set once some entry of
    ``arrived`` is; until then the arrival masks are skipped.

    ``advance``, bound once by ``_bind_step``, is the world's RK4 step: a
    closure over views of ``x``, the arrival mask and its own workspace,
    with no reference to the world.  ``step`` reads ``t``, the step's
    Laplacian and ``any_arrived`` from the world and hands them to it."""

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
    x: np.ndarray = None
    arrived: np.ndarray = None
    any_arrived: bool = False
    gamma: np.ndarray = field(init=False, repr=False)
    gamma_dot: np.ndarray = field(init=False, repr=False)
    p: np.ndarray = field(init=False, repr=False)
    v: np.ndarray = field(init=False, repr=False)
    advance: Callable[..., bool] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.gamma, self.gamma_dot, _, self.p, self.v = _split(self.x, self.config.n)
        self.advance = _bind_step(self)

    @property
    def all_arrived(self) -> bool:
        return self.any_arrived and bool(self.arrived.all())


def _admit(
    config: ScenarioConfig,
) -> tuple[SwitchingCertificate | None, LaneSweepFamily, MissionRateProfile]:
    """``(certificate, trajectory family, mission-rate profile)`` of an
    admitted ``config``; see ``certify``."""
    fam, profile, rates = config.validate()
    cert = None
    if config.mode == MODE_DIRECTED and config.n >= 2:
        try:
            cert = build_certificate(config.topology_family, config.mu_list, config.a, config.b)
        except ValueError as exc:  # the structural arguments passed validate
            raise ConfigError(f"mu_list: {exc}") from exc
        if not math.isfinite(cert.dwell_bound):  # a / b underflows
            raise ConfigError(
                f"a, b: the gain ratio a/b is too small for a finite guaranteed "
                f"dwell time (a={config.a!r}, b={config.b!r})"
            )
        if config.dt > cert.dwell_bound / 10.0:
            raise ConfigError(
                f"dt={config.dt} exceeds a tenth of the guaranteed dwell time "
                f"{cert.dwell_bound:.6g}; switching boundaries would quantize too coarsely"
            )
    # certify's table, rows (fields, term, values); "{}" is a PD row's vehicle
    n, accels = config.n, {f"gusts[{k}].accel": g.accel for k, g in enumerate(config.gusts)}
    (tp, tv), (p0, v0) = fam.pos_vel_all(np.zeros(n)), config.initial_pos_vel(fam)
    with np.errstate(all="ignore"):
        up, ud = config.kp * (tp - p0), config.kd * (tv - v0)
        stacked = np.concatenate([up, ud, up + ud, *map(np.atleast_2d, accels.values())])
        norms = row_norms(stacked).tolist()  # math.isfinite on floats: no numpy call per row
        table = [
            ("b, rate_base, rate_final", "b (1 - rate) at t = 0 or t_max", config.b * (1.0 - rates)),
            ("kp, initial_positions", "|kp e0|^2 of vehicle {}", norms[:n]),
            ("kd, initial_velocities", "|kd (v_d0 - v0)|^2 of vehicle {}", norms[n : 2 * n]),
            ("kp, kd", "|kp e0 + kd (v_d0 - v0)|^2 of vehicle {}", norms[2 * n : 3 * n]),
            *((name, "its squared norm", [norms[3 * n + k]]) for k, name in enumerate(accels)),
        ]
        if cert is not None:
            phi0 = np.asarray(config.phi0, dtype=float)
            forms = [phi0 @ phi0, *(phi0 @ m @ phi0 for m in (cert.p, *cert.h_matrices))]
            table.append(("phi0", "a quadratic form of the switching law", forms))
        for names, term, values in table:
            if not all(map(math.isfinite, values)):
                shown = ", ".join(f"{f}={(vars(config) | accels)[f]!r}" for f in names.split(", "))
                where = term.format([*map(math.isfinite, values)].index(False) + 1)
                raise ConfigError(f"{names}: {where} overflows in the run's first evaluation ({shown})")
    return cert, fam, profile


def certify(config: ScenarioConfig) -> SwitchingCertificate | None:
    """Admit ``config`` or raise ConfigError naming the field: ``validate``;
    in directed mode with ``n >= 2``, synthesis, every ``mu_i`` in ``(0,
    1/lambda_max(P))``, a finite ``dwell_bound`` and ``dt <= dwell_bound /
    10``; then, in every mode, a finite value of each term the run evaluates
    first: ``b (1 - rate)`` at ``t = 0`` and ``t_max``; the squared norms of
    each vehicle's ``kp e0``, ``kd (v_d0 - v0)`` and their sum, and of every
    gust acceleration; then ``phi0^T phi0``, ``phi0^T P phi0`` and every
    ``phi0^T H_i phi0`` if synthesized.  Returns the certificate, or None
    without one."""
    return _admit(config)[0]


def init_world(config: ScenarioConfig) -> SimWorld:
    """The state of a run at ``t = 0``, the objects its steps read and the
    workspace they write; the topology and the desired rate of each step
    are handed to ``step``."""
    cert, fam, profile = _admit(config)
    if cert is not None:
        laps = cert.laplacians
    else:
        laps = laplacians(config.topology_family).astype(float)
        laps.setflags(write=False)

    n = config.n
    x = np.zeros(8 * n)  # gamma = 0, gamma_dot = 1
    x[n : 2 * n] = 1.0
    p0, v0 = config.initial_pos_vel(fam)
    x[2 * n : 5 * n] = p0.ravel()
    x[5 * n :] = v0.ravel()

    return SimWorld(
        config=config,
        fam=fam,
        profile=profile,
        laplacians=laps,
        cert=cert,
        gusts=[
            (g.vehicle - 1, np.asarray(g.accel, float), g.window) for g in config.gusts
        ],
        x=x,
        arrived=np.zeros(n, dtype=bool),
    )


def _check_state(x: np.ndarray, n: int, t: float) -> None:
    """Raise NumericError naming the first non-finite entry of the packed
    state ``x`` of ``n`` vehicles at time ``t``.  A finite sum of squares,
    one BLAS dot (which, unlike ``x @ x``, raises no overflow warning),
    proves every entry finite; when it is not (an entry is non-finite, or a
    huge one overflows), the fields of ``x`` are scanned."""
    if math.isfinite(np.vdot(x, x)):
        return
    gamma, gamma_dot, _, p, v = _split(x, n)
    for name, arr in zip(("gamma", "gamma_dot", "position", "velocity"), (gamma, gamma_dot, p, v)):
        check_finite(name, arr, t)


def _bind_stages(
    world: SimWorld, sources: tuple[tuple[np.ndarray, ...], ...], rows: np.ndarray
) -> tuple[Callable[..., None], ...]:
    """RK4 stages of ``world`` as closures ``stage(t, lap, rate,
    any_arrived)``, one per state in ``sources``, given as its ``_split``
    views, and row of ``rows``.  Each writes into its row the coupled
    smooth dynamics ``x'`` of the current contents of its state at time
    ``t``, under the topology with Laplacian ``lap`` and the desired
    mission rate ``rate``.  An arrived vehicle's virtual time is held (its
    rate in the derivative is 0); its rate derivative is not, as only its
    own row reads it and the step's arrival clamp overwrites that row.

    They close over views bound here: those of their state and of
    ``rows``, the world's arrival mask and gusts, the coefficients of
    ``world.config``, and the kernels (``LaneSweepFamily._bind_pos_vel``,
    ``coordctrl._bind_feedback`` and ``coordctrl._bind_accel``), bound once
    to a fresh ``(4, n, 3)`` stack ``[target_vel - v | e | v_d | p_d]``,
    which the stages share with the kernels' scratch, as each runs to its
    end before the next starts.  Before arrival, a stage allocates only
    when its command fails the saturation's one-dot test.
    ``vehicle.pf_control_all`` and ``vehicle.apply_disturbance`` are looked
    up at each call."""
    cfg, n = world.config, world.config.n
    arrived, gusts = world.arrived, world.gusts
    gains = vehicle.PDGains(cfg.kp, cfg.kd, cfg.accel_limit, n)
    targets = np.empty((4, n, 3))
    pd_stack, feedback_stack = targets[0:2], targets[1:3]
    vel_error, e, v_d, p_d = targets
    alpha = np.empty(n)
    coord_gains = np.empty((2, n))  # [a | -b]: one same-shape multiply
    coord_gains[0], coord_gains[1] = cfg.a, -cfg.b
    pos_vel = world.fam._bind_pos_vel(targets[2:4])
    # delta as a 0-d array: an operation on one costs less than on a
    # Python float, with the same IEEE result
    feedback = coordctrl._bind_feedback(feedback_stack, np.array(cfg.delta, dtype=float), alpha)
    accel = coordctrl._bind_accel(alpha, coord_gains, (n,))
    subtract, multiply = np.subtract, np.multiply

    def bind(source, d_gamma, d_gamma_dot, _, d_p, d_v) -> Callable[..., None]:
        gamma, gamma_dot, gamma_dot_col, p, v = source

        def stage(t: float, lap: np.ndarray, rate: np.ndarray, any_arrived: bool) -> None:
            pos_vel(gamma)
            subtract(p_d, p, e)
            feedback()
            accel(gamma, gamma_dot, lap, rate, d_gamma_dot)
            rates, rates_col = gamma_dot, gamma_dot_col
            if any_arrived:
                rates = np.where(arrived, 0.0, gamma_dot)
                rates_col = rates[:, None]
            # the target velocity, from the rates spread over the rows of
            # the position slot (v is copied there last): a same-shape
            # multiply, not a broadcast one
            d_p[...] = rates_col
            multiply(v_d, d_p, vel_error)
            subtract(vel_error, v, vel_error)
            vehicle.pf_control_all(pd_stack, gains, d_v)
            for row, gvec, window in gusts:
                d_v[row] = vehicle.apply_disturbance(d_v[row], t, gvec, window)
            d_gamma[...] = rates
            d_p[...] = v

        return stage

    return tuple(map(bind, sources, *_split(rows, n)))


def _bind_step(world: SimWorld) -> Callable[..., bool]:
    """The RK4 step of ``world`` as a closure ``advance(t, t_new, lap,
    any_arrived, rates)``, ``rates`` as ``step`` takes them: the four
    stages of ``_bind_stages`` under the Laplacian ``lap``, the first at
    ``x`` and time ``t``, the others at a stage state formed in a workspace
    ``[stage | k1 | k2 | k3 | k4]`` bound here; then the RK4 combination
    into ``x``, the speed limit, arrival clamping with the desired rate
    ``rate_new`` and the finite check at the new time ``t_new``.  Returns
    ``any_arrived`` after the step."""
    cfg, n, x, arrived = world.config, world.config.n, world.x, world.arrived
    gamma, gamma_dot, v = world.gamma, world.gamma_dot, world.v
    block = np.empty((5, 8 * n))
    stage, ks, doubled = block[0], block[1:], block[2:4]
    k1, k2, k3, _ = ks
    s1, s2, s3, s4 = _bind_stages(world, (_split(x, n),) + (_split(stage, n),) * 3, ks)
    dt, limit, t_f = cfg.dt, cfg.speed_limit, cfg.t_f
    h = 0.5 * dt
    # the weights as 0-d float64 arrays, for the reason of delta's
    half, full, two, sixth = (np.array(w, dtype=float) for w in (h, dt, 2, dt / 6.0))
    bound = vehicle.dot_bound(limit)
    multiply, add, add_rows, saturate = np.multiply, np.add, np.add.reduce, vehicle.saturate

    def advance(t: float, t_new: float, lap: np.ndarray, any_arrived: bool, rates) -> bool:
        rate_now, rate_mid, rate_end, rate_new = rates
        try:
            s1(t, lap, rate_now, any_arrived)
            add(x, multiply(half, k1, stage), stage)
            s2(t + h, lap, rate_mid, any_arrived)
            add(x, multiply(half, k2, stage), stage)
            s3(t + h, lap, rate_mid, any_arrived)
            add(x, multiply(full, k3, stage), stage)
            s4(t + dt, lap, rate_end, any_arrived)
            # x += dt/6 (((k1 + 2 k2) + 2 k3) + k4): the k rows summed in
            # order by one reduction started from -0.0, the identity that
            # keeps a sum of signed zeros bit for bit (add.reduce's default
            # start is +0.0)
            multiply(two, doubled, doubled)
            add_rows(ks, 0, None, stage, False, -0.0)
            add(x, multiply(sixth, stage, stage), x)  # in place: the views follow
            # speed limit, direction preserved
            saturate(v, limit, bound)
        except NumericError as exc:  # a saturation's, which knows no time
            raise NumericError(f"{exc}, in the step from t={t:.6g}") from None
        # arrival clamping: virtual time pinned at t_f, rate pinned to the
        # desired rate so the coordination metric closes out cleanly.
        # Python's max may skip a NaN numpy's would return; the NaN then
        # fails the finite check below all the same.
        if any_arrived or max(gamma.tolist()) >= t_f:
            np.logical_or(arrived, gamma >= t_f, arrived)
            gamma[arrived] = t_f
            gamma_dot[arrived] = rate_new
            any_arrived = True
        _check_state(x, n, t_new)
        return any_arrived

    return advance


def _times(lo: int, hi: int, dt: float) -> np.ndarray:
    """``k * dt`` for ``k = lo .. hi - 1``, the bits of ``np.arange(lo, hi)
    * dt``, in one array: the integers are exact as floats."""
    t = np.arange(lo, hi, dtype=float)
    t *= float(dt)
    return t


def _step_rates(
    profile: MissionRateProfile, k0: int, count: int, dt: float
) -> np.ndarray:
    """Desired mission rates of steps ``k0 .. k0 + count - 1`` and of the
    sample after the last, one column per step plus one, from one profile
    call: rows at ``k dt`` (the first RK4 stage, and the new sample of the
    step before), at ``k dt + dt/2`` (the middle stages) and at
    ``k dt + dt`` (the last stage), each time formed as ``step`` forms it."""
    t = _times(k0, k0 + count + 1, dt)
    return profile.rate(np.stack((t, t + 0.5 * dt, t + dt)))


def step(world: SimWorld, sigma: int, rates: tuple[np.ndarray, ...]) -> SimWorld:
    """Advance one step of ``dt`` through the world's bound ``advance``:
    RK4 on the coupled smooth dynamics with topology ``sigma`` held over
    the whole step, then the speed limit and arrival clamping.  ``rates``
    holds the desired mission rate at ``t``, at ``t + dt/2``, at ``t + dt``
    and at the new sample time (rows 0, 1 and 2 of a column of
    ``_step_rates`` and row 0 of the next), as 0-d arrays or floats."""
    t, lap = world.t, world.laplacians[sigma - 1]
    world.step_idx += 1
    world.t = world.step_idx * world.config.dt
    world.any_arrived = world.advance(t, world.t, lap, world.any_arrived, rates)
    return world


# ---------------------------------------------------------------------------
# metrics log and scenario driver
# ---------------------------------------------------------------------------


@dataclass
class MetricsLog:
    """Per-step record of one run: the state it integrated plus what only
    the loop knows.

    ``states`` has one row per logged sample ``k``, at time ``k * dt``:
    the state the loop integrates, ``[gamma | gamma_dot | p]``, ``5 n``
    floats, of which ``gamma``, ``gamma_dot`` and ``positions`` (``(rows,
    n, 3)``) are views; ``sigma`` is the schedule's integer topology index
    of each row into the float stack ``laplacians``.  The rest is derived
    from the rows, ``RATE_BLOCK`` at a time through ``_rows``, each row
    with the bits of a call on it alone.  On each read: ``t`` is ``k *
    dt``, and ``xi_norm`` and ``epf_norm`` are the coordination error at
    the desired rate of each row's time and each vehicle's path-error
    norm.  On the first read, then kept: the feasibility records
    ``violations``, and the windowed connectivity ``lambda_hat`` at the
    times ``lambda_hat_t`` (None but in bidirectional mode with ``n >=
    2``).  The log ends at arrival (``tau_f``) or at ``t_max``.  The
    switch log, arrival, observed dwell, final coordination error and
    communication amount are derived from ``sigma`` and the state."""

    config: ScenarioConfig
    states: np.ndarray
    sigma: np.ndarray
    laplacians: np.ndarray
    aux_v: np.ndarray | None
    tau_f: float | None
    certificate: SwitchingCertificate | None
    final_state: dict
    gamma: np.ndarray = field(init=False, repr=False)
    gamma_dot: np.ndarray = field(init=False, repr=False)
    positions: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n, states = self.config.n, self.states
        self.gamma, self.gamma_dot = states[:, :n], states[:, n : 2 * n]
        self.positions = states[:, 2 * n :].reshape(-1, n, 3)

    @property
    def t(self) -> np.ndarray:
        """Time of each row, ``k * dt``."""
        return _times(0, len(self.sigma), self.config.dt)

    @property
    def t_end(self) -> float:
        """Time of the last row, ``t[-1]``."""
        return (len(self.sigma) - 1) * float(self.config.dt)

    @property
    def xi_norm(self) -> np.ndarray:
        """Coordination error of each row; may be inf."""
        return np.concatenate([self._derived(lo)[1] for lo in self._blocks()])

    @property
    def epf_norm(self) -> np.ndarray:
        """Path-error norm of each vehicle at each row, ``(rows, n)``."""
        return np.concatenate([self._derived(lo)[2] for lo in self._blocks()])

    def _blocks(self) -> range:
        return range(0, len(self.sigma), RATE_BLOCK)

    def _rows(self, lo: int, hi: int | None = None) -> tuple[np.ndarray, ...]:
        """``(t, rate, gamma, gamma_dot, pe)`` of the rows ``lo`` up to
        ``hi`` (default: ``RATE_BLOCK`` rows): the times, the desired rate
        at each as a column, the logged virtual times and rates, and ``pe =
        [p_d - p | v_d]``, from one call of each kernel."""
        family, profile = self._kernels
        hi = min(len(self.sigma), lo + RATE_BLOCK if hi is None else hi)
        t, gamma = _times(lo, hi, self.config.dt), self.gamma[lo:hi]
        pe = family.pos_vel_all(gamma)
        np.subtract(pe[0], self.positions[lo:hi], pe[0])
        return t, profile.rate(t)[:, None], gamma, self.gamma_dot[lo:hi], pe

    @cached_property
    def _kernels(self) -> tuple[LaneSweepFamily, MissionRateProfile]:
        """The run's trajectory family and mission rate profile, built once
        for every block ``_rows`` reads."""
        return self.config.trajectory_family(), self.config.mission_profile()

    def _derived(self, lo: int, hi: int | None = None) -> tuple[np.ndarray, ...]:
        """``(t, xi_norm, epf_norm)`` of the rows ``_rows`` takes."""
        q = build_projection(self.config.n) if self.config.n >= 2 else None
        # the run's numeric policy: an overflow here is an inf in the column
        with np.errstate(over="ignore", invalid="ignore"):
            t, rate, gamma, gamma_dot, pe = self._rows(lo, hi)
            xi_norm = coordctrl.coordination_error(gamma, gamma_dot, q, rate)[2]
            return t, xi_norm, row_norms(pe[0])

    @cached_property
    def violations(self) -> list[Violation]:
        """The feasibility records of the rows; a vehicle whose virtual time
        reached ``t_f`` has arrived and is not checked."""
        cfg, found = self.config, []
        bounds = (cfg.gamma_dot_max, cfg.gamma_ddot_max)
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in self._blocks():
                t, rate, gamma, gamma_dot, pe = self._rows(lo)
                lap = self.laplacians[self.sigma[lo : lo + len(t)] - 1]
                alpha = coordctrl.path_error_feedback_all(pe, cfg.delta)
                accel = coordctrl.coordination_accel_matrix(
                    gamma, gamma_dot, lap, alpha, rate, cfg.a, -cfg.b
                )
                found += coordctrl.feasibility_check(gamma_dot, accel, bounds, t, gamma < cfg.t_f)
        return found

    @cached_property
    def _connectivity(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        """``(lambda_hat_t, lambda_hat)``: ``pe_connectivity`` of the rows."""
        cfg = self.config
        if cfg.mode == MODE_BIDIRECTIONAL and cfg.n >= 2:
            return pe_connectivity(self, cfg.pe_window, build_projection(cfg.n))
        return None, None

    lambda_hat_t = property(lambda self: self._connectivity[0])
    lambda_hat = property(lambda self: self._connectivity[1])

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
        last = (int(clamped.argmax()) if clamped.any() else len(self.sigma)) - 1
        return float(self._derived(last, last + 1)[1][0])

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
    ``[0, t_end]``, from the logged ``sigma``, with the time ``k dt`` taken
    only at the rows ``k`` where it changes; a switch at the last sample
    leaves a last segment of length 0."""
    sigma = log.sigma
    first = np.flatnonzero(np.concatenate(([True], sigma[1:] != sigma[:-1])))
    start = first * float(log.config.dt)
    return start, np.append(start[1:], log.t_end), sigma[first]


def run_scenario(config: ScenarioConfig) -> MetricsLog:
    """Run one scenario to arrival or ``t_max``; deterministic for a fixed
    config (the baseline schedule is seeded)."""
    world = init_world(config)
    n, dt = config.n, config.dt
    n_steps = int(round(config.t_max / dt))

    # one numeric policy for the whole run: an overflow or invalid operation
    # is not reported by numpy but by the finite checks of the schedule and
    # of the step (_check_state), which name the field and the time
    with np.errstate(over="ignore", invalid="ignore"):
        sigma, aux_v = _topology_schedule(config, world.cert, n_steps)
        states = np.empty((n_steps + 1, 5 * n))
        logged = world.x[: 5 * n]  # [gamma | gamma_dot | p], a view
        states[0] = logged
        for k in range(n_steps):
            j = k % RATE_BLOCK
            if j == 0:
                count = min(RATE_BLOCK, n_steps - k)
                r_now, r_mid, r_end = _step_rates(world.profile, k, count, dt)
                # a list index costs less than int(sigma[k])
                topologies = sigma[k : k + count].tolist()
            # each rate as a 0-d view: cheaper to operate on than a NumPy scalar
            step(
                world,
                topologies[j],
                (r_now[j, ...], r_mid[j, ...], r_end[j, ...], r_now[j + 1, ...]),
            )
            states[k + 1] = logged
            if world.all_arrived:
                break
    rows = world.step_idx + 1
    return MetricsLog(
        config=config,
        states=states[:rows],
        sigma=sigma[:rows],
        laplacians=world.laplacians,
        aux_v=aux_v[:rows] if aux_v is not None else None,
        tau_f=world.t if world.all_arrived else None,
        certificate=world.cert,
        final_state=dict(gamma=world.gamma, gamma_dot=world.gamma_dot, p=world.p, v=world.v),
    )


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
    duration = log.t_end
    if window > duration:
        warnings.warn(
            f"connectivity window {window} s exceeds run duration {duration} s; "
            "empty series"
        )
        return np.empty(0), np.empty(0)
    n = log.config.n
    reduced = reduced_laplacian(q, log.laplacians)
    projected = 0.5 * (reduced + reduced.transpose(0, 2, 1))

    seg_start, seg_end, seg_sigma = _segments(log)
    # cum[i]: the integral over the segments before segment i
    seg_integral = (seg_end - seg_start)[:, None, None] * projected[seg_sigma - 1]
    cum = np.concatenate((np.zeros((1, n - 1, n - 1)), np.cumsum(seg_integral, axis=0)))

    # the window ends: the samples k dt >= window - 1e-12, from the first
    # such k on; k dt is monotone in k, so counting up from an estimate
    # below that k finds it
    dt, start = float(log.config.dt), window - 1e-12
    k0 = max(0, math.ceil(start / dt) - 1)
    while k0 * dt < start:
        k0 += 1
    ts = _times(k0, len(log.sigma), dt)
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
    """The headline numbers of a run, as strict JSON: a float that is not
    finite (``final_xi_norm`` of a run whose coordination error overflows)
    is written as ``null``, with a warning naming the field."""
    summary = {
        "mode": log.config.mode,
        "n": log.config.n,
        "dt": log.config.dt,
        "t_end": log.t_end,
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
    for name, value in summary.items():
        if isinstance(value, float) and not math.isfinite(value):
            logger.warning("summary: %s is %r, written as null", name, value)
            summary[name] = None
    return summary


def write_outputs(log: MetricsLog, outdir: str) -> dict:
    """Write ``metrics.csv``, ``switches.csv`` and ``summary.json``; return
    the summary written.  ``metrics.csv`` has the columns ``t``, ``sigma``,
    ``xi_norm``, then ``n`` each of ``gamma``, ``gamma_dot`` and
    ``epf_norm``, then ``px, py, pz`` per vehicle; it is assembled
    ``RATE_BLOCK`` rows at a time and formatted a row at a time, one ``%``
    of the row template over the row's numbers, so that nothing larger
    than a row is allocated for its text."""
    os.makedirs(outdir, exist_ok=True)
    n, rows = log.config.n, len(log.sigma)
    cols = ["t", "sigma", "xi_norm"]
    for name in ("gamma", "gamma_dot", "epf_norm"):
        cols += [f"{name}_{i}" for i in range(1, n + 1)]
    cols += [f"p{c}_{i}" for i in range(1, n + 1) for c in "xyz"]
    template = ",".join(["%.12g", "%d"] + ["%.12g"] * (len(cols) - 2)) + "\n"
    buffer = np.empty((RATE_BLOCK, len(cols)))
    with open(os.path.join(outdir, "metrics.csv"), "w", encoding="utf-8") as f:
        f.write(",".join(cols) + "\n")
        for lo in log._blocks():
            block = buffer[: min(RATE_BLOCK, rows - lo)]
            block[:, 0], block[:, 2], block[:, 3 + 2 * n : 3 + 3 * n] = log._derived(lo)
            block[:, 1] = log.sigma[lo : lo + len(block)]
            block[:, 3 : 3 + 2 * n] = log.states[lo : lo + len(block), : 2 * n]
            block[:, 3 + 3 * n :] = log.states[lo : lo + len(block), 2 * n :]
            for row in block.tolist():
                f.write(template % tuple(row))
    with open(os.path.join(outdir, "switches.csv"), "w", encoding="utf-8") as f:
        f.write("time,old_sigma,new_sigma\n")
        for t, old, new in log.switch_log:
            f.write("%.12g,%d,%d\n" % (t, old, new))
    summary = summary_dict(log)
    with open(os.path.join(outdir, "summary.json"), "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True, allow_nan=False)
        f.write("\n")
    return summary


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
