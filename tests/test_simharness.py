import gc
import hashlib
import importlib.util
import json
import math
import re
import tracemalloc
import warnings
import weakref
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coordsim import coordctrl, simharness, switchlaw, vehicle
from coordsim.coordalg import build_projection
from coordsim.coordctrl import (
    MissionRateProfile,
    coordination_accel_matrix,
    coordination_error,
    path_error_feedback_all,
)
from coordsim.digraph import Digraph, laplacians
from coordsim.errors import ConfigError, NumericError
from coordsim.simharness import (
    RK4_HALF_DISC_RADIUS,
    RK4_STABILITY_LIMIT,
    GustEvent,
    _check_number,
    _check_state,
    _step_rates,
    certify,
    MetricsLog,
    ScenarioConfig,
    _segments,
    _topology_schedule,
    _uniform_topologies,
    default_directed_family,
    init_world,
    load_config,
    pe_connectivity,
    run_scenario,
    step,
    summary_dict,
    write_outputs,
)
from coordsim.switchlaw import schedule
from coordsim.vehicle import (
    LaneSweepFamily,
    PDGains,
    apply_disturbance,
    dot_bound,
    pf_control_all,
    row_norms,
)
from reference import default_bidirectional_config, mirror_family


# one value of each type a number can arrive as, and the types each check
# admits: an exact int or float passes without the ABC check, every other
# type (bool and numpy scalars included) is judged by its ABC
NUMBER_TYPES = {
    "int": 3,
    "float": 3.0,
    "bool": True,
    "np.int64": np.int64(3),
    "np.float64": np.float64(3.0),
    "Fraction": Fraction(3),
    "str": "3",
    "int beyond float": 2**1100,
}
ADMITTED = {
    "int": {"int", "np.int64", "int beyond float"},
    "float": {"int", "float", "np.int64", "np.float64", "Fraction"},
}


class TestNumberTypes:
    @pytest.mark.parametrize("kind", sorted(ADMITTED))
    @pytest.mark.parametrize("label", list(NUMBER_TYPES))
    def test_check_number(self, kind, label):
        value = NUMBER_TYPES[label]
        if label in ADMITTED[kind]:
            _check_number("x", value, kind, 0)
        else:
            with pytest.raises(ConfigError, match=r"^x(=\d+)? must be (of type|finite)"):
                _check_number("x", value, kind, 0)

    @pytest.mark.parametrize("label", list(NUMBER_TYPES))
    def test_digraph_from_dict(self, label):
        value = NUMBER_TYPES[label]
        as_n, as_label = {"n": value, "edges": []}, {"n": 3, "edges": [[value, 1]]}
        if label not in ADMITTED["int"]:
            for d in (as_n, as_label):
                with pytest.raises(ValueError, match="integer"):
                    Digraph.from_dict(d)
            return
        assert Digraph.from_dict(as_n).n == value
        if value <= 3:
            assert Digraph.from_dict(as_label).edges == {(3, 1)}
        else:
            with pytest.raises(ValueError, match="outside node range"):
                Digraph.from_dict(as_label)


class TestConfig:
    def test_roundtrip(self):
        cfg = ScenarioConfig()
        again = ScenarioConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ScenarioConfig.from_dict({"definitely_not_a_key": 1})

    def test_load_config_parse_error_has_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 5,\n  "mode": }')
        with pytest.raises(ConfigError, match=r"line 2 column"):
            load_config(str(path))

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "nope.json"))

    def test_validate_rejects_disconnected_family(self):
        cfg = ScenarioConfig(
            topology_family=[Digraph(5, [(1, 3)]), Digraph(5, [(2, 3)])]
        )
        with pytest.raises(ConfigError, match="jointly connected"):
            cfg.validate()

    def test_validate_rejects_bad_phi0(self):
        with pytest.raises(ConfigError, match="phi0"):
            ScenarioConfig(phi0=[1.0, 2.0]).validate()
        with pytest.raises(ConfigError, match="nonzero"):
            ScenarioConfig(phi0=[0.0, 0.0, 0.0, 0.0]).validate()

    def test_validate_rejects_asymmetric_baseline(self):
        cfg = default_bidirectional_config()
        cfg.topology_family = default_directed_family()
        with pytest.raises(ConfigError, match="not bidirectional"):
            cfg.validate()

    def test_dt_dwell_guard(self):
        cfg = ScenarioConfig(dt=0.05)
        with pytest.raises(ConfigError, match="dwell"):
            init_world(cfg)

    def test_b_dt_refused_from_the_rk4_stability_limit(self):
        # RK4's growth factor on x' = -b x is 1 at z = -b dt = -limit, and
        # inside (-1, 1) just above it
        def growth(z):
            return 1 + z + z * z / 2 + z**3 / 6 + z**4 / 24

        z = -RK4_STABILITY_LIMIT
        assert abs(growth(z) - 1) < 1e-14
        assert abs(growth(z * (1 - 1e-9))) < 1 < abs(growth(z * (1 + 1e-9)))
        for make in (ScenarioConfig, default_bidirectional_config):
            with pytest.raises(ConfigError, match=r"b=.* dt="):
                make(b=RK4_STABILITY_LIMIT, dt=1.0).validate()
        ScenarioConfig(b=math.nextafter(RK4_STABILITY_LIMIT, 0), dt=1.0).validate()

    def test_rk4_half_disc_radius(self):
        # the half-disc {|z| <= r, Re z <= 0} lies inside |R(z)| <= 1, and
        # the circle |z| = r touches the boundary at theta = 2.14229
        def growth(z):
            return np.abs(1 + z + z * z / 2 + z**3 / 6 + z**4 / 24)

        theta = np.linspace(np.pi / 2, 3 * np.pi / 2, 20001)
        radii = np.linspace(0.0, RK4_HALF_DISC_RADIUS, 201)[:, None]
        assert growth(radii * np.exp(1j * theta)).max() <= 1 + 1e-14
        touch = np.exp(1j * 2.142288561027110)
        assert abs(growth(RK4_HALF_DISC_RADIUS * touch) - 1) < 1e-14
        assert growth(RK4_HALF_DISC_RADIUS * (1 + 1e-8) * touch) > 1
        # the radius sits between the reach on the imaginary and real axes
        assert RK4_HALF_DISC_RADIUS < RK4_STABILITY_LIMIT < 2 * math.sqrt(2)

    @pytest.mark.parametrize(
        "a, dt, refused",
        [
            (1e308, 1e-3, True),  # a lambda overflows: non-finite modes
            (2.0**70, 1e-3, True),
            (1e4, 0.03, True),  # |s dt| about 5 near the imaginary axis
            (1e3, 0.03, False),  # past the screen, every mode inside
        ],
    )
    def test_coordination_modes_outside_rk4_region_refused(self, a, dt, refused):
        cfg = default_bidirectional_config(a=a, dt=dt)
        bound = (cfg.b + math.sqrt(2 * a * (cfg.n - 1))) * dt
        assert bound > RK4_HALF_DISC_RADIUS  # the eigensolve decides
        if refused:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ConfigError, match="^" + re.escape(f"a={float(a)!r} with dt={dt!r}: ")):
                    cfg.validate()
        else:
            cfg.validate()

    def test_huge_t_f_validates_quietly(self):
        # far on speed_spread's grid over [0, t_f], 1.8 t overflows where
        # exp(-0.6 t) is 0: the spread is inf * 0, a NaN, with no raw warning
        cfg = ScenarioConfig(t_f=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg.validate()

    def test_coordination_modes_match_a_direct_root_scan(self):
        # random digraphs (complex Laplacian spectra) and gains: validate
        # refuses exactly when np.roots finds a stable mode s with
        # |R(s dt)| > 1; draws within 1e-6 of the boundary are skipped
        rng = np.random.default_rng(20)
        decided = {True: 0, False: 0}
        for _ in range(120):
            n = int(rng.integers(2, 9))
            family = [random_digraph(n, rng) for _ in range(int(rng.integers(1, 4)))]
            family.append(Digraph(n, [(i, i + 1) for i in range(1, n)]))  # a spanning chain
            a, b = 10 ** rng.uniform(-1, 4), 10 ** rng.uniform(-1, 2.5)
            dt = float(rng.uniform(0.1, 1.0) * RK4_STABILITY_LIMIT / b)
            cfg = ScenarioConfig(
                n=n, topology_family=family, a=a, b=b, dt=dt, t_max=dt,
                mu_list=[0.1] * len(family), phi0=[1.0] * (n - 1),
            )
            growths = []
            for lam in np.linalg.eigvals(laplacians(family).astype(float)).ravel():
                for s in np.roots([1.0, b, a * lam]):
                    z = s * dt
                    if s.real < 0:
                        growths.append(abs(1 + z + z * z / 2 + z**3 / 6 + z**4 / 24))
            if min(abs(g - 1) for g in growths) < 1e-6:
                continue
            expected = max(growths) > 1
            try:
                cfg.validate()
                refused = False
            except ConfigError as exc:
                assert str(exc).startswith(f"a={a!r} with dt={dt!r}: ")
                refused = True
            assert refused == expected
            decided[expected] += 1
        assert min(decided.values()) >= 10

    def test_every_numeric_field_declares_a_range(self):
        numeric = [
            f
            for f in fields(ScenarioConfig)
            if f.type in ("int", "float") or isinstance(f.default, (int, float))
        ]
        assert {"n", "a", "dt", "t_max", "rng_seed", "gamma_ddot_max"} <= {
            f.name for f in numeric
        }
        assert [f.name for f in numeric if "range" not in f.metadata] == []
        ScenarioConfig().validate()
        default_bidirectional_config().validate()

    def test_gust_fields_validated(self):
        cfg = ScenarioConfig(gusts=[GustEvent(9, (0, 1, 0), (1.0, 2.0))])
        with pytest.raises(ConfigError, match="gust vehicle"):
            cfg.validate()

    def test_delta_below_speed_spread_warns(self):
        # the default family's desired speeds spread over 0.383
        with pytest.warns(UserWarning, match=r"delta=0.3 .* spread 0.383"):
            ScenarioConfig(delta=0.3).validate()

    @pytest.mark.parametrize("t_f", [1e4, 1e6])
    def test_long_mission_spread_warns(self, t_f):
        # the spread is taken at t = 0 and at the lateral rate's peak,
        # t = 5/3, whatever t_f: a grid over [0, t_f] would step over it
        with pytest.warns(UserWarning, match=r"delta=0.3 .* spread 0.383"):
            ScenarioConfig(delta=0.3, t_f=t_f).validate()
        fam = LaneSweepFamily(t_f=t_f)
        fine = fam.speed_spread(np.linspace(0.0, 20.0, 20001))
        grid = fam.speed_spread(np.linspace(0.0, t_f, 2000))
        assert fam.speed_spread(np.array([0.0, 5.0 / 3.0])) >= fine > 0.3832
        assert grid < 0.3

    def test_default_delta_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ScenarioConfig().validate()


def first_step(world):
    """``world`` after step 0, under the schedule's first topology."""
    cfg = world.config
    sigma = int(_topology_schedule(cfg, world.cert, 0)[0][0])
    rates = _step_rates(world.profile, 0, 1, cfg.dt)
    return step(world, sigma, (*rates[:, 0], rates[0, 1]))


def baseline_sigma(**overrides) -> np.ndarray:
    """The baseline's per-step topology index over its whole horizon."""
    cfg = replace(default_bidirectional_config(), **overrides)
    sigma, aux_v = _topology_schedule(cfg, None, int(round(cfg.t_max / cfg.dt)))
    assert aux_v is None
    return sigma


class TestSchedule:
    def test_single_graph_constant(self):
        g = mirror_family([Digraph(3, [(1, 2)])])
        sigma = baseline_sigma(n=3, topology_family=g, rng_seed=7, t_max=6.0)
        assert len(sigma) == 6001 and np.all(sigma == 1)

    def test_seed_reproducible(self):
        s1 = baseline_sigma(rng_seed=42, t_max=48.0)
        s2 = baseline_sigma(rng_seed=42, t_max=48.0)
        assert np.array_equal(s1, s2)

    def test_interval_count_and_uniformity(self):
        # one draw per 0.3 s period, read in the middle of each period
        draws = baseline_sigma(rng_seed=123, t_max=48.0)[150::300]
        assert len(draws) == 160
        counts = np.bincount(draws, minlength=4)[1:]
        # three-sigma band around the uniform expectation
        expected = 160 / 3
        sigma = np.sqrt(160 * (1 / 3) * (2 / 3))
        assert np.all(np.abs(counts - expected) <= 3 * sigma)

    def test_rejects_bad_period(self):
        # a period of 0 is out of range; one below dt would skip draws
        for period in (0.0, 5e-4):
            with pytest.raises(ConfigError, match="random_switch_period"):
                default_bidirectional_config(random_switch_period=period).validate()


SHIPPED = Path(__file__).resolve().parents[1] / "configs"


class TestUniformDraw:
    """The baseline's draw is numpy's ``default_rng(seed).integers(1, m +
    1)``, bit for bit, without ``numpy.random``."""

    @settings(max_examples=300)
    @given(
        seed=st.integers(0, 2**130),
        m=st.integers(1, 64) | st.sampled_from([2**31 + 1, 2**32 - 1]),
        size=st.integers(1, 2000),
    )
    # one to five 32-bit seed words; the widest m, and the m that Lemire's
    # method rejects most often (2**32 % m = 2**31 - 1: half the words)
    @example(seed=0, m=3, size=1)
    @example(seed=2**32 - 1, m=2**32 - 1, size=2000)
    @example(seed=7, m=2**31 + 1, size=2000)
    @example(seed=2**32, m=5, size=7)
    @example(seed=2**96 + 12345, m=64, size=300)
    @example(seed=2**128, m=2, size=2000)
    @example(seed=2**130, m=1, size=11)
    def test_matches_numpy(self, seed, m, size):
        want = np.random.default_rng(seed).integers(1, m + 1, size=size).tolist()
        assert _uniform_topologies(seed, m, size) == want

    def test_shipped_baseline_schedule(self):
        cfg = load_config(str(SHIPPED / "bidirectional.json"))
        n_steps = int(round(cfg.t_max / cfg.dt))
        sigma, _ = _topology_schedule(cfg, None, n_steps)
        # the schedule as it was drawn through numpy.random
        period = cfg.random_switch_period
        n_periods = max(1, math.ceil(cfg.t_max / period))
        periods = np.random.default_rng(cfg.rng_seed).integers(
            1, len(cfg.topology_family) + 1, size=n_periods
        )
        idx = (np.arange(n_steps + 1) * cfg.dt / period).astype(int)
        want = periods[np.minimum(idx, n_periods - 1)]
        assert sigma.dtype == want.dtype and np.array_equal(sigma, want)


def synthetic_log(family, sigma, t_end):
    """Minimal log carrying only what the integral metrics need: samples
    evenly spaced over ``[0, t_end]``, one per entry of ``sigma``, the
    topology index of each.  The samples are ``dt = t_end / (len(sigma) -
    1)`` apart, exactly 1.0 or 0.5 in every use, so ``t`` is the evenly
    spaced timeline the tests expect."""
    n = family[0].n
    states = np.zeros((len(sigma), 5 * n))
    states[:, n : 2 * n] = 1.0  # gamma_dot
    log = MetricsLog(
        config=ScenarioConfig(
            n=n,
            topology_family=family,
            mu_list=[0.1] * len(family),
            phi0=[1.0] * (n - 1),
            dt=t_end / (len(sigma) - 1),
        ),
        states=states,
        sigma=np.array(sigma),
        laplacians=laplacians(family).astype(float),
        aux_v=None,
        tau_f=None,
        certificate=None,
        final_state={},
    )
    assert np.array_equal(log.t, np.linspace(0.0, t_end, len(sigma)))
    return log


def same_log(first, second) -> bool:
    """Whether two logs hold the same bits: the stored state, schedule and
    auxiliary energy, every per-row attribute derived from them, the
    connectivity series, the feasibility records and the headline
    numbers."""
    for name in (
        "states", "sigma", "aux_v", "t", "xi_norm", "epf_norm", "gamma", "gamma_dot",
        "positions", "lambda_hat_t", "lambda_hat",
    ):
        a, b = getattr(first, name), getattr(second, name)
        if (a is None) != (b is None):
            return False
        if a is not None and not (
            a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        ):
            return False
    return all(
        getattr(first, name) == getattr(second, name)
        for name in (
            "t_end", "tau_f", "switch_log", "comm_amount", "final_xi_norm", "violations",
        )
    )


def comm_by_hand(log, t_end) -> float:
    """Edge count times segment length, summed over the segments the switch
    log bounds, up to ``t_end``."""
    family = log.config.topology_family
    times = [0.0] + [t for t, _, _ in log.switch_log] + [t_end]
    sigmas = [int(log.sigma[0])] + [new for _, _, new in log.switch_log]
    return sum(
        (t1 - t0) * len(family[s - 1].edges) for t0, t1, s in zip(times, times[1:], sigmas)
    )


class TestCommunicationAmount:
    def test_constant_two_edge_topology(self):
        log = synthetic_log([Digraph(3, [(1, 2), (2, 3)])], [1] * 11, 10.0)
        assert log.comm_amount == pytest.approx(20.0, abs=1e-12)

    def test_empty_topology(self):
        log = synthetic_log([Digraph(3)], [1] * 11, 10.0)
        assert log.comm_amount == 0.0

    def test_clipped_at_arrival(self, arrived_run):
        # the log ends at arrival, so the amount stops there too
        log = arrived_run
        assert log.arrived and log.t[-1] == log.tau_f < log.config.t_max
        assert len(log.switch_log) >= 1
        assert log.comm_amount == pytest.approx(comm_by_hand(log, log.tau_f), rel=1e-12)

    def test_switch_at_last_sample(self):
        # 1 edge for 4 s, 2 edges for 2 s, then a switch at the closing sample
        family = [Digraph(3, [(1, 2)]), Digraph(3, [(1, 2), (2, 3)]), Digraph(3)]
        log = synthetic_log(family, [1] * 4 + [2] * 2 + [3], 6.0)
        assert log.switch_log == [(4.0, 1, 2), (6.0, 2, 3)]
        assert log.comm_amount == 8.0


class TestPeConnectivity:
    def test_constant_complete_graph(self):
        n = 4
        edges = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        log = synthetic_log([Digraph(n, edges)], [1] * 11, 10.0)
        q = build_projection(n)
        ts, lam = pe_connectivity(log, 2.0, q)
        # complete graph: projected Laplacian is n * identity, so the
        # windowed average divided by n*T gives exactly 1
        assert len(ts) == (log.t >= 2.0).sum()
        assert np.allclose(lam, 1.0, atol=1e-10)

    def test_constant_empty_graph(self):
        log = synthetic_log([Digraph(4)], [1] * 11, 10.0)
        ts, lam = pe_connectivity(log, 2.0, build_projection(4))
        assert np.allclose(lam, 0.0, atol=1e-15)

    def test_window_longer_than_run(self):
        log = synthetic_log([Digraph(4)], [1] * 11, 5.0)
        with pytest.warns(UserWarning, match="window"):
            ts, lam = pe_connectivity(log, 10.0, build_projection(4))
        assert len(ts) == 0 and len(lam) == 0


@pytest.fixture(scope="module")
def arrived_run():
    """The gust-and-arrival pin: one switch, every vehicle arrives at
    2.506 s, before ``t_max``."""
    return run_scenario(PINNED_OUTPUTS["directed-gust-arrival"][0]())


class TestArrivedRun:
    def test_final_xi_norm_before_first_clamped_row(self, arrived_run):
        log = arrived_run
        clamped = np.flatnonzero((log.gamma == log.config.t_f).any(axis=1))
        first = clamped[0]
        assert 0 < first < len(log.t) - 1
        assert np.all(log.gamma[: first] < log.config.t_f)
        assert log.final_xi_norm == log.xi_norm[first - 1]
        assert log.xi_norm[-1] < log.final_xi_norm


def single_vehicle_config(**overrides) -> ScenarioConfig:
    """One vehicle on one empty topology: no coordination terms."""
    return ScenarioConfig(
        n=1,
        topology_family=[Digraph(1)],
        mu_list=[0.1],
        phi0=None,
        traj_offsets=[0.0],
        traj_angles=[0.0],
        **overrides,
    )


class TestDegenerateSingleVehicle:
    def test_rate_tracks_desired_rate(self):
        # one vehicle, no coordination terms: the rate follows the
        # first-order pull toward the desired rate, 1.2 - 0.2 exp(-b t).
        # A huge delta switches off the path-error feedback so the closed
        # form is exact up to integrator accuracy.
        cfg = single_vehicle_config(
            rate_base=1.2,
            rate_final=1.2,
            delta=1e9,
            dt=1e-3,
            t_max=2.0,
            initial_positions=[[0.0, 0.0, 2.0]],
            initial_velocities=[[1.0, 0.0, 0.0]],
        )
        log = run_scenario(cfg)
        b = cfg.b
        expected = 1.2 - 0.2 * np.exp(-b * log.t)
        assert np.abs(log.gamma_dot[:, 0] - expected).max() < 1e-6
        assert np.abs(log.xi_norm - np.abs(log.gamma_dot[:, 0] - 1.2)).max() < 1e-12


class TestStepMechanics:
    def test_equilibrium_advances_gamma_only(self):
        # straight center-lane trajectory at constant desired rate: the
        # coupled system sits at its equilibrium
        cfg = ScenarioConfig(
            n=1,
            topology_family=[Digraph(1)],
            mu_list=[0.1],
            phi0=None,
            rate_base=1.0,
            rate_final=1.0,
            traj_offsets=[0.0],
            traj_angles=[0.0],
            dt=1e-3,
            t_max=1.0,
            initial_positions=[[0.0, 0.0, 2.0]],
            initial_velocities=[[1.0, 0.0, 0.0]],
        )
        world = first_step(init_world(cfg))
        assert abs(world.gamma[0] - cfg.dt) < 1e-15
        assert abs(world.gamma_dot[0] - 1.0) < 1e-15
        assert np.allclose(world.p[0], [cfg.dt, 0.0, 2.0], atol=1e-12)
        assert np.allclose(world.v[0], [1.0, 0.0, 0.0], atol=1e-12)

    def test_switches_only_at_step_boundaries(self):
        cfg = ScenarioConfig(t_max=15.0)
        log = run_scenario(cfg)
        assert len(log.switch_log) >= 2
        for t, _, _ in log.switch_log:
            steps = t / cfg.dt
            assert abs(steps - round(steps)) < 1e-9

    def test_aux_energy_monotone_in_coupled_run(self):
        cfg = ScenarioConfig(t_max=10.0)
        log = run_scenario(cfg)
        v = log.aux_v
        assert v is not None
        assert np.all(np.diff(v) <= 1e-9 * v[0])

    def test_at_most_family_max_edges_active(self):
        cfg = ScenarioConfig(t_max=10.0)
        log = run_scenario(cfg)
        max_edges = max(len(d.edges) for d in cfg.topology_family)
        assert max_edges == 2
        for sig in np.unique(log.sigma).astype(int):
            active = cfg.topology_family[sig - 1]
            assert len(active.edges) <= max_edges

    def test_speed_limit_clamps_keeping_direction(self):
        # vehicle 3 starts at speed 7, above the limit of 5; a second run
        # with the limit out of reach gives the unclamped step
        v0 = [[0.0, 0.0, 0.0]] * 5
        v0[2] = [3.0, -6.0, 2.0]
        clamped = init_world(ScenarioConfig(initial_velocities=v0))
        free = init_world(
            ScenarioConfig(initial_velocities=v0, speed_limit=1e12)
        )
        first_step(clamped)
        first_step(free)
        limit = clamped.config.speed_limit
        speeds = np.linalg.norm(clamped.v, axis=1)
        assert speeds[2] == pytest.approx(limit, rel=0, abs=1e-12)
        direction = free.v[2] / np.linalg.norm(free.v[2])
        assert np.allclose(clamped.v[2] / speeds[2], direction, rtol=0, atol=1e-12)
        others = [0, 1, 3, 4]
        assert np.all(speeds[others] < limit)
        assert np.array_equal(clamped.v[others], free.v[others])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_blowup_reported(self):
        cfg = default_bidirectional_config(
            dt=0.2, t_max=50.0, kp=1e6, kd=0.0001, accel_limit=1e12, speed_limit=1e12
        )
        with pytest.raises(NumericError, match="non-finite"):
            run_scenario(cfg)


class TestWorldHoldsState:
    # init_world builds the state alone; each step evaluates its own four
    # RK4 stages under the topology and desired rates it is handed
    @pytest.mark.parametrize(
        "make_config",
        [ScenarioConfig, default_bidirectional_config],
        ids=["directed", "baseline"],
    )
    def test_four_stages_per_step_and_none_in_set_up(self, make_config, monkeypatch):
        # every stage forms its PD command through vehicle.pf_control_all,
        # looked up at each call
        stage_calls, rate_calls = [], []
        pf = vehicle.pf_control_all
        monkeypatch.setattr(vehicle, "pf_control_all", lambda *a: stage_calls.append(a) or pf(*a))

        def forbidden(*args, **kwargs):
            raise AssertionError("init_world evaluated the topology schedule")

        cfg = make_config(t_max=0.037, pe_window=0.02)
        rate = MissionRateProfile.rate
        with monkeypatch.context() as m:
            for name in ("schedule", "advance", "_argmin_quadratic"):
                m.setattr(switchlaw, name, forbidden)
            m.setattr(simharness, "_topology_schedule", forbidden)
            # admission's own check of the profile is not set-up work; it
            # returns its samples at 0 and t_max, both before the ramp here
            m.setattr(MissionRateProfile, "validate", lambda self, t_max: np.full(2, float(self.base)))
            m.setattr(
                MissionRateProfile,
                "rate",
                lambda self, t: rate_calls.append(t) or rate(self, t),
            )
            init_world(cfg)
        assert stage_calls == [] and rate_calls == []
        log = run_scenario(cfg)
        assert len(log.t) == 38 and len(stage_calls) == 4 * 37

    @pytest.mark.parametrize(
        "make_config",
        [ScenarioConfig, default_bidirectional_config],
        ids=["directed", "baseline"],
    )
    def test_world_freed_by_reference_count(self, make_config, monkeypatch):
        # a reference cycle through the world would keep every finished
        # run's state alive until the cyclic collector runs
        worlds = []

        def init_and_watch(config):
            world = init_world(config)
            worlds.append(weakref.ref(world))
            return world

        monkeypatch.setattr(simharness, "init_world", init_and_watch)
        gusts = [GustEvent(2, (0.0, 1.0, 0.0), (0.01, 0.03))]
        cfg = make_config(t_max=0.05, pe_window=0.02, gusts=gusts)
        gc.collect()
        gc.disable()
        try:
            log = run_scenario(cfg)
            assert len(worlds) == 1 and worlds[0]() is None
        finally:
            gc.enable()
        assert len(log.t) == 51


def scaled_to_limit(rows, limit):
    """Every row of ``rows`` times ``limit / max(norm, limit)``: the
    saturation without its test for a factor of 1.0."""
    return rows * (limit / np.maximum(row_norms(rows), limit))[..., None]


def allocating_step(world, sigma, rates):
    """``(x, arrived)`` after one step from ``world``, by an RK4 step built
    from the kernels' allocating calls: every stage state, kernel result,
    derivative and sum a fresh array, as before the workspace.  The PD
    command and the speed limit take the unconditional factor of
    ``scaled_to_limit``, so the saturation's test is checked too."""
    cfg, n = world.config, world.config.n
    dt, t0, lap = cfg.dt, world.t, world.laplacians[sigma - 1]
    arrived = world.arrived.copy()

    def rhs(t, x, rate):
        gamma, gamma_dot = x[:n], x[n : 2 * n]
        p, v = x[2 * n : 5 * n].reshape(n, 3), x[5 * n :].reshape(n, 3)
        target_pos, target_vel = world.fam.pos_vel_all(gamma)
        e = target_pos - p
        alpha = path_error_feedback_all(np.stack((e, target_vel)), cfg.delta)
        gamma_ddot = coordination_accel_matrix(gamma, gamma_dot, lap, alpha, rate, cfg.a, -cfg.b)
        if world.any_arrived:
            gamma_dot = np.where(arrived, 0.0, gamma_dot)
            gamma_ddot[arrived] = 0.0
        u = scaled_to_limit(
            cfg.kp * e + cfg.kd * (target_vel * gamma_dot[:, None] - v), cfg.accel_limit
        )
        for row, gvec, window in world.gusts:
            u[row] = apply_disturbance(u[row], t, gvec, window)
        return np.concatenate((gamma_dot, gamma_ddot, v.ravel(), u.ravel()))

    half, full, two, sixth = 0.5 * dt, dt, 2.0, dt / 6.0
    rate_now, rate_mid, rate_end, rate_new = rates
    x = world.x.copy()
    k1 = rhs(t0, x, rate_now)
    k2 = rhs(t0 + 0.5 * dt, x + half * k1, rate_mid)
    k3 = rhs(t0 + 0.5 * dt, x + half * k2, rate_mid)
    k4 = rhs(t0 + dt, x + full * k3, rate_end)
    x = x + sixth * (k1 + two * k2 + two * k3 + k4)
    x[5 * n :] = scaled_to_limit(x[5 * n :].reshape(n, 3), cfg.speed_limit).ravel()
    gamma = x[:n]
    if world.any_arrived or gamma.max() >= cfg.t_f:
        arrived |= gamma >= cfg.t_f
        gamma[arrived] = cfg.t_f
        x[n : 2 * n][arrived] = rate_new
    return x, arrived


def random_digraph(n, rng):
    """A random directed graph on ``n`` nodes with a one-way edge."""
    edges = {(int(i), int(j)) for i, j in rng.integers(1, n + 1, (2 * n, 2)) if i != j}
    edges.add((1, 2))
    edges.discard((2, 1))
    return Digraph(n, edges)


class TestStepWorkspace:
    # step forms every stage in the world's workspace; it must give the
    # bytes of the step built from allocating calls, and each kernel given
    # out the bytes of its call without it
    @staticmethod
    def workspace_config(n):
        chain = [(i, i + 1) for i in range(1, n)]
        return ScenarioConfig(
            n=n,
            mode=simharness.MODE_BIDIRECTIONAL,
            topology_family=mirror_family([Digraph(n, chain)]),
            mu_list=[0.2],
            phi0=[1.0] * (n - 1),
            t_f=20.0,
            # at t = 0.7 the first gust is inside its window, the second not
            gusts=[
                GustEvent(1, (0.0, 30.0, -5.0), (0.5, 1.0)),
                GustEvent(n, (4.0, 0.0, 0.0), (2.0, 3.0)),
            ],
        )

    @classmethod
    def check_steps(cls, n, arrivals, directed):
        cfg = cls.workspace_config(n)
        rng = np.random.default_rng(100 * n + arrivals)
        fast = far = 0
        for trial in range(5):
            world = init_world(cfg)
            if directed:  # a one-way Laplacian in place of the chain's
                world.laplacians = laplacians([random_digraph(n, rng)]).astype(float)
            world.step_idx, world.t = 700, 0.7
            world.gamma[:] = rng.uniform(0.0, cfg.t_f, n)
            world.gamma_dot[:] = rng.uniform(0.5, 1.5, n)
            if arrivals:
                world.arrived[:] = rng.random(n) < 0.4
                world.arrived[0] = True
                world.any_arrived = True
                world.gamma[world.arrived] = cfg.t_f
            # path errors and speeds of 0.01 to 10 times their scale: some
            # commands and some speeds saturate
            scale = rng.choice([0.01, 1.0, 10.0], (2, n, 1))
            world.p[:] = world.fam.pos_vel_all(world.gamma)[0] + rng.normal(size=(n, 3)) * scale[0]
            world.v[:] = rng.normal(size=(n, 3)) * 3.0 * scale[1]
            fast += (row_norms(world.v) > cfg.speed_limit).any()
            errors = world.fam.pos_vel_all(world.gamma)[0] - world.p
            far += (cfg.kp * row_norms(errors) > 2 * cfg.accel_limit).any()
            rates = tuple(np.array(r) for r in rng.uniform(0.9, 1.2, 4))
            x, arrived = allocating_step(world, 1, rates)
            step(world, 1, rates)
            assert world.x.tobytes() == x.tobytes()
            assert np.array_equal(world.arrived, arrived)
            assert world.any_arrived == arrived.any() and world.t == 701 * cfg.dt
        assert fast and far  # the speed limit and the command's limit both scaled

    @pytest.mark.parametrize("arrivals", [False, True], ids=["flying", "arrived"])
    @pytest.mark.parametrize("n", [*range(2, 11), 16, 40])
    def test_step_bytes_equal_the_allocating_step(self, n, arrivals):
        self.check_steps(n, arrivals, directed=False)

    @pytest.mark.parametrize("arrivals", [False, True], ids=["flying", "arrived"])
    @pytest.mark.parametrize("n", [2, 3, 5, 10, 16, 40])
    def test_directed_laplacian_step_bytes_equal_the_allocating_step(self, n, arrivals):
        self.check_steps(n, arrivals, directed=True)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 16, 40])
    def test_boundary_speeds_and_commands_keep_the_allocating_bytes(self, n):
        # one vehicle fast and far off its target, the others slow and close:
        # limits chosen so that its speed after the step, or its command in
        # the first stage, lands at limit (1 - 2**-52), limit and
        # limit (1 + 2**-52), and so that the dot of all the speeds, or of
        # all the first commands, lands within a few ulps of dot_bound
        cfg = self.workspace_config(n)
        rng = np.random.default_rng(200 + n)
        world = init_world(cfg)
        world.step_idx, world.t = 700, 0.7
        world.gamma[:] = rng.uniform(0.0, cfg.t_f, n)
        world.gamma_dot[:] = rng.uniform(0.5, 1.5, n)
        target_pos, target_vel = world.fam.pos_vel_all(world.gamma)
        world.p[:] = target_pos + rng.normal(size=(n, 3)) * 0.01
        world.v[:] = rng.normal(size=(n, 3)) * 0.1
        fast = int(rng.integers(n))
        for rows, size in ((world.v, 4.0), (world.p, -3.0)):
            direction = rng.normal(size=3)
            rows[fast] += direction * (size / math.hypot(*direction))
        state = world.x.copy()
        rates = tuple(np.array(r) for r in rng.uniform(0.9, 1.2, 4))
        e = target_pos - world.p
        command = cfg.kp * e + cfg.kd * (target_vel * world.gamma_dot[:, None] - world.v)
        # the step's velocities before the speed limit, which does not bind
        free = init_world(replace(cfg, speed_limit=1e100))
        free.step_idx, free.t, free.x[:] = 700, 0.7, state
        speeds = allocating_step(free, 1, rates)[0][5 * n :].reshape(n, 3)

        def limits_at_the_edges(rows):
            # the fast row's norm one ulp under, at and over the limit, then
            # the two limits on either side of the smallest one whose
            # dot_bound admits the dot of all the rows, found by bisection
            norm, dot = float(row_norms(rows)[fast]), float(np.vdot(rows, rows))
            lo, hi = math.sqrt(dot) * (1 - 2.0**-30), math.sqrt(dot) * (1 + 2.0**-30)
            assert dot_bound(lo) < dot <= dot_bound(hi)
            while math.nextafter(lo, hi) < hi:
                mid = 0.5 * (lo + hi)
                lo, hi = (lo, mid) if dot <= dot_bound(mid) else (mid, hi)
            edge = [math.nextafter(lo, 0.0), lo, hi, math.nextafter(hi, math.inf)]
            return [norm * (1 + 2.0**-52), norm, norm * (1 - 2.0**-52), *edge]

        decided = set()
        for field, rows in (("speed_limit", speeds), ("accel_limit", command)):
            for limit in limits_at_the_edges(rows):
                world = init_world(replace(cfg, **{field: limit}))
                world.step_idx, world.t, world.x[:] = 700, 0.7, state
                decided.add(bool(np.vdot(rows, rows) <= dot_bound(limit)))
                x, arrived = allocating_step(world, 1, rates)
                step(world, 1, rates)
                assert world.x.tobytes() == x.tobytes()
                assert np.array_equal(world.arrived, arrived)
        assert decided == {False, True}  # the one dot both passes and fails

    def test_combination_is_the_chained_sum_with_signed_zeros(self, monkeypatch):
        # stage derivatives and a state full of signed zeros: the step's one
        # reduction must give x + dt/6 (((k1 + 2 k2) + 2 k3) + k4) bit for bit
        rng = np.random.default_rng(7)
        cfg = default_bidirectional_config()
        size = 8 * cfg.n
        ks = rng.normal(size=(4, size)) * 0.1
        ks[rng.random(ks.shape) < 0.5] = -0.0
        ks[:, :3] = -0.0  # entries whose four derivatives are all -0.0

        def fake_stages(world, sources, rows):
            # each stage writes its row of ks into its own derivative row
            def bind(row, k):
                def stage(t, lap, rate, any_arrived):
                    row[...] = k

                return stage

            return tuple(map(bind, rows, ks))

        monkeypatch.setattr(simharness, "_bind_stages", fake_stages)
        world = init_world(cfg)
        world.x[rng.random(size) < 0.5] = -0.0
        world.x[:3] = -0.0
        two, sixth = 2.0, cfg.dt / 6.0
        total = np.add(np.add(np.add(ks[0], two * ks[1]), two * ks[2]), ks[3])
        expected = world.x + sixth * total
        step(world, 1, (1.0, 1.0, 1.0, 1.0))
        assert world.x.tobytes() == expected.tobytes()
        assert np.signbit(world.x[:3]).all()

    @pytest.mark.parametrize("stack", [(), (7,)], ids=["sample", "stack"])
    def test_pf_control_given_out_returns_it_with_the_same_bytes(self, stack):
        # the stage writes the command into its derivative row: given out,
        # pf_control_all returns it with the bytes of its allocating call
        rng = np.random.default_rng(len(stack))
        n = 6
        e = rng.normal(size=stack + (n, 3)) * rng.choice([0.01, 10.0], stack + (n, 1))
        v, target = rng.normal(size=(2,) + stack + (n, 3)) * 3.0
        # pf_control_all scales the stack it is given in place: a fresh copy
        # for each call
        pd, gains = np.stack((target - v, e)), PDGains(4.0, 4.0, 10.0, n)
        u = pf_control_all(pd.copy(), gains)
        out = np.full_like(u, np.nan)  # nothing is read from out
        assert pf_control_all(pd.copy(), gains, out) is out
        assert out.tobytes() == u.tobytes()
        assert (row_norms(u) == 10.0).any()  # some commands saturate
        # the command may overwrite either row of the stack it is formed from
        for row in (0, 1):
            scratch = pd.copy()
            into = scratch[row]
            assert pf_control_all(scratch, gains, into) is into
            assert into.tobytes() == u.tobytes()


def test_finite_check_raises_no_warning_on_an_overflowing_square():
    # a finite state whose sum of squares overflows passes, quietly, and a
    # non-finite entry is named
    world = init_world(ScenarioConfig())
    world.p[0, 0] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _check_state(world.x, 5, world.t)
        world.v[1, 2] = np.inf
        with pytest.raises(NumericError, match=r"non-finite velocity\[\(1, 2\)\] at t=0"):
            _check_state(world.x, 5, world.t)


@pytest.mark.parametrize(
    "name, entry, index",
    [("gamma", (2,), 2), ("gamma_dot", (0,), 5), ("position", (3, 1), 20), ("velocity", (4, 0), 37)],
    ids=["gamma", "gamma_dot", "position", "velocity"],
)
def test_finite_check_names_the_field_and_entry(name, entry, index):
    # the packed state of 5 vehicles is split into its fields only when the
    # one dot fails; the first non-finite entry is named in its field
    x = np.ones(40)
    x[index] = np.nan
    x[-1] = np.inf  # a later entry, in the velocity field
    with pytest.raises(NumericError, match=re.escape(f"non-finite {name}[{entry}] at t=0.5")):
        _check_state(x, 5, 0.5)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestFiniteCheck:
    def test_huge_finite_state_accepted(self):
        world = init_world(ScenarioConfig())
        world.p[0, 0] = 1e200  # its square overflows
        _check_state(world.x, 5, world.t)

    @pytest.mark.parametrize("huge", [False, True])
    def test_nan_in_phi_named(self, huge, default_cert):
        phi0 = np.array([0.9, 1.7, 1.1, 0.1])
        if huge:
            phi0[0] = 1e200  # its square overflows
        phi0[2] = np.nan
        with pytest.raises(NumericError, match=r"non-finite phi\[\(2,\)\] at t=0"):
            schedule(phi0, default_cert, 0.75, 1.82, 1e-3, 10)

    def test_overflowing_aux_energy_raised(self, default_cert):
        # every entry finite, but phi0^T P phi0 overflows; the law is
        # scale-invariant, so without the check it would quietly switch on
        # garbage thresholds
        phi0 = 1e155 * np.array([0.9, 1.7, 1.1, 0.1])
        with pytest.raises(NumericError, match=r"phi\^T P phi overflows at t=0"):
            schedule(phi0, default_cert, 0.75, 1.82, 1e-3, 10)

    def test_overflowing_phi0_refused(self):
        phi0 = [1e155 * x for x in (0.9, 1.7, 1.1, 0.1)]
        with pytest.raises(ConfigError, match="phi0="):
            certify(ScenarioConfig(phi0=phi0))
        # 1e150 x: every quadratic form stays finite
        certify(ScenarioConfig(phi0=[1e150 * x for x in (0.9, 1.7, 1.1, 0.1)]))


def assert_violations(found, expected):
    """``found`` against ``(vehicle, time, bound, value)`` tuples."""
    assert len(found) == len(expected)
    for v, (vehicle, time, bound, value) in zip(found, expected):
        assert (v.vehicle, v.bound) == (vehicle, bound)
        assert v.time == pytest.approx(time, rel=0, abs=1e-12)
        assert v.value == pytest.approx(value, rel=1e-12)


class TestClosedLoopFeasibility:
    """Violation records of short directed runs under tightened envelopes,
    pinned: count, first three records, record order and the closing row
    (t = t_max)."""

    @staticmethod
    def violations(**bounds):
        return run_scenario(ScenarioConfig(t_max=3.0, **bounds)).violations

    def test_accel_bound(self):
        found = self.violations(gamma_ddot_max=0.3)
        assert len(found) == 1468
        assert {v.bound for v in found} == {"accel"}
        assert_violations(found[:3], [(i, 0.0, "accel", -10 / 11) for i in (1, 2, 3)])
        assert_violations(found[-1:], [(3, 0.443, "accel", -0.301142091565085)])

    def test_rate_bound(self):
        found = self.violations(gamma_dot_max=0.05)
        assert len(found) == 9726
        assert {v.bound for v in found} == {"rate"}
        assert_violations(
            found[:3],
            [
                (3, 0.058, "rate", 0.9493546017644188),
                (3, 0.059, "rate", 0.9485190166159188),
                (2, 0.060, "rate", 0.9493709563044488),
            ],
        )
        assert_violations(found[-1:], [(2, 3.0, "rate", 0.932607105251233)])

    def test_both_bounds_ordered_by_time_vehicle_rate_first(self):
        found = self.violations(gamma_dot_max=0.05, gamma_ddot_max=0.3)
        assert len(found) == 9726 + 1468
        assert found == sorted(found, key=lambda v: (v.time, v.vehicle, v.bound != "rate"))
        assert_violations(found[:3], [(i, 0.0, "accel", -10 / 11) for i in (1, 2, 3)])
        assert_violations(
            [v for v in found if v.time == pytest.approx(0.058, abs=1e-12)],
            [
                (1, 0.058, "accel", -0.6787565970042968),
                (2, 0.058, "accel", -0.7841185357701266),
                (3, 0.058, "rate", 0.9493546017644188),
                (3, 0.058, "accel", -0.83624037453808),
                (4, 0.058, "accel", -0.7841185357701266),
                (5, 0.058, "accel", -0.6786879221143632),
            ],
        )


def violation_digest(violations) -> str:
    """sha256 over ``vehicle, time.hex(), bound, value.hex()`` of every
    record, in order."""
    h = hashlib.sha256()
    for v in violations:
        h.update(f"{v.vehicle},{v.time.hex()},{v.bound},{v.value.hex()}\n".encode())
    return h.hexdigest()


# (config, count, digest) of full violation lists, recorded before the
# feasibility check moved out of the RK4 loop: both bounds on the directed
# mission, both bounds across the ramp while vehicles arrive (the arrival
# mask), and the acceleration bound on the baseline.  The digests hold for
# the platform they were recorded on (x86-64, numpy 2.4).
PINNED_VIOLATIONS = {
    "directed-tight-both": (
        lambda: ScenarioConfig(t_max=3.0, gamma_dot_max=0.05, gamma_ddot_max=0.3),
        11194,
        "13967eccc542e5f7b1253200cb78fe3b4d2c7e001434d6cd2fb82fd60c47262d",
    ),
    "ramp-arrival-tight": (
        lambda: ScenarioConfig(
            t_max=4.0, t_f=3.0, ramp_start=1.0, ramp_duration=2.5, rate_final=1.2,
            gamma_dot_max=0.1, gamma_ddot_max=0.3,
        ),
        8086,
        "fdd0ada6fe576f2c3c7fdecf7a0e82eda429a8742244ccd9a61ca754f8207a89",
    ),
    "baseline-tight": (
        lambda: default_bidirectional_config(t_max=4.0, gamma_ddot_max=0.3),
        1714,
        "9ef0c817a20a668bad9b53c4ef969e2eed410164b37a4497a717d4801340ea85",
    ),
}


class TestViolationPin:
    @pytest.mark.parametrize("name", sorted(PINNED_VIOLATIONS))
    def test_violations_match_pinned_digest(self, name):
        make_config, count, digest = PINNED_VIOLATIONS[name]
        log = run_scenario(make_config())
        assert len(log.violations) == count
        assert violation_digest(log.violations) == digest
        if name == "ramp-arrival-tight":
            # arrived vehicles leave the check: no record after a vehicle's
            # virtual time reached t_f
            arrival = {
                i + 1: float(log.t[np.argmax(log.gamma[:, i] >= 3.0)]) for i in range(5)
            }
            assert log.tau_f is not None
            assert all(v.time < arrival[v.vehicle] for v in log.violations)


class TestDerivedOnFirstRead:
    """The feasibility records and the connectivity series are derived from
    the logged rows on their first read and kept: the run checks nothing
    itself, a second read runs no pass, and a log rebuilt from the stored
    fields alone gives the same bits."""

    STORED = (
        "config", "states", "sigma", "laplacians", "aux_v", "tau_f", "certificate",
        "final_state",
    )

    @pytest.mark.parametrize(
        "make_config",
        [
            lambda: ScenarioConfig(t_max=3.0, gamma_ddot_max=0.3),
            lambda: default_bidirectional_config(t_max=5.0, gamma_ddot_max=0.3),
        ],
        ids=["directed", "baseline"],
    )
    def test_one_pass_on_first_read_from_stored_fields(self, make_config, monkeypatch):
        calls = {"feasibility_check": 0, "pe_connectivity": 0}

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(coordctrl, "feasibility_check")
        count(simharness, "pe_connectivity")
        cfg = make_config()
        log = run_scenario(cfg)
        assert calls == {"feasibility_check": 0, "pe_connectivity": 0}

        blocks = math.ceil(len(log.sigma) / simharness.RATE_BLOCK)
        violations = log.violations
        assert violations and log.violations is violations
        assert calls == {"feasibility_check": blocks, "pe_connectivity": 0}
        baseline = cfg.mode == simharness.MODE_BIDIRECTIONAL
        series = [getattr(log, name) for name in ("lambda_hat_t", "lambda_hat") * 2]
        assert calls == {"feasibility_check": blocks, "pe_connectivity": int(baseline)}
        if baseline:
            assert len(series[1]) > 0 and series[2] is series[0] and series[3] is series[1]
        else:
            assert series == [None] * 4

        rebuilt = MetricsLog(**{name: getattr(log, name) for name in self.STORED})
        assert rebuilt.violations == violations
        assert same_log(rebuilt, log)
        assert calls == {"feasibility_check": 2 * blocks, "pe_connectivity": 2 * int(baseline)}

    def test_kernels_built_once_per_log(self, monkeypatch, tmp_path):
        # every block of every pass reads the same trajectory family and
        # mission profile; the log builds each once
        log = run_scenario(ScenarioConfig(t_max=3.0))
        calls = {"trajectory_family": 0, "mission_profile": 0}
        for name in calls:
            original = getattr(ScenarioConfig, name)

            def counted(cfg, _name=name, _original=original):
                calls[_name] += 1
                return _original(cfg)

            monkeypatch.setattr(ScenarioConfig, name, counted)
        assert len(log.xi_norm) == len(log.epf_norm) == len(log.sigma) > simharness.RATE_BLOCK
        write_outputs(log, str(tmp_path))
        assert calls == {"trajectory_family": 1, "mission_profile": 1}


class TestOutputs:
    def test_files_and_determinism(self, tmp_path):
        cfg = ScenarioConfig(t_max=1.0)
        log = run_scenario(cfg)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        write_outputs(log, str(out1))
        write_outputs(run_scenario(cfg), str(out2))
        for name in ("metrics.csv", "switches.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        header = (out1 / "metrics.csv").read_text().splitlines()[0]
        cols = header.split(",")
        assert cols[:3] == ["t", "sigma", "xi_norm"]
        assert "gamma_1" in cols and "gamma_dot_5" in cols
        assert "epf_norm_3" in cols and "pz_5" in cols
        rows = len((out1 / "metrics.csv").read_text().splitlines()) - 1
        assert rows == len(log.t)

    def test_summary_fields(self, tmp_path):
        cfg = ScenarioConfig(t_max=1.0)
        log = run_scenario(cfg)
        s = summary_dict(log)
        for key in (
            "comm_amount",
            "tau_f",
            "eta_observed",
            "lambda_hat_min",
            "final_xi_norm",
            "arrived",
        ):
            assert key in s
        assert s["tau_f"] is None and s["arrived"] is False
        write_outputs(log, str(tmp_path))
        parsed = json.loads((tmp_path / "summary.json").read_text())
        assert parsed["comm_amount"] == pytest.approx(log.comm_amount)

    def test_comm_equals_edge_count_times_segment_length(self):
        cfg = ScenarioConfig(t_max=5.0)
        log = run_scenario(cfg)
        start, end, sigma = _segments(log)
        # segments tile [0, t_end] and change topology exactly at the switches
        assert start[0] == 0.0 and end[-1] == log.t[-1]
        assert np.array_equal(start[1:], end[:-1])
        assert start[1:].tolist() == [t for t, _, _ in log.switch_log]
        assert sigma[1:].tolist() == [new for _, _, new in log.switch_log]
        assert len(start) >= 3 and log.tau_f is None
        assert log.comm_amount == pytest.approx(comm_by_hand(log, log.t[-1]), rel=1e-12)

    @pytest.mark.parametrize(
        "make_config",
        [
            lambda: ScenarioConfig(t_max=3.0),
            lambda: default_bidirectional_config(t_max=4.0),
        ],
        ids=["directed", "baseline"],
    )
    def test_runs_are_deterministic(self, make_config):
        first, second = run_scenario(make_config()), run_scenario(make_config())
        assert same_log(first, second)
        assert first.switch_log == second.switch_log and first.switch_log


def seven_vehicle_config() -> ScenarioConfig:
    """Seven vehicles on four two-edge topologies whose union is the chain
    1 -> 2 -> ... -> 7; vehicles 1, 3 and 5 start above ``speed_limit``
    (5), two gusts overlap, and every vehicle arrives."""
    family = [
        Digraph(7, [(2, 1), (5, 4)]),
        Digraph(7, [(3, 2), (6, 5)]),
        Digraph(7, [(4, 3), (7, 6)]),
        Digraph(7, [(3, 1), (7, 5)]),
    ]
    still = [0.0, 0.0, 0.0]
    return ScenarioConfig(
        n=7,
        topology_family=family,
        mu_list=[0.06] * 4,
        phi0=[0.9, -1.3, 0.4, 1.6, -0.7, 1.1],
        t_max=4.0,
        t_f=3.0,
        initial_velocities=[
            [6.0, 0.0, 0.0], still, [0.0, -7.5, 0.0], still,
            [3.0, 4.5, 0.5], still, still,
        ],
        gusts=[
            GustEvent(3, (0.0, 2.0, -1.0), (0.2, 0.9)),
            GustEvent(6, (-1.5, 0.0, 0.5), (0.6, 1.4)),
        ],
    )


# sha256 of the output files of four short runs that cover gust, arrival,
# speed-limit and baseline rows, a fleet of seven, and arrivals while the
# mission rate ramps: any changed byte of metrics.csv, switches.csv or
# summary.json fails here.  The digests hold
# for the platform they were recorded on (x86-64, numpy 2.4).
PINNED_OUTPUTS = {
    "directed-gust-arrival": (
        lambda: ScenarioConfig(
            t_max=3.0, t_f=2.0, gusts=[GustEvent(2, (0.0, 1.5, 0.0), (0.5, 1.0))]
        ),
        {
            "metrics.csv": "df6b208fd518410f260b68af72e9b17e9af272bc038a1b1a1ba8be0091041553",
            "switches.csv": "26e9f6e7ec5130836d83e308ef43514b878b6e545d26b77bb1c47e5b5f375c2b",
            "summary.json": "0410d810efaaa94acd2a02b41703793a1b8f6e3d6d6cd0b1fd5ee8ef0d3ae2eb",
        },
    ),
    "baseline": (
        lambda: default_bidirectional_config(t_max=4.0),
        {
            "metrics.csv": "9b5f3df594e8e02f0a1fe4016a06f14a80e877fae6dca31eeefb8981f1a876c6",
            "switches.csv": "2f11f01a81c53f8a5017a599b900aaa73db9b02411dedee0d9612b1be65b805b",
            "summary.json": "2e0328745f7449ac41b1c6d1578d5760879fafae2dc337ff2927a36b7e512762",
        },
    ),
    "directed-ramp-arrival": (
        # the ramp runs from 1 s to 3.5 s; the vehicles arrive at 2.944 s to
        # 3.409 s, so their rates are clamped to in-ramp values
        lambda: ScenarioConfig(
            t_max=4.0, t_f=3.0, ramp_start=1.0, ramp_duration=2.5, rate_final=1.2
        ),
        {
            "metrics.csv": "1340e0609268e5d538cea0cc4cfb8fe1959046db179425ae59f2e05bd29c6d1f",
            "switches.csv": "cba265c204dd7efffa08225fde6a3c40fd592b8671bf3f88394a31cd32457acb",
            "summary.json": "2b76223981b9102c1391ac0f7ea2e4e2ba633821818927a02f5993b73324b969",
        },
    ),
    "seven-vehicle-clamp": (
        seven_vehicle_config,
        {
            "metrics.csv": "6fc272294d03f61ccb6ceea03cb5d110522eb35297921aa02e1954c2cd65af23",
            "switches.csv": "121bac74f0546701ab8269732f384bc5609e473ae469a2a847054f72be8255f9",
            "summary.json": "a16b9ab1df765008a4ef17b4e99c73fa1f75f1f61b37cae98273d25e5f3287d1",
        },
    ),
}


class TestByteLevelPin:
    @pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
    def test_outputs_match_pinned_digests(self, name, tmp_path):
        make_config, digests = PINNED_OUTPUTS[name]
        log = run_scenario(make_config())
        if name == "baseline":
            assert len(log.switch_log) == 8 and len(log.lambda_hat) > 0
        elif name == "seven-vehicle-clamp":
            assert log.tau_f == pytest.approx(3.636) and len(log.switch_log) == 2
        elif name == "directed-ramp-arrival":
            assert log.tau_f == pytest.approx(3.409) and len(log.switch_log) == 2
            clamped = log.gamma_dot[log.gamma == 3.0]
            assert 1.0 < clamped.min() and clamped.max() < 1.2
        else:  # gust active, one switch, every vehicle arrives
            assert log.tau_f == pytest.approx(2.506) and len(log.switch_log) == 1
        write_outputs(log, str(tmp_path))
        observed = {
            f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in digests
        }
        assert observed == digests


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory traced during the call,
    above what was traced when it began."""
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    out = fn(*args)
    return out, tracemalloc.get_traced_memory()[1] - before


class TestLogMemory:
    # a run keeps the state it integrates, 5 n floats a logged step, and
    # the schedule's sigma and aux_v, 16 bytes a step; t, the float sigma
    # column, xi_norm and epf_norm are derived where they are read, and
    # metrics.csv is assembled and formatted RATE_BLOCK rows at a time.
    # SLACK covers what does not grow with the run: the world and its
    # workspace, the switching law's stacked RK4 powers, and the blocks of
    # the post-pass (about 300 kB together)
    SLACK = 450_000

    def test_traced_peaks_of_run_and_write(self, tmp_path):
        cfg = ScenarioConfig(t_max=5.0)
        n, n_steps = cfg.n, int(round(cfg.t_max / cfg.dt))
        run_scenario(replace(cfg, t_max=0.01))  # caches filled on first use
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            log, run_peak = traced_peak(run_scenario, cfg)
            _, write_peak = traced_peak(write_outputs, log, str(tmp_path))
        finally:
            if not tracing:
                tracemalloc.stop()
        rows = len(log.sigma)
        assert rows == n_steps + 1 and log.tau_f is None
        assert run_peak <= rows * 5 * n * 8 + 16 * (n_steps + 1) + self.SLACK
        # a block's numbers as Python floats, and the text of one row at a
        # time, are about 6 blocks of float64; the whole table would be 20
        block = simharness.RATE_BLOCK * (6 * n + 3) * 8
        assert write_peak <= 10 * block


class TestRateBlocks:
    def test_block_size_moves_no_bit(self, monkeypatch):
        # the ramp-crossing pin under a tight rate envelope, its rates
        # evaluated 7 steps at a time instead of RATE_BLOCK: blocks then
        # start at every offset inside the ramp and end before arrival
        cfg = ScenarioConfig(
            t_max=4.0, t_f=3.0, ramp_start=1.0, ramp_duration=2.5, rate_final=1.2,
            gamma_dot_max=0.15,
        )
        ref = run_scenario(cfg)
        monkeypatch.setattr(simharness, "RATE_BLOCK", 7)
        log = run_scenario(cfg)
        assert ref.violations and log.tau_f == ref.tau_f
        assert same_log(log, ref)
        assert log.violations == ref.violations

    def test_step_rates_at_the_loops_times(self):
        profile = ScenarioConfig(ramp_start=1.0, ramp_duration=2.5).mission_profile()
        dt = 1e-3
        rates = _step_rates(profile, 990, 40, dt)
        assert rates.shape == (3, 41)
        for j, k in enumerate(range(990, 1030)):
            t = k * dt
            assert [*rates[:, j], rates[0, j + 1]] == [
                profile.rate(t),
                profile.rate(t + 0.5 * dt),
                profile.rate(t + dt),
                profile.rate((k + 1) * dt),
            ]


class TestXiNormColumn:
    # the xi_norm and epf_norm columns are filled RATE_BLOCK rows at a time
    # after the loop; each row must hold the bits of coordination_error, and
    # of the path-error norm, on that row alone, at the desired rate of its
    # sample time
    @pytest.mark.parametrize(
        "make_config",
        [
            PINNED_OUTPUTS["directed-gust-arrival"][0],
            PINNED_OUTPUTS["directed-ramp-arrival"][0],
            lambda: single_vehicle_config(t_max=0.6, rate_base=1.2, rate_final=1.2),
        ],
        ids=["gust-arrival", "ramp-arrival", "single-vehicle"],
    )
    def test_rows_equal_coordination_error(self, make_config):
        cfg = make_config()
        log = run_scenario(cfg)
        rows = len(log.t)
        assert rows > simharness.RATE_BLOCK + 1  # rows 255 and 256 straddle a block edge
        q = log.certificate.q if log.certificate is not None else None
        rates = cfg.mission_profile().rate(np.arange(rows) * cfg.dt)
        by_row = [
            coordination_error(log.gamma[k], log.gamma_dot[k], q, rates[k])[2]
            for k in range(rows)
        ]
        assert np.array_equal(log.xi_norm, by_row)
        fam = cfg.trajectory_family()
        epf = [
            row_norms(fam.pos_vel_all(log.gamma[k])[0] - log.positions[k]) for k in range(rows)
        ]
        assert log.epf_norm.tobytes() == np.array(epf).tobytes()
        if cfg.n == 1:
            assert q is None and np.array_equal(log.xi_norm, np.abs(log.gamma_dot[:, 0] - 1.2))


class TestBaselineRun:
    def test_short_baseline_has_lambda_hat(self):
        cfg = default_bidirectional_config(t_max=8.0)
        log = run_scenario(cfg)
        assert log.lambda_hat is not None
        assert len(log.lambda_hat) == (log.t >= cfg.pe_window).sum()
        # schedule changes every 0.3 s: comm rate is 4 edges
        assert log.comm_amount == pytest.approx(4.0 * 8.0, abs=1e-9)

    def test_seed_changes_schedule(self):
        cfg1 = default_bidirectional_config(t_max=6.0, rng_seed=1)
        cfg2 = default_bidirectional_config(t_max=6.0, rng_seed=2)
        log1, log2 = run_scenario(cfg1), run_scenario(cfg2)
        assert not np.array_equal(log1.sigma, log2.sigma)


def _bench_sweep():
    """``bench/sweep.py``, the generator of the ``family-sweep`` scenarios,
    loaded by path under a private name."""
    path = Path(__file__).resolve().parents[1] / "bench" / "sweep.py"
    spec = importlib.util.spec_from_file_location("_coordsim_bench_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def setup_pin_configs() -> list[ScenarioConfig]:
    """Both shipped configs and the 40 ``family-sweep`` scenarios of each of
    the seeds 0, 1 and 2 (n 3-10, m 2-6, gusts)."""
    raws = [
        json.loads((SHIPPED / name).read_text())
        for name in ("directed.json", "bidirectional.json")
    ]
    sweep = _bench_sweep()
    raws += [raw for seed in range(3) for raw in sweep.generate(seed, 40, 50)]
    return [ScenarioConfig.from_dict(raw) for raw in raws]


class TestSetupPin:
    # sha256 over what the loop starts from: init_world's Laplacian stack,
    # the schedule's first topology index, the first RK4 stage of step 0,
    # and the desired-speed spread that validate checks delta against, for
    # every config of setup_pin_configs().  Recorded before the set-up
    # dropped its duplicate work, when init_world computed the index and the
    # stage itself; the digest holds for the platform it was recorded on
    # (x86-64, numpy 2.4).
    DIGEST = "4bf236b5a053129ae25275b879d3388e4d4999d2fb83cb53efd66aed91334c1f"

    def test_setup_digest(self):
        sha = hashlib.sha256()
        configs = setup_pin_configs()
        assert len(configs) == 122
        for cfg in configs:
            world = init_world(cfg)
            sigma = int(_topology_schedule(cfg, world.cert, 0)[0][0])
            lap = world.laplacians[sigma - 1]
            rate = _step_rates(world.profile, 0, 1, cfg.dt)[0, 0]
            k1 = np.empty_like(world.x)
            (stage,) = simharness._bind_stages(world, (simharness._split(world.x, cfg.n),), k1[None])
            stage(0.0, lap, rate, world.any_arrived)
            fam = cfg.trajectory_family()
            spread = fam.speed_spread(np.linspace(0.0, fam.t_f, 2000))
            sha.update(world.laplacians.tobytes())
            sha.update(np.int64(sigma).tobytes())
            sha.update(k1.tobytes())
            sha.update(np.float64(spread).tobytes())
        assert sha.hexdigest() == self.DIGEST
