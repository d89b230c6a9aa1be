import hashlib
import json
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from coordsim import simharness
from coordsim.coordalg import build_projection
from coordsim.coordctrl import coordination_error
from coordsim.digraph import Digraph
from coordsim.errors import ConfigError, NumericError
from coordsim.simharness import (
    GustEvent,
    _check_finite,
    _step_rates,
    certify,
    MetricsLog,
    ScenarioConfig,
    _segments,
    _topology_schedule,
    default_bidirectional_config,
    default_directed_config,
    default_directed_family,
    init_world,
    load_config,
    mirror_family,
    pe_connectivity,
    run_scenario,
    step,
    summary_dict,
    write_outputs,
)
from coordsim.switchlaw import schedule
from coordsim.vehicle import row_norms


class TestConfig:
    def test_roundtrip(self):
        cfg = default_directed_config()
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
        cfg = default_directed_config(
            topology_family=[Digraph(5, [(1, 3)]), Digraph(5, [(2, 3)])]
        )
        with pytest.raises(ConfigError, match="jointly connected"):
            cfg.validate()

    def test_validate_rejects_bad_phi0(self):
        with pytest.raises(ConfigError, match="phi0"):
            default_directed_config(phi0=[1.0, 2.0]).validate()
        with pytest.raises(ConfigError, match="nonzero"):
            default_directed_config(phi0=[0.0, 0.0, 0.0, 0.0]).validate()

    def test_validate_rejects_asymmetric_baseline(self):
        cfg = default_bidirectional_config()
        cfg.topology_family = default_directed_family()
        with pytest.raises(ConfigError, match="not bidirectional"):
            cfg.validate()

    def test_dt_dwell_guard(self):
        cfg = default_directed_config(dt=0.05)
        with pytest.raises(ConfigError, match="dwell"):
            init_world(cfg)

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
        default_directed_config().validate()
        default_bidirectional_config().validate()

    def test_gust_fields_validated(self):
        cfg = default_directed_config(gusts=[GustEvent(9, (0, 1, 0), (1.0, 2.0))])
        with pytest.raises(ConfigError, match="gust vehicle"):
            cfg.validate()

    def test_delta_below_speed_spread_warns(self):
        # the default family's desired speeds spread over 0.383
        with pytest.warns(UserWarning, match=r"delta=0.3 .* spread 0.383"):
            default_directed_config(delta=0.3).validate()

    def test_default_delta_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            default_directed_config().validate()


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


def synthetic_log(family, sigma, t_end):
    """Minimal log carrying only what the integral metrics need: samples
    evenly spaced over ``[0, t_end]``, one per entry of ``sigma``, the
    topology index of each."""
    n = family[0].n
    table = np.zeros((len(sigma), 3 + 6 * n))
    table[:, 0] = np.linspace(0.0, t_end, len(sigma))
    table[:, 1] = sigma
    table[:, 3 + n : 3 + 2 * n] = 1.0  # gamma_dot
    return MetricsLog(
        config=ScenarioConfig(
            n=n, topology_family=family, mu_list=[0.1] * len(family), phi0=[1.0] * (n - 1)
        ),
        table=table,
        aux_v=None,
        tau_f=None,
        violations=[],
        certificate=None,
        final_state={},
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
        world = init_world(cfg)
        step(world, cfg.dt, world.sigma, tuple(_step_rates(world.profile, 0, 1, cfg.dt)[:, 0]))
        assert abs(world.gamma[0] - cfg.dt) < 1e-15
        assert abs(world.gamma_dot[0] - 1.0) < 1e-15
        assert np.allclose(world.p[0], [cfg.dt, 0.0, 2.0], atol=1e-12)
        assert np.allclose(world.v[0], [1.0, 0.0, 0.0], atol=1e-12)

    def test_switches_only_at_step_boundaries(self):
        cfg = default_directed_config(t_max=15.0)
        log = run_scenario(cfg)
        assert len(log.switch_log) >= 2
        for t, _, _ in log.switch_log:
            steps = t / cfg.dt
            assert abs(steps - round(steps)) < 1e-9

    def test_aux_energy_monotone_in_coupled_run(self):
        cfg = default_directed_config(t_max=10.0)
        log = run_scenario(cfg)
        v = log.aux_v
        assert v is not None
        assert np.all(np.diff(v) <= 1e-9 * v[0])

    def test_at_most_family_max_edges_active(self):
        cfg = default_directed_config(t_max=10.0)
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
        clamped = init_world(default_directed_config(initial_velocities=v0))
        free = init_world(
            default_directed_config(initial_velocities=v0, speed_limit=1e12)
        )
        dt = clamped.config.dt
        rates = tuple(_step_rates(clamped.profile, 0, 1, dt)[:, 0])
        step(clamped, dt, clamped.sigma, rates)
        step(free, dt, free.sigma, rates)
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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestFiniteCheck:
    def test_huge_finite_state_accepted(self):
        world = init_world(default_directed_config())
        world.p[0, 0] = 1e200  # its square overflows
        _check_finite(world)

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
            certify(default_directed_config(phi0=phi0))
        # 1e150 x: every quadratic form stays finite
        certify(default_directed_config(phi0=[1e150 * x for x in (0.9, 1.7, 1.1, 0.1)]))


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
        return run_scenario(default_directed_config(t_max=3.0, **bounds)).violations

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
        lambda: default_directed_config(t_max=3.0, gamma_dot_max=0.05, gamma_ddot_max=0.3),
        11194,
        "13967eccc542e5f7b1253200cb78fe3b4d2c7e001434d6cd2fb82fd60c47262d",
    ),
    "ramp-arrival-tight": (
        lambda: default_directed_config(
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


class TestOutputs:
    def test_files_and_determinism(self, tmp_path):
        cfg = default_directed_config(t_max=1.0)
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
        cfg = default_directed_config(t_max=1.0)
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
        cfg = default_directed_config(t_max=5.0)
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
            lambda: default_directed_config(t_max=3.0),
            lambda: default_bidirectional_config(t_max=4.0),
        ],
        ids=["directed", "baseline"],
    )
    def test_runs_are_deterministic(self, make_config):
        first, second = run_scenario(make_config()), run_scenario(make_config())
        assert np.array_equal(first.table, second.table)
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
        lambda: default_directed_config(
            t_max=3.0, t_f=2.0, gusts=[GustEvent(2, (0.0, 1.5, 0.0), (0.5, 1.0))]
        ),
        {
            "metrics.csv": "df6b208fd518410f260b68af72e9b17e9af272bc038a1b1a1ba8be0091041553",
            "switches.csv": "26e9f6e7ec5130836d83e308ef43514b878b6e545d26b77bb1c47e5b5f375c2b",
            "summary.json": "7f9156b4420fa3ac47efe4012111aca3e55323978c5ff3b75149f70b3c782cda",
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
        lambda: default_directed_config(
            t_max=4.0, t_f=3.0, ramp_start=1.0, ramp_duration=2.5, rate_final=1.2
        ),
        {
            "metrics.csv": "1340e0609268e5d538cea0cc4cfb8fe1959046db179425ae59f2e05bd29c6d1f",
            "switches.csv": "cba265c204dd7efffa08225fde6a3c40fd592b8671bf3f88394a31cd32457acb",
            "summary.json": "07157be176537389f404fbe4b9b566cce8db8db8d089891c3feaaac2c27916ce",
        },
    ),
    "seven-vehicle-clamp": (
        seven_vehicle_config,
        {
            "metrics.csv": "6fc272294d03f61ccb6ceea03cb5d110522eb35297921aa02e1954c2cd65af23",
            "switches.csv": "121bac74f0546701ab8269732f384bc5609e473ae469a2a847054f72be8255f9",
            "summary.json": "d60ddb4d560d11650d5da0c1d7f58fec66d56b20d66dc43181dcba4becd17c2c",
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


class TestRateBlocks:
    def test_block_size_moves_no_bit(self, monkeypatch):
        # the ramp-crossing pin under a tight rate envelope, its rates
        # evaluated 7 steps at a time instead of RATE_BLOCK: blocks then
        # start at every offset inside the ramp and end before arrival
        cfg = default_directed_config(
            t_max=4.0, t_f=3.0, ramp_start=1.0, ramp_duration=2.5, rate_final=1.2,
            gamma_dot_max=0.15,
        )
        ref = run_scenario(cfg)
        monkeypatch.setattr(simharness, "RATE_BLOCK", 7)
        log = run_scenario(cfg)
        assert ref.violations and log.tau_f == ref.tau_f
        assert np.array_equal(log.table, ref.table)
        assert np.array_equal(log.aux_v, ref.aux_v)
        assert log.violations == ref.violations

    def test_step_rates_at_the_loops_times(self):
        profile = default_directed_config(ramp_start=1.0, ramp_duration=2.5).mission_profile()
        dt = 1e-3
        rates = _step_rates(profile, 990, 40, dt)
        assert rates.shape == (3, 40)
        for j, k in enumerate(range(990, 1030)):
            t = k * dt
            assert rates[:, j].tolist() == [
                profile.rate(t + 0.5 * dt), profile.rate(t + dt), profile.rate((k + 1) * dt)
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
