import numpy as np
import pytest

from coordsim.coordalg import build_projection
from coordsim.coordctrl import (
    MissionRateProfile,
    constant_profile,
    coordination_accel_matrix,
    coordination_error,
    feasibility_check,
    path_error_feedback_all,
    smoothstep_profile,
)
from coordsim.digraph import Digraph, laplacian
from coordsim.errors import ConfigError


class TestState:
    def test_initialization(self):
        # canonical start of every run: gamma = 0, rate = 1 for every vehicle
        from coordsim.simharness import default_directed_config, init_world

        world = init_world(default_directed_config(t_max=1.0))
        assert np.array_equal(world.gamma, np.zeros(5))
        assert np.array_equal(world.gamma_dot, np.ones(5))


class TestPathErrorFeedback:
    def test_zero_error(self):
        v = np.array([[1.0, 2, 3], [0.0, 0, 0]])
        assert np.array_equal(path_error_feedback_all(v, np.zeros((2, 3)), 1.2), [0.0, 0.0])

    def test_direct_substitution(self):
        value = path_error_feedback_all(np.array([[1.0, 0, 0]]), np.array([[1.0, 0, 0]]), 1.0)
        assert abs(value[0] - 0.5) < 1e-15

    def test_bounded_by_error_norm(self):
        rng = np.random.default_rng(21)
        v = rng.normal(size=(200, 3)) * rng.uniform(0, 10, size=(200, 1))
        e = rng.normal(size=(200, 3)) * rng.uniform(0, 10, size=(200, 1))
        for delta in rng.uniform(0.01, 5, size=10):
            alpha = path_error_feedback_all(v, e, delta)
            assert np.all(np.abs(alpha) <= np.linalg.norm(e, axis=1) + 1e-12)

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError, match="delta"):
            path_error_feedback_all(np.ones((2, 3)), np.ones((2, 3)), 0.0)

    def test_vectorized_matches_scalar(self):
        # every row is the single-vehicle law: a batch of one gives the
        # same value as that vehicle's row in the batch
        rng = np.random.default_rng(22)
        v = rng.normal(size=(6, 3))
        e = rng.normal(size=(6, 3))
        batch = path_error_feedback_all(v, e, 1.2)
        singles = [path_error_feedback_all(v[i : i + 1], e[i : i + 1], 1.2)[0] for i in range(6)]
        assert np.allclose(batch, singles, atol=1e-14)
        by_hand = [v[i] @ e[i] / (np.linalg.norm(v[i]) + 1.2) for i in range(6)]
        assert np.allclose(batch, by_hand, atol=1e-14)


def loop_form_accel(gamma, gamma_dot, topology, e_pf, traj_vel, gamma_dot_d, a, b, delta):
    """Per-vehicle in-neighbor sums, the decentralized reference form."""
    n = topology.n
    out = np.empty(n)
    for i in range(1, n + 1):
        consensus = sum(gamma[i - 1] - gamma[j - 1] for j in topology.in_neighbors(i))
        v, e = traj_vel[i - 1], e_pf[i - 1]
        alpha = float(v @ e) / (float(np.linalg.norm(v)) + delta)
        out[i - 1] = -b * (gamma_dot[i - 1] - gamma_dot_d) - a * consensus - alpha
    return out


def accel(topology, gamma, gamma_dot, e_pf, traj_vel, gamma_dot_d, a, b, delta):
    """The coordination law as the simulation evaluates it."""
    alpha = path_error_feedback_all(traj_vel, e_pf, delta)
    lap = laplacian(topology).astype(float)
    return coordination_accel_matrix(gamma, gamma_dot, lap, alpha, gamma_dot_d, a, b)


class TestCoordinationAccel:
    def test_equilibrium(self):
        topo = Digraph(3, [(1, 2), (2, 3)])
        out = accel(
            topo, np.full(3, 2.0), np.ones(3), np.zeros((3, 3)), np.ones((3, 3)),
            1.0, 1.0, 2.0, 1.2,
        )
        assert np.allclose(out, 0.0, atol=1e-15)

    def test_single_edge(self):
        topo = Digraph(2, [(2, 1)])
        out = accel(
            topo, np.array([1.0, 0.0]), np.ones(2), np.zeros((2, 3)), np.ones((2, 3)),
            1.0, 1.0, 2.0, 1.2,
        )
        assert np.allclose(out, [0.0, 1.0], atol=1e-15)

    def test_matches_loop_form(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            edges = {
                (i, j)
                for i in range(1, n + 1)
                for j in range(1, n + 1)
                if i != j and rng.random() < 0.4
            }
            topo = Digraph(n, edges)
            gamma, gamma_dot = rng.normal(size=n), rng.normal(size=n) + 1
            e = rng.normal(size=(n, 3))
            tv = rng.normal(size=(n, 3))
            a, b, delta = rng.uniform(0.1, 2), rng.uniform(0.1, 3), rng.uniform(0.5, 2)
            fast = accel(topo, gamma, gamma_dot, e, tv, 1.05, a, b, delta)
            slow = loop_form_accel(gamma, gamma_dot, topo, e, tv, 1.05, a, b, delta)
            assert np.allclose(fast, slow, atol=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(24)
        topo = Digraph(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
        gamma, gamma_dot = rng.normal(size=4), rng.normal(size=4) + 1
        e = rng.normal(size=(4, 3))
        tv = rng.normal(size=(4, 3))
        a1 = accel(topo, gamma, gamma_dot, e, tv, 1.0, 0.75, 1.82, 1.2)
        a2 = accel(topo, gamma + 17.3, gamma_dot, e, tv, 1.0, 0.75, 1.82, 1.2)
        assert np.allclose(a1, a2, atol=1e-10)

    def test_dimension_mismatch(self):
        lap = laplacian(Digraph(3)).astype(float)
        with pytest.raises(ValueError):
            coordination_accel_matrix(np.zeros(2), np.ones(2), lap, np.zeros(2), 1.0, 1.0, 1.0)


class TestCoordinationError:
    def test_consensus_is_zero(self):
        q = build_projection(4)
        xi1, xi2, norm = coordination_error(np.full(4, 3.7), np.full(4, 1.1), q, 1.1)
        assert np.allclose(xi1, 0, atol=1e-12)
        assert np.allclose(xi2, 0, atol=1e-12)
        assert norm <= 1e-12

    def test_n2_hand_value(self):
        q = build_projection(2)
        xi1, _, _ = coordination_error(np.array([1.0, 0.0]), np.ones(2), q, 1.0)
        assert abs(xi1[0] - 1.0 / np.sqrt(2.0)) < 1e-14

    def test_norm_invariant_under_common_shift(self):
        rng = np.random.default_rng(25)
        q = build_projection(5)
        gamma, gamma_dot = rng.normal(size=5), rng.normal(size=5)
        _, _, n1 = coordination_error(gamma, gamma_dot, q, 1.0)
        _, _, n2 = coordination_error(gamma + 123.0, gamma_dot, q, 1.0)
        assert abs(n1 - n2) < 1e-9

    def test_norm_is_stacked(self):
        q = build_projection(3)
        xi1, xi2, norm = coordination_error(
            np.array([1.0, 0.0, 0.0]), np.array([1.2, 1.0, 1.0]), q, 1.0
        )
        assert abs(norm - np.sqrt(xi1 @ xi1 + xi2 @ xi2)) < 1e-15

    def test_single_vehicle_is_rate_error(self):
        xi1, xi2, norm = coordination_error(np.array([7.0]), np.array([1.3]), None, 1.0)
        assert xi1.shape == (0,)
        assert norm == abs(1.3 - 1.0) == abs(xi2[0])


class TestFeasibility:
    def test_feasible(self):
        assert feasibility_check(np.ones(3), np.zeros(3), (0.5, 5.0)) == []

    def test_boundary_rate_violation(self):
        found = feasibility_check(np.array([1.0, 1.5 + 1e-9, 1.0]), np.zeros(3), (0.5, 5.0), t=2.0)
        assert len(found) == 1
        assert found[0].vehicle == 2
        assert found[0].bound == "rate"
        assert found[0].time == 2.0

    def test_accel_violation(self):
        found = feasibility_check(np.ones(2), np.array([0.0, -5.1]), (0.5, 5.0))
        assert [v.bound for v in found] == ["accel"]

    def test_order_by_vehicle_rate_first(self):
        found = feasibility_check(
            np.array([1.6, 1.0, 0.4]), np.array([0.0, 5.5, -6.0]), (0.5, 5.0), t=1.0
        )
        assert [(v.vehicle, v.bound, v.value) for v in found] == [
            (1, "rate", 1.6),
            (2, "accel", 5.5),
            (3, "rate", 0.4),
            (3, "accel", -6.0),
        ]

    def test_active_mask(self):
        active = np.array([True, False])
        assert feasibility_check(np.array([1.0, 99.0]), np.zeros(2), (0.5, 5.0), active=active) == []

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            feasibility_check(np.ones(2), np.zeros(2), (1.5, 5.0))
        with pytest.raises(ValueError):
            feasibility_check(np.ones(2), np.zeros(2), (0.5, 0.0))


class TestCoordinationContraction:
    def test_decay_under_switching_without_vehicles(self, default_cert):
        # pure coordination loop: zero path errors, constant desired rate,
        # topology driven by the switching law; the disagreement must
        # contract at least at half the guaranteed rate floor and reach
        # the 1e-3 band
        from coordsim.coordalg import convergence_rate_bound
        from coordsim.simharness import default_directed_family
        from coordsim.switchlaw import advance, init_switching

        a, b, dt = 0.75, 1.82, 2e-3
        family = default_directed_family()
        laps = [laplacian(d).astype(float) for d in family]
        cert = default_cert
        q = build_projection(5)
        sw = init_switching(np.array([0.9, 1.7, 1.1, 0.1]), cert, a, b)
        gamma = np.array([0.5, 0.1, -0.2, 0.3, -0.4])
        gamma_dot = np.ones(5)
        # zero path errors: no path-error feedback
        zero_alpha = path_error_feedback_all(np.ones((5, 3)), np.zeros((5, 3)), 1.2)
        ts, xis = [], []
        for k in range(int(60.0 / dt)):
            t = k * dt
            ts.append(t)
            xis.append(coordination_error(gamma, gamma_dot, q, 1.0)[2])
            lap = laps[sw.sigma - 1]

            def law(g, gd):
                return coordination_accel_matrix(g, gd, lap, zero_alpha, 1.0, a, b)

            k1g, k1d = gamma_dot, law(gamma, gamma_dot)
            k2g, k2d = gamma_dot + dt / 2 * k1d, law(
                gamma + dt / 2 * k1g, gamma_dot + dt / 2 * k1d
            )
            k3g, k3d = gamma_dot + dt / 2 * k2d, law(
                gamma + dt / 2 * k2g, gamma_dot + dt / 2 * k2d
            )
            k4g, k4d = gamma_dot + dt * k3d, law(
                gamma + dt * k3g, gamma_dot + dt * k3d
            )
            gamma = gamma + dt / 6 * (k1g + 2 * k2g + 2 * k3g + k4g)
            gamma_dot = gamma_dot + dt / 6 * (k1d + 2 * k2d + 2 * k3d + k4d)
            advance(sw, dt, cert)
        ts, xis = np.array(ts), np.array(xis)
        assert xis[-1] < 1e-3
        floor = convergence_rate_bound(a, b, cert)
        mask = xis > 1e-3
        slope = np.polyfit(ts[mask], np.log(xis[mask]), 1)[0]
        assert -slope >= 0.5 * floor


class TestMissionRateProfile:
    def test_smoothstep_shape(self):
        p = smoothstep_profile(1.0, 1.1, 28.0, 8.0)
        assert p.rate(0.0) == 1.0
        assert p.rate(27.999) == 1.0
        assert abs(p.rate(32.0) - 1.05) < 1e-12  # midpoint of the ramp
        assert p.rate(36.0) == 1.1
        assert p.rate(50.0) == 1.1
        assert p.accel(10.0) == 0.0
        assert abs(p.accel(32.0) - 1.5 * 0.1 / 8.0) < 1e-12

    def test_accel_matches_finite_difference(self):
        p = smoothstep_profile(1.0, 1.1, 28.0, 8.0)
        h = 1e-6
        for t in np.linspace(27.0, 37.0, 400):
            fd = (p.rate(t + h) - p.rate(t - h)) / (2 * h)
            assert abs(fd - p.accel(t)) < 1e-6

    def test_validate_passes_for_true_bounds(self):
        smoothstep_profile(1.0, 1.1, 28.0, 8.0).validate(60.0)
        constant_profile(1.2).validate(10.0)

    def test_validate_rejects_lying_bounds(self):
        lying = MissionRateProfile(
            rate=lambda t: 1.5, accel=lambda t: 0.0, rate_dev_max=0.1, accel_max=0.0
        )
        with pytest.raises(ConfigError, match="band"):
            lying.validate(5.0)
        lying2 = MissionRateProfile(
            rate=lambda t: 1.0, accel=lambda t: 3.0, rate_dev_max=0.1, accel_max=0.1
        )
        with pytest.raises(ConfigError, match="acceleration"):
            lying2.validate(5.0)

    def test_rejects_nonpositive_ramp(self):
        with pytest.raises(ConfigError):
            smoothstep_profile(1.0, 1.1, 10.0, 0.0)
