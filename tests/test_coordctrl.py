import hashlib
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordsim.coordalg import build_projection
from coordsim.coordctrl import (
    MissionRateProfile,
    Violation,
    coordination_accel_matrix,
    coordination_error,
    feasibility_check,
    path_error_feedback_all,
)
from coordsim.digraph import Digraph
from coordsim.errors import ConfigError
from reference import laplacian


class TestState:
    def test_initialization(self):
        # canonical start of every run: gamma = 0, rate = 1 for every vehicle
        from coordsim.simharness import ScenarioConfig, init_world

        world = init_world(ScenarioConfig(t_max=1.0))
        assert np.array_equal(world.gamma, np.zeros(5))
        assert np.array_equal(world.gamma_dot, np.ones(5))


class TestPathErrorFeedback:
    def test_zero_error(self):
        v = np.array([[1.0, 2, 3], [0.0, 0, 0]])
        alpha = path_error_feedback_all(np.stack((np.zeros((2, 3)), v)), 1.2)
        assert np.array_equal(alpha, [0.0, 0.0])

    def test_direct_substitution(self):
        value = path_error_feedback_all(np.array([[[1.0, 0, 0]], [[1.0, 0, 0]]]), 1.0)
        assert abs(value[0] - 0.5) < 1e-15

    def test_bounded_by_error_norm(self):
        rng = np.random.default_rng(21)
        v = rng.normal(size=(200, 3)) * rng.uniform(0, 10, size=(200, 1))
        e = rng.normal(size=(200, 3)) * rng.uniform(0, 10, size=(200, 1))
        for delta in rng.uniform(0.01, 5, size=10):
            alpha = path_error_feedback_all(np.stack((e, v)), delta)
            assert np.all(np.abs(alpha) <= np.linalg.norm(e, axis=1) + 1e-12)

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError, match="delta"):
            path_error_feedback_all(np.ones((2, 2, 3)), 0.0)

    def test_vectorized_matches_scalar(self):
        # every row is the single-vehicle law: a batch of one gives the
        # same value as that vehicle's row in the batch
        rng = np.random.default_rng(22)
        v = rng.normal(size=(6, 3))
        e = rng.normal(size=(6, 3))
        batch = path_error_feedback_all(np.stack((e, v)), 1.2)
        singles = [
            path_error_feedback_all(np.stack((e[i : i + 1], v[i : i + 1])), 1.2)[0]
            for i in range(6)
        ]
        assert np.allclose(batch, singles, atol=1e-14)
        by_hand = [v[i] @ e[i] / (np.linalg.norm(v[i]) + 1.2) for i in range(6)]
        assert np.allclose(batch, by_hand, atol=1e-14)
        # a stack of samples, shape (rows, n, 3): every sample has the bytes
        # of the call on that sample alone
        for n in range(1, 11):
            scale = rng.choice([1e-6, 1.0, 1e3], (40, 1, 1))
            v, e = rng.normal(size=(2, 40, n, 3)) * scale
            stack = path_error_feedback_all(np.stack((e, v)), 1.2)
            assert stack.shape == (40, n)
            assert stack.tobytes() == np.stack(
                [path_error_feedback_all(np.stack((e[k], v[k])), 1.2) for k in range(40)]
            ).tobytes()


def loop_form_accel(gamma, gamma_dot, topology, e_pf, traj_vel, gamma_dot_d, a, b, delta):
    """Per-vehicle in-neighbor sums, the decentralized reference form."""
    n = topology.n
    out = np.empty(n)
    for i in range(1, n + 1):
        consensus = sum(gamma[i - 1] - gamma[j - 1] for (r, j) in topology.edges if r == i)
        v, e = traj_vel[i - 1], e_pf[i - 1]
        alpha = float(v @ e) / (float(np.linalg.norm(v)) + delta)
        out[i - 1] = -b * (gamma_dot[i - 1] - gamma_dot_d) - a * consensus - alpha
    return out


def accel(topology, gamma, gamma_dot, e_pf, traj_vel, gamma_dot_d, a, b, delta):
    """The coordination law as the simulation evaluates it."""
    alpha = path_error_feedback_all(np.stack((e_pf, traj_vel)), delta)
    lap = laplacian(topology).astype(float)
    return coordination_accel_matrix(gamma, gamma_dot, lap, alpha, gamma_dot_d, a, -b)


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

    @pytest.mark.parametrize("n", range(1, 11))
    def test_stack_equals_each_sample(self, n):
        # rows of a log-like table, each with its own Laplacian and desired
        # rate: the stacked call gives every row the bytes of the call on
        # that row alone
        rng = np.random.default_rng(27)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        laps = [
            laplacian(Digraph(n, [ij for ij in pairs if rng.random() < 0.4])).astype(float)
            for _ in range(3)
        ]
        lap = np.stack(laps)[rng.integers(0, 3, 200)]
        scale = rng.choice([1e-6, 1.0, 1e3], (200, 1))
        gamma, gamma_dot, alpha = rng.normal(size=(3, 200, n)) * scale
        rate = rng.uniform(0.9, 1.2, (200, 1))
        stack = coordination_accel_matrix(gamma, gamma_dot, lap, alpha, rate, 0.75, -1.82)
        assert stack.shape == (200, n)
        by_row = [
            coordination_accel_matrix(
                gamma[k], gamma_dot[k], lap[k], alpha[k], rate[k, 0], 0.75, -1.82
            )
            for k in range(200)
        ]
        assert stack.tobytes() == np.stack(by_row).tobytes()

    def test_dimension_mismatch(self):
        lap = laplacian(Digraph(3)).astype(float)
        with pytest.raises(ValueError):
            coordination_accel_matrix(np.zeros(2), np.ones(2), lap, np.zeros(2), 1.0, 1.0, -1.0)


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

    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_stack_equals_each_sample(self, n):
        # strided rows of a log-like table, each with its own desired rate:
        # the stacked call gives every row the bits of the call on that row
        rng = np.random.default_rng(26)
        q = build_projection(n) if n >= 2 else None
        table = rng.normal(size=(300, 3 + 6 * n)) * rng.choice([1e-6, 1.0, 1e3], (300, 1))
        gamma, gamma_dot, rate = table[:, 3 : 3 + n], table[:, 3 + n : 3 + 2 * n], table[:, 2]
        xi1, xi2, norm = coordination_error(gamma, gamma_dot, q, rate[:, None])
        assert xi1.shape == (300, n - 1 if n >= 2 else 0) and norm.shape == (300,)
        for k in range(300):
            one = coordination_error(gamma[k], gamma_dot[k], q, rate[k])
            assert np.array_equal(xi1[k], one[0]) and np.array_equal(xi2[k], one[1])
            assert norm[k] == one[2]


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

    @settings(max_examples=300)
    @given(data=st.data())
    def test_matches_hand_scan(self, data):
        # values at the edges of the envelope, NaN, infinities and signed
        # zeros, with and without an active mask, for one sample at a scalar
        # time and for a stack of samples with a time and a mask per row:
        # the list equals a scan of every vehicle by hand, by time, then
        # vehicle, a rate record first
        gmax = data.draw(st.sampled_from([0.1, 0.3, 0.5, 0.9]))
        gddmax = data.draw(st.sampled_from([0.5, 5.0]))
        n = data.draw(st.integers(1, 4))
        nan, inf = float("nan"), float("inf")
        # mostly inside the envelope, so that whole vectors often are
        rate = st.one_of(
            st.floats(1.0 - gmax, 1.0 + gmax),
            st.sampled_from([1.0 - gmax, 1.0 + gmax, nan, inf, -inf, 0.0, -0.0]),
            st.floats(0.0, 2.0),
        )
        accel = st.one_of(
            st.floats(-gddmax, gddmax),
            st.sampled_from([gddmax, -gddmax, 0.0, -0.0, nan, inf, -inf]),
            st.floats(-2 * gddmax, 2 * gddmax),
        )

        def scan(gd, gdd, times, active):
            expected = []
            for k, t in enumerate(times):
                for i in range(n):
                    if active is not None and not active[k][i]:
                        continue
                    if gd[k][i] < 1.0 - gmax or gd[k][i] > 1.0 + gmax:
                        expected.append(Violation(i + 1, t, "rate", float(gd[k][i])))
                    if abs(gdd[k][i]) > gddmax:
                        expected.append(Violation(i + 1, t, "accel", float(gdd[k][i])))
            return expected

        def draw(rows):
            shape = (rows, n) if rows else (n,)
            size = rows * n if rows else n
            gd = np.array(data.draw(st.lists(rate, min_size=size, max_size=size))).reshape(shape)
            gdd = np.array(data.draw(st.lists(accel, min_size=size, max_size=size))).reshape(shape)
            active = data.draw(
                st.none()
                | st.lists(st.booleans(), min_size=size, max_size=size).map(
                    lambda a: np.array(a).reshape(shape)
                )
            )
            return gd, gdd, active

        gd, gdd, active = draw(0)
        mask = None if active is None else [active]
        found = feasibility_check(gd, gdd, (gmax, gddmax), 0.5, active)
        assert found == scan([gd], [gdd], [0.5], mask)

        rows = data.draw(st.integers(1, 5))
        gd, gdd, active = draw(rows)
        times = sorted(data.draw(st.lists(st.floats(0.0, 60.0), min_size=rows, max_size=rows)))
        found = feasibility_check(gd, gdd, (gmax, gddmax), np.array(times), active)
        assert found == scan(gd, gdd, times, active)
        assert all(type(v.time) is float and type(v.value) is float for v in found)


class TestCoordinationContraction:
    def test_decay_under_switching_without_vehicles(self, default_cert):
        # pure coordination loop: zero path errors, constant desired rate,
        # topology driven by the switching law; the disagreement must
        # contract at least at half the guaranteed rate floor and reach
        # the 1e-3 band
        from coordsim.coordalg import convergence_rate_bound
        from coordsim.simharness import default_directed_family
        from coordsim.switchlaw import schedule

        a, b, dt = 0.75, 1.82, 2e-3
        family = default_directed_family()
        laps = [laplacian(d).astype(float) for d in family]
        cert = default_cert
        q = build_projection(5)
        n_steps = int(60.0 / dt)
        sigma, _ = schedule(np.array([0.9, 1.7, 1.1, 0.1]), cert, a, b, dt, n_steps)
        gamma = np.array([0.5, 0.1, -0.2, 0.3, -0.4])
        gamma_dot = np.ones(5)
        # zero path errors: no path-error feedback
        zero_alpha = path_error_feedback_all(np.stack((np.zeros((5, 3)), np.ones((5, 3)))), 1.2)
        ts, xis = [], []
        for k in range(n_steps):
            t = k * dt
            ts.append(t)
            xis.append(coordination_error(gamma, gamma_dot, q, 1.0)[2])
            lap = laps[sigma[k] - 1]

            def law(g, gd):
                return coordination_accel_matrix(g, gd, lap, zero_alpha, 1.0, a, -b)

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
        ts, xis = np.array(ts), np.array(xis)
        assert xis[-1] < 1e-3
        floor = convergence_rate_bound(a, b, cert)
        mask = xis > 1e-3
        slope = np.polyfit(ts[mask], np.log(xis[mask]), 1)[0]
        assert -slope >= 0.5 * floor


def rate_pin_cases():
    """Yield ``(base, final, ramp_start, ramp_duration)`` and the times to
    evaluate it at: integer and float parameters, equal ends (a constant
    rate), the ramp's edges and one ulp either side, and huge times."""
    bases = (1, 0.95, 1.0, 1.25)
    finals = (1, 1.1, 0.8, 2)
    starts = (0, 28.0, 0.3, -2.5)
    durations = (8, 8.0, 0.1, 2.5, 1e-7)
    huge = [-1e308, -1e300, -0.0, 0.0, 2.0**53, 1e300, 1e308]
    for base, final, start, duration in itertools.product(bases, finals, starts, durations):
        edges = np.array([start, start + duration], dtype=float)
        ts = np.concatenate((
            np.linspace(start - duration, start + 2 * duration, 61),
            start + duration * np.linspace(0.0, 1.0, 33),
            edges,
            np.nextafter(edges, -np.inf),
            np.nextafter(edges, np.inf),
            huge,
        ))
        yield (base, final, start, duration), ts


# sha256 of the rate's bytes over rate_pin_cases, recorded with the
# closure-built profile this class replaced: a change that moves it moves
# the desired rate of some run, so it is never re-recorded
RATE_DIGEST = "c0c39dfc4a9fc165cce7a97ea0ca2a8dcf2bcf179f458cf628f4aa80bed2c5ff"


class TestMissionRateProfile:
    def test_smoothstep_shape(self):
        p = MissionRateProfile(1.0, 1.1, 28.0, 8.0)
        assert p.rate(0.0) == 1.0
        assert p.rate(27.999) == 1.0
        assert abs(p.rate(32.0) - 1.05) < 1e-12  # midpoint of the ramp
        assert p.rate(36.0) == 1.1
        assert p.rate(50.0) == 1.1

    def test_rate_bits_pinned(self):
        h = hashlib.sha256()
        cases = 0
        for params, ts in rate_pin_cases():
            rate = MissionRateProfile(*params).rate
            h.update(rate(ts).tobytes())
            h.update(rate(float(ts[70])).tobytes())
            cases += 1
        assert cases == 320 and h.hexdigest() == RATE_DIGEST

    # what validate relies on, checked here rather than on every set-up: the
    # rate lies between its end values, and its slope stays below
    # 1.5 |final - base| / ramp_duration.
    # Rounding the two rates of a difference quotient over a step h moves it
    # by about 2 ulp(max(base, final)) / h; the slack allows 4
    @settings(max_examples=200)
    @given(
        base=st.floats(1e-300, 20.0),
        final=st.floats(1e-300, 20.0),
        ramp_start=st.floats(-100.0, 100.0),
        ramp_duration=st.floats(1e-3, 100.0),
    )
    def test_rate_in_band_with_bounded_slope(self, base, final, ramp_start, ramp_duration):
        p = MissionRateProfile(base, final, ramp_start, ramp_duration)
        ts = ramp_start + ramp_duration * np.linspace(-0.25, 1.25, 3001)
        rates = p.rate(ts)
        # the band also on the 1,000 floats below the ramp's end, where the
        # smoothstep rounds to 1 or just above
        end = ramp_start + ramp_duration
        edge = p.rate(end - np.spacing(end) * np.arange(1, 1001))
        for r in (rates, edge):
            assert min(base, final) <= r.min() and r.max() <= max(base, final)
        slopes = np.abs(np.diff(rates) / np.diff(ts))
        rounding = 4 * np.spacing(max(base, final)) / np.diff(ts).min()
        assert slopes.max() <= 1.5 * abs(final - base) / ramp_duration + rounding

    def test_array_entries_equal_single_times(self):
        p = MissionRateProfile(1.0, 1.1, 28.0, 8.0)
        ts = np.concatenate((np.linspace(20.0, 44.0, 997), [28.0, 36.0]))
        values = p.rate(ts)
        for i, t in enumerate(ts):
            assert values[i] == p.rate(t)

    def test_exact_values_at_ramp_edges(self):
        p = MissionRateProfile(1.0, 1.1, 28.0, 8.0)
        ts = np.array([np.nextafter(28.0, 0.0), 28.0, 36.0, np.nextafter(36.0, 99.0)])
        assert p.rate(ts).tolist() == [1.0, 1.0, 1.1, 1.1]

    @pytest.mark.parametrize("shape", [(), (7,), (3, 7)])
    def test_output_shape_is_input_shape(self, shape):
        ts = np.linspace(0.0, 60.0, int(np.prod(shape))).reshape(shape)
        profiles = (
            MissionRateProfile(1.0, 1.1, 28.0, 8.0),
            MissionRateProfile(1.2, 1.2, 28.0, 8.0),
        )
        for t in (ts, float(ts)) if shape == () else (ts,):
            for p in profiles:
                out = p.rate(t)
                assert out.shape == shape and out.dtype == np.float64

    def test_integer_parameters_give_float_rates(self):
        p = MissionRateProfile(1, 2, 0, 4)
        assert p.rate(np.array([0.0, 2.0, 4.0])).tolist() == [1.0, 1.5, 2.0]
        assert MissionRateProfile(1, 1, 0, 4).rate(np.zeros(2)).tolist() == [1.0, 1.0]

    def test_huge_times_without_overflow(self):
        p = MissionRateProfile(1.0, 1.1, 28.0, 8.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert p.rate(np.array([-1e308, 1e308])).tolist() == [1.0, 1.1]

    def test_validate_admits_a_positive_rate(self):
        MissionRateProfile(1.0, 1.1, 28.0, 8.0).validate(60.0)
        MissionRateProfile(1.2, 1.2, 28.0, 8.0).validate(10.0)
        # the rate turns negative only after t_max
        MissionRateProfile(1.0, -0.5, 10.0, 1.0).validate(5.0)

    @pytest.mark.parametrize(
        "params, t_max",
        [
            ((1.0, -0.5, 10.0, 1.0), 20.0),
            ((1.0, 0.0, 10.0, 1.0), 11.0),
            ((-1.0, 1.0, 0.0, 1.0), 5.0),
        ],
        ids=["negative-final", "zero-final", "negative-base"],
    )
    def test_validate_refuses_a_nonpositive_rate(self, params, t_max):
        with pytest.raises(ConfigError, match="positive"):
            MissionRateProfile(*params).validate(t_max)

    def test_rejects_nonpositive_ramp(self):
        with pytest.raises(ConfigError):
            MissionRateProfile(1.0, 1.1, 10.0, 0.0)
