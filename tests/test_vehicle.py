import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coordsim.vehicle import LaneSweepFamily, apply_disturbance, pf_control_all, saturate


@pytest.fixture(scope="module")
def family():
    return LaneSweepFamily(n=5)


def lane(i, t):
    """Closed form of vehicle ``i``'s (1-based) default trajectory and its
    velocity at mission time ``t``, one vehicle at a time."""
    s = math.sin(-math.pi / 2 + math.pi * i / 6)
    pos = np.array([t, 6.0 - 2.0 * i - math.exp(-0.6 * t) * (5.0 + 3.0 * t) * s, 2.0])
    vel = np.array([1.0, 1.8 * t * math.exp(-0.6 * t) * s, 0.0])
    return pos, vel


class TestTrajectoryFamily:
    def test_center_lane_start(self, family):
        # vehicle 3 has zero lateral excursion
        pos, vel = family.pos_vel_all(np.zeros(5))
        assert np.allclose(pos[2], [0.0, 0.0, 2.0], atol=1e-15)
        assert np.allclose(vel[2], [1.0, 0.0, 0.0], atol=1e-15)

    def test_vehicle1_start(self, family):
        pos, _ = family.pos_vel_all(np.zeros(5))
        expected_y = 4.0 + 5.0 * math.sin(math.pi / 3)
        assert abs(pos[0, 1] - 8.330127018922193) < 1e-12
        assert abs(pos[0, 1] - expected_y) < 1e-12

    def test_lateral_excursion_dies_out(self, family):
        pos, _ = family.pos_vel_all(np.full(5, 50.0))
        assert np.all(np.abs(pos[:, 1] - family.offsets) < 1e-10)

    def test_batch_matches_single(self, family):
        gammas = np.array([0.0, 3.3, 7.7, 25.0, 49.0])
        batch_p, batch_v = family.pos_vel_all(gammas)
        for i in range(5):
            pos, vel = lane(i + 1, gammas[i])
            assert np.allclose(batch_p[i], pos, atol=1e-12)
            assert np.allclose(batch_v[i], vel, atol=1e-12)
        # a stack of samples, shape (rows, n): every sample has the bytes of
        # the call on that sample alone
        rng = np.random.default_rng(5)
        for n in range(1, 11):
            fam = LaneSweepFamily(n=n)
            stack = rng.uniform(0.0, 60.0, (40, n))
            stack[::7] = 0.0
            pos, vel = fam.pos_vel_all(stack)
            assert pos.shape == vel.shape == (40, n, 3)
            rows = [fam.pos_vel_all(g) for g in stack]
            assert pos.tobytes() == np.stack([p for p, _ in rows]).tobytes()
            assert vel.tobytes() == np.stack([v for _, v in rows]).tobytes()

    def test_pos_vel_fast_path(self, family):
        # the loop's shared-exponential path agrees with the speed grid's
        gammas = np.linspace(0, 50, 5)
        _, v = family.pos_vel_all(gammas)
        assert np.allclose(v, family.velocity_all(gammas), atol=1e-15)

    def test_analytic_derivatives_match_finite_differences(self, family):
        # velocity against a central difference of position
        h = 1e-5
        ts = np.linspace(h, 50.0 - h, 1000)
        for t in ts[::25]:
            g = np.full(5, t)
            v_fd = (family.pos_vel_all(g + h)[0] - family.pos_vel_all(g - h)[0]) / (2 * h)
            v = family.pos_vel_all(g)[1]
            for i in range(5):
                assert np.linalg.norm(v[i] - v_fd[i]) <= 1e-6 * max(1.0, np.linalg.norm(v[i]))

    def test_velocity_grid_matches_row_calls(self, family):
        grid = np.linspace(0.0, 50.0, 7)[:, None] + np.arange(5) * 0.3
        v = family.velocity_all(grid)
        assert v.shape == (7, 5, 3)
        assert np.array_equal(v, np.stack([family.velocity_all(row) for row in grid]))

    def test_velocity_column_matches_repeated_grid(self, family):
        ts = np.linspace(0.0, 50.0, 2000)
        column = family.velocity_all(ts[:, None])
        assert column.shape == (2000, 5, 3)
        assert np.array_equal(column, family.velocity_all(np.repeat(ts[:, None], 5, axis=1)))

    def test_mismatched_parameters(self):
        with pytest.raises(ValueError):
            LaneSweepFamily(offsets=[1.0, 2.0], angles=[0.0])


def norm_spread(fam, ts):
    """Desired-speed spread as the norm of every vehicle's velocity at every
    sample time, on the repeated ``(T, n)`` grid."""
    v = fam.velocity_all(np.repeat(ts[:, None], fam.n, axis=1)).reshape(-1, 3)
    speeds = np.linalg.norm(v, axis=-1)
    return float(speeds.max() - speeds.min())


# vy = 1.8 t exp(-0.6 t) sin(angle) peaks at t = 5/3
PEAK = 5.0 / 3.0
ANGLES = st.one_of(
    st.sampled_from([0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi]),
    st.floats(-2 * math.pi, 2 * math.pi),
)
T_F = st.one_of(st.just(PEAK), st.floats(1e-3, PEAK), st.floats(PEAK, 100.0))


class TestSpeedSpread:
    @given(
        lanes=st.lists(st.tuples(st.floats(-10.0, 10.0), ANGLES), min_size=1, max_size=10),
        t_f=T_F,
    )
    def test_same_bits_as_norm_of_every_sample(self, lanes, t_f):
        offsets, angles = zip(*lanes)
        fam = LaneSweepFamily(offsets, angles, t_f=t_f)
        ts = np.linspace(0.0, fam.t_f, 2000)
        spread = fam.speed_spread(ts)
        assert np.float64(spread).tobytes() == np.float64(norm_spread(fam, ts)).tobytes()

    def test_nan_propagates(self):
        fam = LaneSweepFamily([0.0, 1.0], [0.3, math.nan], t_f=10.0)
        ts = np.linspace(0.0, fam.t_f, 2000)
        assert math.isnan(fam.speed_spread(ts)) and math.isnan(norm_spread(fam, ts))

def first_sample_epf(positions):
    """Path-following error norms of the first logged sample of a default
    directed run started at ``positions``, as the simulation computes them
    (virtual target minus vehicle position)."""
    from coordsim.simharness import default_directed_config, run_scenario

    cfg = default_directed_config(t_max=1e-3, initial_positions=positions.tolist())
    return run_scenario(cfg).epf_norm[0]


class TestPfError:
    def test_zero_at_target(self, family):
        targets, _ = family.pos_vel_all(np.zeros(5))
        assert np.allclose(first_sample_epf(targets), 0.0, atol=1e-15)

    def test_known_offset(self, family):
        targets, _ = family.pos_vel_all(np.zeros(5))
        start = targets.copy()
        start[2] = [-1.0, 0.0, 2.0]
        epf = first_sample_epf(start)
        assert abs(epf[2] - 1.0) < 1e-15
        assert np.allclose(np.delete(epf, 2), 0.0, atol=1e-15)

    def test_continuous_in_gamma(self, family):
        p1, _ = family.pos_vel_all(np.full(5, 10.0))
        p2, _ = family.pos_vel_all(np.full(5, 10.0 + 1e-9))
        assert np.linalg.norm(p1 - p2, axis=1).max() < 1e-7


class TestPfControl:
    def test_zero_at_target_with_matched_velocity(self):
        p = np.array([[1.0, 2, 3], [-4.0, 0, 2]])
        v = np.array([[0.5, 0, 0], [1.0, 0.3, 0]])
        u = pf_control_all(p.copy() - p, v, v.copy(), 4.0, 4.0, 10.0)  # at the target
        assert np.allclose(u, 0.0, atol=1e-15)

    def test_saturation_norm(self):
        rng = np.random.default_rng(31)
        p = rng.normal(size=(100, 3)) * 10
        v = rng.normal(size=(100, 3)) * 5
        e = rng.normal(size=(100, 3)) * 10 - p
        u = pf_control_all(e, v, rng.normal(size=(100, 3)), 4.0, 4.0, 10.0)
        assert np.linalg.norm(u, axis=1).max() <= 10.0 + 1e-12

    def test_saturation_preserves_direction(self):
        target = np.array([[100.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
        # vehicles at rest at the origin: the path error is the target
        u = pf_control_all(target, np.zeros((2, 3)), np.zeros((2, 3)), 4.0, 4.0, 10.0)
        assert np.allclose(u, [[10.0, 0.0, 0.0], [2.0, 0.0, 0.0]], atol=1e-12)

    def test_batch_matches_single(self):
        # every row is the single-vehicle law: a batch of one gives the
        # same command as that vehicle's row in the batch
        rng = np.random.default_rng(32)
        p = rng.normal(size=(4, 3))
        v = rng.normal(size=(4, 3))
        tp = rng.normal(size=(4, 3)) * 10
        tv = rng.normal(size=(4, 3))
        batch = pf_control_all(tp - p, v, tv, 4.0, 4.0, 10.0)
        for i in range(4):
            row = slice(i, i + 1)
            single = pf_control_all(tp[row] - p[row], v[row], tv[row], 4.0, 4.0, 10.0)[0]
            assert np.allclose(batch[i], single, atol=1e-13)
            by_hand = 4.0 * (tp[i] - p[i]) + 4.0 * (tv[i] - v[i])
            by_hand *= min(1.0, 10.0 / np.linalg.norm(by_hand))
            assert np.allclose(batch[i], by_hand, atol=1e-13)

    def test_rejects_bad_gains(self):
        z = np.zeros((1, 3))
        for kp, kd, a_max in ((-1.0, 4.0, 10.0), (4.0, 0.0, 10.0), (4.0, 4.0, 0.0)):
            with pytest.raises(ValueError):
                pf_control_all(np.ones((1, 3)), z, z, kp, kd, a_max)


def branch_free(rows, limit):
    """Every row scaled by ``limit / max(norm, limit)``, skip or not."""
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    return rows * (limit / np.maximum(norms, limit))[:, None]


class TestSaturate:
    # rows under, at (norm 5) and over the limit 5, with signed zeros
    UNDER = [[1.0, -2.0, 2.0], [-0.0, 0.0, -0.0], [0.0, -0.0, 4.999999999999999]]
    AT = [[3.0, 4.0, -0.0], [-0.0, -5.0, 0.0]]
    OVER = [[6.0, -0.0, 8.0], [-0.0, 5.000000000000001, 0.0]]

    @pytest.mark.parametrize(
        "rows",
        [UNDER, AT, UNDER + AT, UNDER + AT + OVER, OVER],
        ids=["under", "at", "under-at", "under-at-over", "over"],
    )
    def test_same_bits_as_branch_free_factor(self, rows):
        rows = np.array(rows)
        expected = branch_free(rows, 5.0)
        saturate(rows, 5.0)
        assert rows.tobytes() == expected.tobytes()  # tobytes tells -0.0 from 0.0

    def test_random_rows_around_the_limit(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            rows = rng.normal(size=(int(rng.integers(1, 9)), 3)) * rng.choice([0.5, 2.0, 4.0])
            expected = branch_free(rows, 5.0)
            saturate(rows, 5.0)
            assert rows.tobytes() == expected.tobytes()

    def test_nan_row_scaled_as_branch_free(self):
        rows = np.array([[1.0, 0.0, 0.0], [np.nan, 1.0, 0.0], [0.0, 2.0, 0.0]])
        expected = branch_free(rows, 5.0)
        saturate(rows, 5.0)
        assert rows.tobytes() == expected.tobytes()


class TestDisturbance:
    def test_zero_gust_identity(self):
        accel = np.array([1.0, 2.0, 3.0])
        out = apply_disturbance(accel, 15.5, np.zeros(3), (15.0, 16.0))
        assert np.allclose(out, accel)

    def test_outside_window_identity(self):
        accel = np.array([1.0, 2.0, 3.0])
        out = apply_disturbance(accel, 20.0, np.array([0, 2, 0]), (15.0, 16.0))
        assert np.allclose(out, accel)

    def test_inside_window_adds(self):
        accel = np.array([1.0, 2.0, 3.0])
        out = apply_disturbance(accel, 15.5, np.array([0.0, 2.0, 0.0]), (15.0, 16.0))
        assert np.allclose(out, [1.0, 4.0, 3.0])

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError, match="t_start < t_end"):
            apply_disturbance(np.zeros(3), 1.0, np.ones(3), (5.0, 5.0))


class TestGustTransient:
    def test_gust_pushes_then_recovers(self):
        # closed-loop qualitative check: a lateral gust mid-run lifts the
        # path error of the hit vehicle, which then settles again
        from coordsim.simharness import GustEvent, default_directed_config, run_scenario

        cfg = default_directed_config(
            dt=0.005,
            t_max=20.0,
            gusts=[GustEvent(2, (0.0, 2.0, 0.0), (12.0, 13.0))],
        )
        log = run_scenario(cfg)
        t = log.t
        epf2 = log.epf_norm[:, 1]
        pre = epf2[(t >= 10.0) & (t < 12.0)].max()
        during = epf2[(t >= 12.0) & (t < 13.5)].max()
        after = epf2[t >= 18.0].max()
        assert during > 5.0 * pre
        assert after < during / 5.0
