import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordsim.errors import NumericError
from coordsim.vehicle import (
    LaneSweepFamily,
    PDGains,
    apply_disturbance,
    dot_bound,
    pf_control_all,
    row_norms,
    saturate,
)


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
    from coordsim.simharness import ScenarioConfig, run_scenario

    cfg = ScenarioConfig(t_max=1e-3, initial_positions=positions.tolist())
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
        # at the target: [target_vel - v | e]
        u = pf_control_all(np.stack((v.copy() - v, p.copy() - p)), PDGains(4.0, 4.0, 10.0, 2))
        assert np.allclose(u, 0.0, atol=1e-15)

    def test_saturation_norm(self):
        rng = np.random.default_rng(31)
        p = rng.normal(size=(100, 3)) * 10
        v = rng.normal(size=(100, 3)) * 5
        e = rng.normal(size=(100, 3)) * 10 - p
        target_vel = rng.normal(size=(100, 3))
        u = pf_control_all(np.stack((target_vel - v, e)), PDGains(4.0, 4.0, 10.0, 100))
        assert np.linalg.norm(u, axis=1).max() <= 10.0 + 1e-12

    def test_saturation_preserves_direction(self):
        target = np.array([[100.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
        # vehicles at rest at the origin: the path error is the target
        rest = np.zeros((2, 3))  # target velocity and velocity
        u = pf_control_all(np.stack((rest - rest, target)), PDGains(4.0, 4.0, 10.0, 2))
        assert np.allclose(u, [[10.0, 0.0, 0.0], [2.0, 0.0, 0.0]], atol=1e-12)

    def test_batch_matches_single(self):
        # every row is the single-vehicle law: a batch of one gives the
        # same command as that vehicle's row in the batch
        rng = np.random.default_rng(32)
        p = rng.normal(size=(4, 3))
        v = rng.normal(size=(4, 3))
        tp = rng.normal(size=(4, 3)) * 10
        tv = rng.normal(size=(4, 3))
        batch = pf_control_all(np.stack((tv - v, tp - p)), PDGains(4.0, 4.0, 10.0, 4))
        for i in range(4):
            row = slice(i, i + 1)
            pd = np.stack((tv[row] - v[row], tp[row] - p[row]))
            single = pf_control_all(pd, PDGains(4.0, 4.0, 10.0, 1))[0]
            assert np.allclose(batch[i], single, atol=1e-13)
            by_hand = 4.0 * (tp[i] - p[i]) + 4.0 * (tv[i] - v[i])
            by_hand *= min(1.0, 10.0 / np.linalg.norm(by_hand))
            assert np.allclose(batch[i], by_hand, atol=1e-13)

    def test_rejects_bad_gains(self):
        z = np.zeros((1, 3))
        for kp, kd, a_max in ((-1.0, 4.0, 10.0), (4.0, 0.0, 10.0), (4.0, 4.0, 0.0)):
            with pytest.raises(ValueError):
                pf_control_all(np.stack((z - z, np.ones((1, 3)))), PDGains(kp, kd, a_max, 1))


def branch_free(rows, limit):
    """Every row scaled by ``limit / max(norm, limit)``, skip or not."""
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    return rows * (limit / np.maximum(norms, limit))[:, None]


LIMITS = [1e-300, 1.3e-160, 1.0, 1e300]


def draw_row(draw, limit):
    """One row of ``rows_around_a_limit``."""
    row = [draw(st.sampled_from([0.0, -0.0])) for _ in range(3)]
    axis = draw(st.integers(0, 2))
    sign = draw(st.sampled_from([1.0, -1.0]))
    # scaled rows weighted up, so that many draws have every row but a
    # NaN under the limit, where the multiply is skipped
    kind = draw(st.sampled_from(["axis", "scaled", "scaled", "scaled", "zero", "nan", "inf"]))
    if kind == "axis":  # norm the limit, or one ulp above or below it
        row[axis] = sign * math.nextafter(limit, draw(st.sampled_from([0.0, limit, math.inf])))
    elif kind == "scaled":
        direction = draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
        norm = math.hypot(*direction)
        scale = limit * draw(st.sampled_from([0.25, 0.5, 1.0, 2.0])) / (norm or 1.0)
        row = [c * scale for c in direction]
        row[axis] = math.nextafter(row[axis], draw(st.sampled_from([-math.inf, row[axis], math.inf])))
    elif kind == "nan":
        row[axis] = math.nan
    elif kind == "inf":
        row[axis] = sign * math.inf
    return row


@st.composite
def rows_around_a_limit(draw):
    """``(rows, limit)``: a limit of 1e-300, 1.3e-160, 1 or 1e300 (whose
    square underflows to 0, is subnormal and rounded up, is exact or
    overflows), and rows of norm exactly the limit or one ulp off it,
    directions scaled to about the limit, signed zero, NaN and infinite
    rows."""
    limit = draw(st.sampled_from(LIMITS))
    rows = [draw_row(draw, limit) for _ in range(draw(st.integers(1, 4)))]
    return np.array(rows), limit


@st.composite
def stacks_around_a_limit(draw):
    """``(stack, limit)``: one to four samples of the same one to four rows
    of ``rows_around_a_limit`` about one limit, shape ``(samples, rows, 3)``."""
    limit = draw(st.sampled_from(LIMITS))
    samples, rows = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    stack = [[draw_row(draw, limit) for _ in range(rows)] for _ in range(samples)]
    return np.array(stack), limit


def overflows(rows) -> bool:
    """Whether some row of finite entries has a squared norm that
    overflows, which ``saturate`` refuses."""
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.einsum("...j,...j->...", rows, rows))
    return bool((np.isinf(norms) & np.isfinite(rows).all(axis=-1)).any())


def refused(rows, limit) -> bool:
    """Whether ``saturate`` raised NumericError on ``rows`` and left them
    as they were."""
    before = rows.tobytes()
    try:
        saturate(rows, limit, dot_bound(limit))
    except NumericError as exc:
        return "overflows" in str(exc) and rows.tobytes() == before
    return False


def saturated_per_sample(stack, limit):
    expected = stack.copy()
    for sample in expected:
        saturate(sample, limit, dot_bound(limit))
    return expected


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
        saturate(rows, 5.0, dot_bound(5.0))
        assert rows.tobytes() == expected.tobytes()  # tobytes tells -0.0 from 0.0

    def test_random_rows_around_the_limit(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            rows = rng.normal(size=(int(rng.integers(1, 9)), 3)) * rng.choice([0.5, 2.0, 4.0])
            expected = branch_free(rows, 5.0)
            saturate(rows, 5.0, dot_bound(5.0))
            assert rows.tobytes() == expected.tobytes()

    @settings(max_examples=400)
    @given(case=rows_around_a_limit())
    def test_same_bytes_as_unconditional_factor(self, case):
        # the squared-norm test skips the multiply only where the factor is
        # exactly 1.0; inf rows multiply inf by a factor of 0.  The bytes
        # are pinned where no row of finite entries has a squared norm that
        # overflows (every finite row's norm is finite); where one does,
        # the call is refused instead of scaling that row to 0
        rows, limit = case
        with np.errstate(over="ignore", invalid="ignore"):
            if overflows(rows):
                assert refused(rows, limit)
                return
            expected = rows * (limit / np.maximum(row_norms(rows), limit))[:, None]
            saturate(rows, limit, dot_bound(limit))
        assert rows.tobytes() == expected.tobytes()

    @settings(max_examples=400)
    @given(case=stacks_around_a_limit())
    def test_stack_same_bytes_as_one_call_per_sample(self, case):
        # a stack takes the factor path when any sample needs it; the
        # factor is then exactly 1.0 on the samples that alone skip it
        stack, limit = case
        with np.errstate(over="ignore", invalid="ignore"):
            if overflows(stack):
                assert refused(stack, limit)
                return
            expected = saturated_per_sample(stack, limit)
            saturate(stack, limit, dot_bound(limit))
        assert stack.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "samples",
        [(UNDER[:2], UNDER[1::-1]), (UNDER[:2], UNDER[1:]), (UNDER[:2], AT, OVER)],
        ids=["skip", "factor-one-ulp-under", "factor-at-over"],
    )
    def test_stack_skip_and_factor_paths(self, samples):
        # every squared norm of the first stack is at most the bound, so
        # the multiply is skipped; the others hold a row of norm 5 or one
        # ulp under it, above the bound, and scale every sample, which then
        # keeps the bytes of its own call (skipped for UNDER[:2])
        stack = np.array(samples)
        expected = saturated_per_sample(stack, 5.0)
        saturate(stack, 5.0, dot_bound(5.0))
        assert stack.tobytes() == expected.tobytes()

    def test_nan_row_scaled_as_branch_free(self):
        rows = np.array([[1.0, 0.0, 0.0], [np.nan, 1.0, 0.0], [0.0, 2.0, 0.0]])
        expected = branch_free(rows, 5.0)
        saturate(rows, 5.0, dot_bound(5.0))
        assert rows.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "rows",
        [
            [[1e200, 0.0, 0.0]],
            [[1.0, 0.0, 0.0], [0.0, -1.3e154, 1.3e154]],
            [[[1.0, 0.0, 0.0]], [[0.0, 0.0, 2e160]]],
            [[np.nan, 0.0, 0.0], [1e200, 0.0, 0.0]],
        ],
        ids=["one-row", "second-row", "stack", "beside-a-nan"],
    )
    def test_overflowing_finite_row_is_refused(self, rows):
        # the factor of such a row would be limit / inf = 0: a finite
        # command or velocity scaled to zero without a word
        assert refused(np.array(rows), 5.0)

    def test_overflow_looked_for_only_when_the_dot_is_not_finite(self, monkeypatch):
        # the skip path and the finite factor path make no call beyond the
        # dot, the norms and the factor
        calls = []
        isinf = np.isinf
        monkeypatch.setattr(np, "isinf", lambda *a: calls.append(a) or isinf(*a))
        bound = dot_bound(5.0)
        for rows, looked in (
            (self.UNDER, False), (self.OVER, False), ([[np.inf, 0.0, 0.0]], True),
            ([[1e200, 0.0, 0.0]], True),
        ):
            calls.clear()
            with np.errstate(invalid="ignore"):
                try:
                    saturate(np.array(rows), 5.0, bound)
                except NumericError:
                    pass
            assert bool(calls) == looked


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
        from coordsim.simharness import GustEvent, ScenarioConfig, run_scenario

        cfg = ScenarioConfig(
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
