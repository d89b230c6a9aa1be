"""The closed loop spells some of its arithmetic more cheaply than the
straightforward form: these pins compare the two spellings byte for byte on
random data, so a numpy or BLAS whose dispatch breaks an identity fails here
rather than shifting the bits of every run."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordsim._einsum import einsum
from coordsim.coordctrl import _bind_accel, coordination_accel_matrix
from coordsim.digraph import Digraph, laplacians
from coordsim.errors import NumericError
from coordsim.simharness import MAX_SYNTHESIS_N
from coordsim.vehicle import (
    LaneSweepFamily,
    PDGains,
    dot_bound,
    pf_control_all,
    row_norms,
    saturate,
)


def random_laplacian(n, rng, symmetric):
    """Integer in-degree Laplacian of a random digraph on ``n`` nodes, as
    floats, the way the loop holds it (a slice of a read-only stack)."""
    density = rng.uniform(0.05, 0.8)
    edges = {
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j and rng.random() < density
    }
    if symmetric:
        edges |= {(j, i) for (i, j) in edges}
    stack = laplacians([Digraph(n, edges)]).astype(float)
    stack.setflags(write=False)
    return stack[0]


@pytest.mark.parametrize("symmetric", [False, True], ids=["directed", "symmetric"])
def test_dot_matches_matmul_on_laplacians(symmetric):
    # one sample's L gamma is np.dot; the log's stacked feasibility pass keeps matmul
    rng = np.random.default_rng(30 + symmetric)
    for n in range(2, MAX_SYNTHESIS_N + 1):
        for _ in range(10):
            lap = random_laplacian(n, rng, symmetric)
            gamma = rng.uniform(0.0, 50.0, n) * rng.choice([1e-3, 1.0, 1e3])
            gamma[rng.random(n) < 0.1] = -0.0
            out = np.empty(n)
            np.dot(lap, gamma, out)
            assert out.tobytes() == np.matmul(lap, gamma[:, None])[:, 0].tobytes()
        # each sample of a stacked matmul has the bits of np.dot on it
        laps = np.stack([random_laplacian(n, rng, symmetric) for _ in range(6)])
        gammas = rng.uniform(0.0, 50.0, (6, n))
        stacked = np.matmul(laps, gammas[..., None])[..., 0]
        for k in range(6):
            assert stacked[k].tobytes() == np.dot(laps[k], gammas[k]).tobytes()


def test_reduction_matches_the_chained_rk4_sum():
    # x += dt/6 (((k1 + 2 k2) + 2 k3) + k4): one multiply doubles k2 and k3,
    # one reduction started from -0.0 sums the four rows in order
    rng = np.random.default_rng(32)
    two = np.array(2.0)
    for n in range(1, MAX_SYNTHESIS_N + 1):
        for _ in range(5):
            k = rng.normal(size=(4, 8 * n)) * rng.choice([1e-3, 1.0, 1e3], (4, 8 * n))
            k[rng.random(k.shape) < 0.3] = -0.0
            k[rng.random(k.shape) < 0.1] = 0.0
            k[:, 0] = -0.0  # a column of signed zeros only
            chained = k.copy()
            k1, k2, k3, k4 = chained
            np.add(k1, np.multiply(two, k2, k2), k1)
            np.add(k1, np.multiply(two, k3, k3), k1)
            np.add(k1, k4, k1)
            reduced, out = k.copy(), np.empty(8 * n)
            np.multiply(two, reduced[1:3], reduced[1:3])
            np.add.reduce(reduced, 0, None, out, False, -0.0)
            assert out.tobytes() == k1.tobytes()
    # the default start, +0.0, would lose the sign of a sum of -0.0s
    assert not np.signbit(np.add.reduce(np.full((4, 1), -0.0), axis=0)[0])


def test_row_dots_into_a_buffer_match_the_allocating_call():
    rng = np.random.default_rng(33)
    for n in range(1, MAX_SYNTHESIS_N + 1):
        stack = rng.normal(size=(2, n, 3)) * rng.choice([1e-3, 1.0, 1e3], (2, n, 3))
        stack[rng.random(stack.shape) < 0.1] = -0.0
        dots = np.empty((2, n))
        einsum("k...ij,...ij->k...i", stack, stack[1], out=dots)
        assert dots.tobytes() == einsum("k...ij,...ij->k...i", stack, stack[1]).tobytes()


def two_gain_command(e, v, target_vel, kp, kd, a_max):
    """The PD command as it was formed before the stacked gains:
    ``kp e + kd (target_vel - v)``, then saturated."""
    out = np.subtract(target_vel, v)
    np.multiply(kd, out, out)
    np.add(np.multiply(kp, e), out, out)
    saturate(out, a_max, dot_bound(a_max))
    return out


def test_stacked_gains_match_the_two_gain_command():
    rng = np.random.default_rng(34)
    saturated = 0
    for trial in range(400):
        n = int(rng.integers(1, MAX_SYNTHESIS_N + 1))
        stack = () if trial % 4 else (int(rng.integers(1, 4)),)
        e, v, target_vel = (
            rng.normal(size=stack + (n, 3)) * rng.choice([1e-3, 1.0, 10.0]) for _ in range(3)
        )
        kp, kd = 10 ** rng.uniform(-2, 3, 2)
        a_max = 10 ** rng.uniform(-1, 2)
        want = two_gain_command(e, v, target_vel, kp, kd, a_max)
        saturated += (row_norms(want) == a_max).any()
        got = pf_control_all(np.stack((target_vel - v, e)), PDGains(kp, kd, a_max, n))
        assert got.tobytes() == want.tobytes()
    assert 50 < saturated < 350  # both the skip and the scaling


# limits whose squares underflow, sit at and just above dot_bound's
# smallest bound 2**-960, are subnormal, ordinary, near the top, overflow
DOT_LIMITS = [1e-300, 2.0**-480, 2.0**-480 * (1 + 2.0**-40), 1.3e-160, 0.3, 1.0, 5.0, 10.0,
              1e150, 1e300]
# dot_bound's margin in ulps (2**-53) of a norm: a sum of squares whose
# root lies about this far under the limit is where the one dot first passes
DOT_EDGE_ULPS = 2**20 + 8


def near_the_dot_edge(n):
    """Ulps of a norm a little over and under ``DOT_EDGE_ULPS`` below the
    limit, for ``n`` rows."""
    return st.integers(-DOT_EDGE_ULPS - 3 * n - 30, -DOT_EDGE_ULPS + 3 * n + 30)


@st.composite
def rows_for_the_dot_test(draw):
    """``(rows, limit)``: ``n`` rows, 1 to 40, about a limit of
    ``DOT_LIMITS``.  Up to three rows have a norm some ulps off the limit,
    a few over or under it or about ``DOT_EDGE_ULPS`` under it; the rest are
    zero, tiny (subnormal entries, or ``2**-30`` of the limit), or share the
    limit's square so that the root of the sum of all the squares lies as
    far off it; any entry may be NaN or infinite."""
    limit = draw(st.sampled_from(DOT_LIMITS))
    n = draw(st.integers(1, MAX_SYNTHESIS_N))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rest = draw(st.sampled_from(["zero", "subnormal", "tiny", "share"]))
    if rest == "zero":
        rows = np.zeros((n, 3))
        rows[rng.random((n, 3)) < 0.5] = -0.0
    elif rest == "subnormal":
        rows = rng.integers(-3, 4, (n, 3)) * 5e-324
    else:
        rows = rng.normal(size=(n, 3))
        rows /= np.sqrt((rows * rows).sum())  # one unit of squares in all
        ulps = draw(st.one_of(st.integers(-6, 8), near_the_dot_edge(n)))
        scale = 2.0**-30 if rest == "tiny" else 1.0 + ulps * 2.0**-53
        rows *= limit * scale
    for _ in range(draw(st.integers(0 if rest == "share" else 1, 3))):
        i, axis = draw(st.integers(0, n - 1)), draw(st.integers(0, 2))
        ulps = draw(st.one_of(st.integers(-6, 6), near_the_dot_edge(n)))
        norm = limit * (1.0 + ulps * 2.0**-53)
        if draw(st.booleans()):  # on an axis: the norm is exact
            rows[i] = 0.0
            rows[i, axis] = norm * draw(st.sampled_from([1.0, -1.0]))
        else:
            direction = rng.normal(size=3)
            rows[i] = direction * (norm / math.hypot(*direction))
    special = draw(st.sampled_from([None, None, None, math.nan, math.inf, -math.inf]))
    if special is not None:
        rows[draw(st.integers(0, n - 1)), draw(st.integers(0, 2))] = special
    return rows, limit


@settings(max_examples=600, deadline=None)
@given(case=rows_for_the_dot_test())
def test_dot_fast_path_never_skips_a_factor_that_is_not_one(case):
    # saturate skips the multiply when one dot of every entry is at most
    # dot_bound: then the unconditional factor is exactly 1.0 on every row
    # (the bytes are pinned where every row of finite entries has a finite
    # norm; where one overflows the call is refused and leaves the rows)
    rows, limit = case
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        norms = row_norms(rows)
        factor = limit / np.maximum(norms, limit)
        expected = rows * factor[:, None]
        if np.vdot(rows, rows) <= dot_bound(limit):
            assert (factor == 1.0).all()
        if (np.isinf(norms) & np.isfinite(rows).all(axis=1)).any():
            expected = rows.copy()
            with pytest.raises(NumericError, match="overflows in a saturation"):
                saturate(rows, limit, dot_bound(limit))
        else:
            saturate(rows, limit, dot_bound(limit))
    assert rows.tobytes() == expected.tobytes()


def test_dot_fast_path_is_taken_and_refused_near_the_limit():
    # rows whose squares sum to a little under the limit's square, every
    # factor 1.0: the one dot passes on some, and on the others the factor
    # keeps the same bytes
    rng = np.random.default_rng(35)
    passed = refused = 0
    for trial in range(2000):
        n = int(rng.integers(1, MAX_SYNTHESIS_N + 1))
        limit = float(rng.choice([0.3, 1.0, 5.0, 10.0]))
        rows = rng.normal(size=(n, 3))
        rows *= limit / np.sqrt((rows * rows).sum())
        rows *= 1.0 - int(rng.integers(0, 2 * DOT_EDGE_ULPS)) * 2.0**-53
        factor = limit / np.maximum(row_norms(rows), limit)
        if not (factor == 1.0).all():
            continue
        if np.vdot(rows, rows) <= dot_bound(limit):
            passed += 1
        else:
            refused += 1
        expected = rows.copy()
        saturate(rows, limit, dot_bound(limit))
        assert rows.tobytes() == expected.tobytes()
    assert passed > 100 and refused > 100


def signed_gammas(rng, shape):
    """Virtual times over the mission range and far beyond, with signed
    zeros."""
    gammas = rng.uniform(0.0, 60.0, shape) * rng.choice([1e-3, 1.0, 30.0], shape)
    gammas[rng.random(shape) < 0.2] *= -1.0
    gammas[rng.random(shape) < 0.1] = 0.0
    gammas[rng.random(shape) < 0.1] = -0.0
    return gammas


def test_exp_on_contiguous_rows_matches_the_strided_column():
    # the envelope was one exp on a strided column of the target stack; the
    # lateral chain takes it on both contiguous rows of a (2, ..., n) array
    rng = np.random.default_rng(36)
    decay = np.array(-0.6)
    for n in range(1, MAX_SYNTHESIS_N + 1):
        for stack in [(), (3,), (256,)]:
            gammas = signed_gammas(rng, stack + (n,))
            column = np.empty((2,) + stack + (n, 3))[1, ..., 0]
            rows = np.empty((2,) + stack + (n,))
            rows[...] = gammas
            with np.errstate(over="ignore"):
                np.exp(np.multiply(decay, gammas, column), column)
                np.exp(np.multiply(decay, rows, rows), rows)
            assert rows[0].tobytes() == column.tobytes()
            assert rows[1].tobytes() == column.tobytes()


def test_stacked_law_gains_match_two_scalar_multiplies():
    # [a | -b] times [L gamma | gamma_dot - rate] in one multiply, against
    # a (L gamma) and -b (gamma_dot - rate) as two; then the whole law
    # against its six-call spelling, one sample (np.dot) and stacks (matmul)
    rng = np.random.default_rng(37)
    for n in range(1, MAX_SYNTHESIS_N + 1):
        for trial in range(6):
            a, neg_b = (np.array(g) for g in 10 ** rng.uniform(-3, 4, 2) * [1.0, -1.0])
            scratch = rng.normal(size=(2, n)) * rng.choice([1e-300, 1e-3, 1.0, 1e3], (2, n))
            scratch[rng.random((2, n)) < 0.2] = -0.0
            scratch[rng.random((2, n)) < 0.1] = 0.0
            gains = np.empty((2, n))
            gains[0], gains[1] = a, neg_b
            got = np.multiply(gains, scratch)
            assert got[0].tobytes() == np.multiply(a, scratch[0]).tobytes()
            assert got[1].tobytes() == np.multiply(neg_b, scratch[1]).tobytes()

            stack = () if trial % 2 else (int(rng.integers(1, 5)),)
            lap = random_laplacian(n, rng, symmetric=False)
            gamma = signed_gammas(rng, stack + (n,))
            gamma_dot, alpha = rng.uniform(0.5, 1.5, (2,) + stack + (n,))
            rate = np.array(rng.uniform(0.9, 1.2))
            want = six_call_law(gamma, gamma_dot, lap, alpha, rate, a, neg_b)
            assert coordination_accel_matrix(
                gamma, gamma_dot, lap, alpha, rate, a, neg_b
            ).tobytes() == want.tobytes()
            if not stack:  # the loop's form: same-shape gains, bound views
                out = np.empty(n)
                _bind_accel(alpha, gains, out.shape)(gamma, gamma_dot, lap, rate, out)
                assert out.tobytes() == want.tobytes()


def six_call_law(gamma, gamma_dot, lap, alpha, rate, a, neg_b):
    """The coordination law as it was formed before the stacked gains:
    ``neg_b (gamma_dot - rate) - a (L gamma) - alpha``, one multiply per
    gain."""
    out = np.empty(gamma.shape)
    if out.ndim == 1:
        np.dot(lap, gamma, out)
    else:
        np.matmul(lap, gamma[..., None], out[..., None])
    np.multiply(a, out, out)
    scratch = np.subtract(gamma_dot, rate)
    np.multiply(neg_b, scratch, scratch)
    np.subtract(scratch, out, out)
    return np.subtract(out, alpha, out)


def two_chain_pos_vel(fam, gammas):
    """``[pos | vel]`` as ``pos_vel_all`` formed it before the stacked
    lateral chain: the lateral position and rate as two chains of 1-D
    operations on the strided columns of the result."""
    out = np.empty((2,) + gammas.shape[:-1] + (fam.n, 3))
    vel_pos = out[::-1]
    vel_pos.swapaxes(0, -2)[...] = [[1.0, 0.0, 0.0], [0.0, 0.0, 2.0]]
    downrange, lateral, rate = vel_pos[1, ..., 0], vel_pos[1, ..., 1], vel_pos[0, ..., 1]
    decay, three, five, rate_coef = (np.array(c) for c in (-0.6, 3.0, 5.0, 1.8))
    np.exp(np.multiply(decay, gammas, downrange), downrange)
    np.multiply(three, gammas, lateral)
    np.add(five, lateral, lateral)
    np.multiply(downrange, lateral, lateral)
    np.multiply(lateral, fam.sines, lateral)
    np.subtract(fam.offsets, lateral, lateral)
    np.multiply(rate_coef, gammas, rate)
    np.multiply(rate, downrange, rate)
    np.multiply(rate, fam.sines, rate)
    downrange[...] = gammas
    return out


def test_stacked_lateral_chain_matches_the_two_chains():
    rng = np.random.default_rng(38)
    for n in range(1, MAX_SYNTHESIS_N + 1):
        fam = LaneSweepFamily(
            rng.normal(size=n) * 5.0, rng.uniform(-math.pi, math.pi, n), n=n
        )
        for shape in [(n,), (4, n), (256, n), (3, 1), (2, 5, 1)]:
            gammas = signed_gammas(rng, shape)
            gammas.flat[:2] = 0.0, -0.0
            with np.errstate(over="ignore", invalid="ignore"):
                want = two_chain_pos_vel(fam, gammas)
                got = fam.pos_vel_all(gammas)
            assert got.tobytes() == want.tobytes()
