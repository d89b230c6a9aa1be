"""The closed loop spells some of its arithmetic more cheaply than the
straightforward form: these pins compare the two spellings byte for byte on
random data, so a numpy or BLAS whose dispatch breaks an identity fails here
rather than shifting the bits of every run."""

import numpy as np
import pytest

from coordsim._einsum import einsum
from coordsim.digraph import Digraph, laplacians
from coordsim.simharness import MAX_SYNTHESIS_N
from coordsim.vehicle import PDGains, pf_control_all, row_norms, saturate


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
    # one sample's L gamma is np.dot; the stacked post-pass keeps matmul
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
    saturate(out, a_max)
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
