"""The closed loop calls numpy's C einsum kernel directly on the premise that
``np.einsum(..., optimize=False)`` runs that same kernel; a numpy that breaks
the premise fails here rather than shifting the bits of every run."""

import itertools

import numpy as np
import pytest

from coordsim._einsum import einsum


def rows_cases():
    rng = np.random.default_rng(9)
    packed = rng.normal(size=8 * 5)  # a packed state [gamma | gamma_dot | p | v]
    wide = rng.normal(size=(6, 7))
    signed = np.array(
        [[-0.0, 0.0, -0.0], [0.0, -0.0, 0.0], [-0.0, -0.0, -0.0], [1e-300, -1e-300, 0.0]]
    )
    special = np.array([[np.inf, 1.0, 0.0], [np.nan, 2.0, -0.0], [1e308, 1e308, -1e308]])
    return {
        "contiguous": rng.normal(size=(5, 3)),
        "packed-view": packed[2 * 5 : 5 * 5].reshape(5, 3),
        "column-stride": wide[:, ::3],
        "row-stride": wide[::2, 1:4],
        "transposed": wide[:3, :5].T,
        "signed-zeros": signed,
        "inf-nan-overflow": special,
        "one-row": rng.normal(size=(1, 3)),
        "empty": np.zeros((0, 3)),
    }


CASES = rows_cases()
# the row dot as the kernels spell it, and its two-index form
SPECS = ("...j,...j->...", "ij,ij->i")
# path_error_feedback_all's row dots of the stack [e | v] against v
STACKED = "k...ij,...ij->k...i"


@pytest.mark.parametrize("name", CASES)
def test_row_dots_match_numpy_einsum_bit_for_bit(name):
    a = CASES[name]
    b = a[::-1].copy() * -1.5 if a.size else a.copy()
    for (x, y), spec in itertools.product(((a, a), (a, b)), SPECS):
        got = einsum(spec, x, y)
        want = np.einsum(spec, x, y, optimize=False)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # tells -0.0 from 0.0, keeps NaN bits


def test_random_strided_rows_match_numpy_einsum():
    rng = np.random.default_rng(10)
    for _ in range(300):
        n = int(rng.integers(1, 11))
        base = rng.normal(size=(2 * n, 9)) * rng.choice([1e-3, 1.0, 1e3])
        base[rng.random(base.shape) < 0.1] = -0.0
        x = base[:: int(rng.integers(1, 3))][:n, :: int(rng.integers(1, 4))][:, :3]
        y = base[::-1][:n, -3:]
        for spec in SPECS:
            got = einsum(spec, x, y)
            assert got.tobytes() == np.einsum(spec, x, y, optimize=False).tobytes()


def assert_stacked_row_dot_is_the_two_row_dots(stack):
    e, v = stack
    got = einsum(STACKED, stack, v)
    want = np.einsum(STACKED, stack, v, optimize=False)
    assert got.dtype == want.dtype and got.shape == want.shape == stack.shape[:-1]
    assert got.tobytes() == want.tobytes()
    # the two calls it replaces: v . e, then v . v
    assert got[0].tobytes() == einsum(SPECS[0], v, e).tobytes()
    assert got[1].tobytes() == einsum(SPECS[0], v, v).tobytes()


@pytest.mark.parametrize("name", CASES)
def test_stacked_row_dot_matches_numpy_einsum_and_the_two_row_dots(name):
    a = CASES[name]
    b = a[::-1].copy() * -1.5 if a.size else a.copy()
    for e, v in ((a, b), (b, a), (a, a)):
        assert_stacked_row_dot_is_the_two_row_dots(np.stack((e, v)))


def test_random_strided_stacks_match_the_two_row_dots():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n, samples = int(rng.integers(1, 11)), int(rng.integers(1, 5))
        base = rng.normal(size=(2, samples, 2 * n, 9)) * rng.choice([1e-3, 1.0, 1e3])
        base[rng.random(base.shape) < 0.1] = -0.0
        stack = base[..., :: int(rng.integers(1, 3)), :][..., :n, :: int(rng.integers(1, 4))]
        assert_stacked_row_dot_is_the_two_row_dots(stack[..., :3])
        assert_stacked_row_dot_is_the_two_row_dots(stack[:, 0, :, :3])
