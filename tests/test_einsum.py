"""The closed loop calls numpy's C einsum kernel directly on the premise that
``np.einsum(..., optimize=False)`` runs that same kernel; a numpy that breaks
the premise fails here rather than shifting the bits of every run."""

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


@pytest.mark.parametrize("name", CASES)
def test_row_dots_match_numpy_einsum_bit_for_bit(name):
    a = CASES[name]
    b = a[::-1].copy() * -1.5 if a.size else a.copy()
    for x, y in ((a, a), (a, b)):
        got = einsum("ij,ij->i", x, y)
        want = np.einsum("ij,ij->i", x, y, optimize=False)
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
        got = einsum("ij,ij->i", x, y)
        assert got.tobytes() == np.einsum("ij,ij->i", x, y, optimize=False).tobytes()
