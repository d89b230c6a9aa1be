"""Set-up calls numpy's LAPACK gufuncs directly on the premise that each
``numpy.linalg`` wrapper it replaces runs that same gufunc under the same
``errstate``; a numpy that breaks the premise fails here rather than
shifting the bits of every certificate."""

import numpy as np
import pytest

from coordsim import _linalg
from coordsim.coordalg import _kronecker_sum, build_projection, reduced_laplacian
from coordsim.digraph import Digraph, laplacians
from conftest import random_digraph, random_jointly_connected_family


def same(got, want):
    assert type(got) is type(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # tells -0.0 from 0.0, keeps NaN bits


def defective_laplacians():
    """Laplacians of digraphs with a Jordan block, float and reduced: a
    directed chain (eigenvalue 1, one eigenvector), a chain into a cycle,
    and the shipped family's summed reduced Laplacian, whose double
    eigenvalue -2 comes out as a pair about 4e-8 off the real axis."""
    chain = Digraph(4, [(2, 1), (3, 2), (4, 3)])
    tail = Digraph(5, [(2, 1), (3, 2), (4, 3), (5, 4), (3, 5)])
    pairs = ([(1, 3), (4, 2)], [(2, 3), (5, 2)], [(2, 3), (4, 2)])
    shipped = [Digraph(5, edges) for edges in pairs]
    laps = [laplacians([d]).astype(float)[0] for d in (chain, tail)]
    reduced = reduced_laplacian(build_projection(5), laplacians(shipped).astype(float))
    return laps + [-sum(reduced), laplacians(shipped).astype(float)]


def signed_zero_matrices():
    z = np.array([[-0.0, 0.0, -0.0], [0.0, -0.0, 0.0], [-0.0, -0.0, -0.0]])
    diag = np.diag([-0.0, 2.0, -3.0]) * -1.0  # -0.0 off the diagonal
    return [z, diag, np.stack((z, diag))]


def matrix_cases():
    rng = np.random.default_rng(31)
    general = [rng.normal(size=(k, k)) for k in (1, 2, 4, 7)]
    rotation = np.array([[0.0, -1.0], [1.0, 0.0]])  # eigenvalues +-i
    stack = rng.normal(size=(6, 4, 4))
    drawn = [random_digraph(rng, well_conditioned=False) for _ in range(20)]
    digraphs = [laplacians([d]).astype(float)[0] for d in drawn]
    return general + [rotation, stack, stack[:, ::-1, ::-1], stack.swapaxes(1, 2)] + digraphs


def symmetric(a):
    return 0.5 * (a + a.swapaxes(-1, -2))


CASES = matrix_cases() + defective_laplacians() + signed_zero_matrices()


@pytest.mark.parametrize("i", range(len(CASES)))
def test_eigvals_match_numpy(i):
    a = CASES[i]
    same(_linalg.eigvals(a), np.linalg.eigvals(a))


def test_eigvals_real_and_complex_results_as_numpy_gives_them():
    reals = _linalg.eigvals(np.diag([3.0, -0.0, 1.0]))
    assert reals.dtype == float
    pair = _linalg.eigvals(defective_laplacians()[2])
    assert pair.dtype == complex and 0 < np.abs(pair.imag).max() < 1e-6


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_eigvals_of_a_non_finite_matrix_raise_as_numpy(bad):
    a = np.eye(3)
    a[1, 2] = bad
    with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs") as want:
        np.linalg.eigvals(a)
    with pytest.raises(np.linalg.LinAlgError) as got:
        _linalg.eigvals(a)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("i", range(len(CASES)))
def test_eigvalsh_and_svdvals_match_numpy(i):
    a = CASES[i]
    same(_linalg.eigvalsh(symmetric(a)), np.linalg.eigvalsh(symmetric(a)))
    same(_linalg.svdvals(a), np.linalg.svd(a, compute_uv=False))


@pytest.mark.parametrize("i", range(len(CASES)))
def test_norm_matches_numpy(i):
    a = CASES[i]
    same(_linalg.norm(a), np.linalg.norm(a))
    same(_linalg.norm(a[..., 0]), np.linalg.norm(a[..., 0]))


def test_norm_sums_in_memory_order_as_numpy():
    # entries spread over twelve decades: a transposed view summed in
    # index order rounds differently
    rng = np.random.default_rng(34)
    for shape in ((16, 16), (50, 70)) * 10:
        a = rng.normal(size=shape) * 10 ** rng.uniform(-6, 6, size=shape)
        same(_linalg.norm(a.T), np.linalg.norm(a.T))


def test_norm_of_an_empty_array_matches_numpy():
    same(_linalg.norm(np.zeros((0, 3))), np.linalg.norm(np.zeros((0, 3))))


def test_solve_matches_numpy_on_the_lyapunov_operators():
    rng = np.random.default_rng(32)
    for _ in range(30):
        family = random_jointly_connected_family(rng)
        n, m = family[0].n, len(family)
        lbar = sum(reduced_laplacian(build_projection(n), laplacians(family).astype(float)))
        lhs = _kronecker_sum(-lbar.T)
        rhs = (-float(m) * np.eye(n - 1)).ravel()
        same(_linalg.solve(lhs, rhs), np.linalg.solve(lhs, rhs))
        # a stack of right-hand sides, and one with signed zeros
        many = np.stack((rhs, -rhs, rhs * 0.0, -rhs * 0.0), axis=1)
        same(_linalg.solve(lhs, many), np.linalg.solve(lhs, many))
        pair = np.stack((lhs, lhs.T))
        same(_linalg.solve(pair, many), np.linalg.solve(pair, many))


def test_solve_matches_numpy_on_general_systems():
    rng = np.random.default_rng(33)
    for k in (1, 2, 5, 16):
        a, b = rng.normal(size=(3, k, k)), rng.normal(size=(3, k, 2))
        same(_linalg.solve(a, b), np.linalg.solve(a, b))
        same(_linalg.solve(a[0], b[0, :, 0]), np.linalg.solve(a[0], b[0, :, 0]))


@pytest.mark.parametrize(
    "a",
    [
        np.zeros((3, 3)),
        np.array([[1.0, 2.0], [2.0, 4.0]]),
        _kronecker_sum(np.zeros((3, 3))),  # the Lyapunov operator of a disconnected family
        -_kronecker_sum(laplacians([Digraph(3, [(2, 1)])]).astype(float)[0]),
    ],
    ids=["zeros", "rank-one", "lyapunov-of-zero", "lyapunov-of-a-laplacian"],
)
def test_singular_system_raises_never_nan(a):
    b = np.ones(len(a))
    with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
        np.linalg.solve(a, b)
    with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
        _linalg.solve(a, b)
    with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
        _linalg.solve(np.stack((np.eye(len(a)), a)), b[:, None])


def test_errstate_is_restored_after_a_failure():
    before = np.geterr()
    with pytest.raises(np.linalg.LinAlgError):
        _linalg.solve(np.zeros((2, 2)), np.ones(2))
    assert np.geterr() == before and np.geterrcall() is None
