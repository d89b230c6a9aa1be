"""numpy's LAPACK gufuncs, called without their Python wrappers.

``np.linalg.eigvals`` and its siblings convert and check their arguments
in Python and pass the ``__array_function__`` dispatcher before they call
one of the gufuncs of ``numpy.linalg._umath_linalg``, under an ``errstate``
that turns LAPACK's failure flag into ``LinAlgError``.  Set-up makes a
handful of such calls on small float64 matrices, where that Python costs
more than LAPACK's own work on a 4 x 4 eigensolve.  Each function here
calls the same gufunc with the same signature under the same ``errstate``
mapping, so the bits are the same, and a singular system or a
non-convergence still raises ``LinAlgError``.  The gufuncs are private to
numpy, so the package requires numpy 2.x, and ``tests/test_linalg.py``
checks every function byte for byte against ``numpy.linalg``.

Arguments are real arrays of the shapes ``numpy.linalg`` takes, square
matrices or stacks of them; nothing is converted but the gufunc's own cast
to float64.
"""

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg


def _raising(message: str) -> dict:
    """``errstate`` keywords under which a LAPACK failure raises
    ``LinAlgError(message)`` and no other floating-point flag is reported:
    those of the ``numpy.linalg`` wrappers."""

    def fail(err, flag):
        raise LinAlgError(message)

    return dict(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")


_SINGULAR = _raising("Singular matrix")
_EIGENVALUES = _raising("Eigenvalues did not converge")
_SVD = _raising("SVD did not converge")


def eigvals(a: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvals(a)``: complex eigenvalues, real when every
    imaginary part is zero; a non-finite entry raises ``LinAlgError``."""
    if not np.isfinite(a).all():
        raise LinAlgError("Array must not contain infs or NaNs")
    with np.errstate(**_EIGENVALUES):
        w = _umath_linalg.eigvals(a, signature="d->D")
    return w if w.imag.any() else w.real


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh(a)``: ascending eigenvalues from the lower
    triangle."""
    with np.errstate(**_EIGENVALUES):
        return _umath_linalg.eigvalsh_lo(a, signature="d->d")


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(a, b)``: ``b`` is one vector only when it is 1-D."""
    gufunc = _umath_linalg.solve1 if b.ndim == 1 else _umath_linalg.solve
    with np.errstate(**_SINGULAR):
        return gufunc(a, b, signature="dd->d")


def svdvals(a: np.ndarray) -> np.ndarray:
    """``np.linalg.svd(a, compute_uv=False)``: descending singular
    values."""
    with np.errstate(**_SVD):
        return _umath_linalg.svd(a, signature="d->d")


def norm(x: np.ndarray) -> np.float64:
    """``np.linalg.norm(x)`` of a float array: the root of one dot of its
    entries, in memory order, with themselves."""
    x = x.ravel(order="K")
    return np.sqrt(x.dot(x))
