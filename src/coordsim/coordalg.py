"""Switching-law synthesis: projection, reduced Laplacians, Lyapunov
solution, per-topology decay matrices, dwell-time and gain bounds.

The chain is: build the projection ``Q`` onto the subspace orthogonal to
the consensus direction, reduce each topology Laplacian to ``Q L Q^T``,
solve one Lyapunov equation against the summed reduced Laplacian of the
jointly connected family, and derive from its solution ``P`` the
quadratic forms ``H_i``, the admissible threshold parameters ``mu_i``,
and the guaranteed minimum dwell time between switches.

The dwell time is a closed form.  Per topology one dwell term falls in
theta as ``1/theta^2`` and one rises as ``ln(theta)``, so the supremum
over ``(1, THETA_CAP]`` of their minimum lies where they cross,
``theta^2 ln(theta) = c r``, or at the cap; Lambert W solves the crossing
(derived at ``_dwell_time``).  The argument is the average dwell-time one
of Hespanha & Morse (CDC 1999).

All matrix norms in the dwell-time and gain formulas are spectral
(induced 2-) norms.  Eigenvalues of nonsymmetric matrices come from a
dense general eigensolver; symmetric matrices are explicitly symmetrized
and handed to a symmetric eigensolver.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .digraph import Digraph, jointly_connected, laplacians
from .errors import NumericError, SynthesisError

# Hurwitz margin.  Integer Laplacians at the node counts used here keep
# true eigenvalues well separated from this scale.
HURWITZ_TOL = 1e-10

LYAPUNOV_RESIDUAL_TOL = 1e-10

# The dwell-time supremum is taken over theta in (1, THETA_CAP].
THETA_CAP = 1e4
_LOG_THETA_CAP = math.log(THETA_CAP)


@dataclass(frozen=True)
class ProjectionMatrix:
    """Orthonormal basis of the orthogonal complement of the all-ones
    vector, stacked as an ``(n-1) x n`` matrix.

    Invariants (verified at construction, tolerance 1e-12):
    ``Q 1 = 0``, ``Q Q^T = I``, ``Q^T Q = I - 11^T/n``.
    """

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1] - 1:
            raise ValueError(f"projection must be (n-1) x n, got {q.shape}")
        n = q.shape[1]
        if np.abs(q @ np.ones(n)).max() > 1e-12:
            raise ValueError("projection rows must be orthogonal to the ones vector")
        if np.linalg.norm(q @ q.T - np.eye(n - 1)) > 1e-12:
            raise ValueError("projection rows must be orthonormal")
        if np.linalg.norm(q.T @ q - (np.eye(n) - np.ones((n, n)) / n)) > 1e-12:
            raise ValueError("projection must satisfy Q^T Q = I - 11^T/n")
        q = q.copy()
        q.setflags(write=False)
        object.__setattr__(self, "q", q)

    @property
    def n(self) -> int:
        return self.q.shape[1]


@functools.lru_cache(maxsize=64)
def build_projection(n: int) -> ProjectionMatrix:
    """Deterministic projection for ``n`` nodes (Helmert-style rows).

    Row ``k`` (1-based) carries ``k`` entries ``1/sqrt(k(k+1))`` followed
    by one entry ``-k/sqrt(k(k+1))`` and zeros.  Closed form, reproducible,
    and satisfies the three projection identities up to rounding.  Memoized
    per ``n``: the read-only result is shared, so its invariants are
    verified once per ``n``.
    """
    if n < 2:
        raise ValueError(f"projection needs at least 2 nodes, got {n}")
    q = np.zeros((n - 1, n))
    for k in range(1, n):
        c = 1.0 / math.sqrt(k * (k + 1))
        q[k - 1, :k] = c
        q[k - 1, k] = -k * c
    return ProjectionMatrix(q)


def reduced_laplacian(q: ProjectionMatrix, l: np.ndarray) -> np.ndarray:
    """Project a Laplacian, or each of a stack of them, off the consensus
    direction: ``Q L Q^T``."""
    l = np.asarray(l, dtype=float)
    if l.shape[-2:] != (q.n, q.n):
        raise ValueError(f"Laplacian shape {l.shape} does not match projection n={q.n}")
    return q.q @ l @ q.q.T


def _kronecker_sum(b: np.ndarray) -> np.ndarray:
    """``I (x) B + B (x) I`` for a square ``B``: the products and the single
    addition of ``np.kron(I, B) + np.kron(B, I)``, so the same bits, signed
    zeros included, without its general-purpose reshaping."""
    k = b.shape[0]
    eye = np.eye(k)
    out = np.multiply.outer(eye, b) + np.multiply.outer(b, eye)
    return out.transpose(0, 2, 1, 3).reshape(k * k, k * k)


def solve_lyapunov(lbar_union: np.ndarray, m: int) -> np.ndarray:
    """Solve ``(-Lu)^T P + P (-Lu) = -m I`` for the unique symmetric
    positive definite ``P``.

    Solved through the vectorized linear system
    ``(I (x) A^T + A^T (x) I) vec(P) = vec(-m I)`` with ``A = -Lu``; the
    dimension is (n-1)^2, so a dense solve is adequate.  The result is
    symmetrized and its residual checked.

    Raises ``SynthesisError`` when ``-Lu`` is not Hurwitz (the family is
    not jointly connected) and ``NumericError`` when the residual exceeds
    the tolerance.
    """
    a = -np.asarray(lbar_union, dtype=float)
    k = a.shape[0]
    if a.shape != (k, k):
        raise ValueError(f"expected square matrix, got shape {a.shape}")
    if np.max(np.real(np.linalg.eigvals(a))) >= -HURWITZ_TOL:
        raise SynthesisError(
            "summed reduced Laplacian is not Hurwitz: family not jointly connected"
        )
    lhs = _kronecker_sum(a.T)
    rhs = (-float(m) * np.eye(k)).flatten(order="F")
    p = np.linalg.solve(lhs, rhs).reshape((k, k), order="F")
    p = 0.5 * (p + p.T)
    residual = np.linalg.norm(a.T @ p + p @ a + m * np.eye(k))
    if residual > LYAPUNOV_RESIDUAL_TOL:
        raise NumericError(
            f"Lyapunov solve residual {residual:.3e} exceeds {LYAPUNOV_RESIDUAL_TOL:.0e}"
        )
    return p


@dataclass(frozen=True)
class SwitchingCertificate:
    """Everything that makes the topology-switching law executable.

    Synthesized once per family by :func:`build_certificate`:

    - ``q``: projection used throughout,
    - ``laplacians``: float ``(m, n, n)`` stack of the Laplacians ``L_i``,
    - ``reduced_laplacians``: per-topology ``Q L_i Q^T``,
    - ``p``: Lyapunov solution (symmetric positive definite),
    - ``h_matrices``: ``(-Lbar_i)^T P + P (-Lbar_i)``, symmetric; they sum
      to ``-m I`` by construction,
    - ``mu_list``: per-topology threshold parameters in
      ``(0, 1/lambda_max(P))``,
    - ``dwell_bound``: guaranteed minimum time between switches (seconds),
    - ``gues_overshoot``: sqrt(lambda_max(P)/lambda_min(P)), the overshoot
      constant of the auxiliary system's exponential envelope,
    - ``max_laplacian_norm``: largest spectral norm among the full
      (unreduced) topology Laplacians, computed on first read (only the
      gain conditions read it) and then kept,
    - ``mu_min``: min of ``mu_list``.

    ``reduced_laplacians`` and ``h_matrices`` are read-only views of one
    ``(m, n-1, n-1)`` stack each.  ``lambda_max_p`` is cached for the ``mu``
    cap, the dwell bound and the switching threshold, which reads it once
    per chunk of the schedule.
    """

    q: ProjectionMatrix
    laplacians: np.ndarray
    reduced_laplacians: tuple[np.ndarray, ...]
    p: np.ndarray
    h_matrices: tuple[np.ndarray, ...]
    mu_list: tuple[float, ...]
    dwell_bound: float
    gues_overshoot: float
    mu_min: float
    lambda_max_p: float
    lambda_min_p: float
    n: int
    m: int

    @functools.cached_property
    def max_laplacian_norm(self) -> float:
        return float(max(_spectral_norms(self.laplacians)))


def _spectral_norms(matrices) -> np.ndarray:
    """Spectral norm of each of the equally shaped ``matrices``, a stack or
    a sequence: the largest singular value, as ``np.linalg.norm(x, 2)``
    takes it, from one batched SVD."""
    return np.linalg.svd(np.asarray(matrices), compute_uv=False)[:, 0]


def _lambert_w(x: float) -> float:
    """Principal branch of Lambert W, the ``w >= 0`` with ``w e^w = x``,
    for ``0 <= x <= 2e9``: Halley's iteration from ``log1p(x)``, which lies
    above the root, on Python floats."""
    w = math.log1p(x)
    for _ in range(32):
        e = math.exp(w)
        f = w * e - x
        step = f / (e * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
        w -= step
        if abs(step) <= 1e-15 * w:
            break
    return w


def _dwell_time(reduced_laplacians, h_matrices, mu_list, lambda_max_p, a, b):
    """From the ``(m, n-1, n-1)`` stacks of the ``Lbar_i`` and ``H_i``: the
    supremum over theta in ``(1, THETA_CAP]`` of the per-topology
    minimum of the two dwell terms
    ``t1_i = (1 - mu_i lambda_max(P)) / ((a/b) theta^2 nu_i)`` and
    ``t2_i = ln(theta) / ((a/b) |Lbar_i|)``, with
    ``nu_i = |Lbar_i^T (H_i + I) + (H_i + I) Lbar_i|``.  That minimum is
    ``min(c / theta^2, ln(theta) / r) / (a/b)`` with
    ``c = min_i (1 - mu_i lambda_max(P)) / nu_i`` over ``nu_i > 0`` and
    ``r = max_i |Lbar_i|``.  At the crossing ``u = ln(theta)`` solves
    ``2u e^(2u) = 2 c r``, so the bound is
    ``min(W(2 c r) / 2, ln THETA_CAP) / ((a/b) r)``.  Empty topologies
    (``nu_i = 0``) do not bind; past the cap's crossing W is not called.
    A gain ratio that underflows to 0 gives ``inf``, one that overflows
    0.0: the limits of the two terms."""
    m, k = reduced_laplacians.shape[:2]
    h_eye = h_matrices + np.eye(k)
    nus = reduced_laplacians.swapaxes(1, 2) @ h_eye + h_eye @ reduced_laplacians
    norms = _spectral_norms(np.concatenate((reduced_laplacians, nus))).tolist()
    c_terms = [(1.0 - mu * lambda_max_p) / nu for mu, nu in zip(mu_list, norms[m:]) if nu > 0]
    r = max(norms[:m])
    cr = float(min(c_terms, default=math.inf)) * r
    u = _LOG_THETA_CAP if cr >= THETA_CAP**2 * _LOG_THETA_CAP else _lambert_w(2.0 * cr) / 2.0
    den = float(a / b) * r
    return u / den if den else math.inf


def build_certificate(
    family: list[Digraph], mu_list: list[float], a: float, b: float
) -> SwitchingCertificate:
    """Synthesize the switching certificate for a jointly connected family.

    Validates the admissibility of every ``mu_i`` against the synthesized
    ``P`` and raises ``ValueError`` naming the admissible interval when one
    falls outside ``(0, 1/lambda_max(P))``.
    """
    if not family:
        raise ValueError("topology family is empty")
    if len(mu_list) != len(family):
        raise ValueError(
            f"need one mu per topology: got {len(mu_list)} mu for {len(family)} topologies"
        )
    if a <= 0:
        raise ValueError(f"gain a must be positive, got {a}")
    if b <= 0:
        raise ValueError(f"gain b must be positive, got {b}")
    n = family[0].n
    if n < 2:
        raise ValueError("certificate synthesis needs at least 2 nodes")
    if not jointly_connected(family):
        raise SynthesisError("topology family is not jointly connected")

    m = len(family)
    q = build_projection(n)
    laps = laplacians(family).astype(float)
    reduced = reduced_laplacian(q, laps)
    p = solve_lyapunov(sum(reduced), m)  # 0 + Lbar_1 + ..., the summation order pinned

    eig_p = np.linalg.eigvalsh(p)
    lambda_min_p, lambda_max_p = float(eig_p[0]), float(eig_p[-1])
    mu_cap = 1.0 / lambda_max_p
    for i, mu in enumerate(mu_list):
        if not (0.0 < mu < mu_cap):
            raise ValueError(
                f"mu[{i}]={mu} outside admissible interval (0, {mu_cap:.6g})"
            )

    neg = -reduced
    h = neg.swapaxes(1, 2) @ p + p @ neg
    h = 0.5 * (h + h.swapaxes(1, 2))

    dwell = _dwell_time(reduced, h, mu_list, lambda_max_p, a, b)

    for arr in (laps, reduced, p, h):
        arr.setflags(write=False)
    return SwitchingCertificate(
        q=q,
        laplacians=laps,
        reduced_laplacians=tuple(reduced),
        p=p,
        h_matrices=tuple(h),
        mu_list=tuple(float(mu) for mu in mu_list),
        dwell_bound=dwell,
        gues_overshoot=math.sqrt(lambda_max_p / lambda_min_p),
        mu_min=float(min(mu_list)),
        lambda_max_p=lambda_max_p,
        lambda_min_p=lambda_min_p,
        n=n,
        m=m,
    )


@dataclass(frozen=True)
class GainCheck:
    name: str
    lhs: float
    rhs: float
    passed: bool


@dataclass(frozen=True)
class GainReport:
    """Per-inequality record of the sufficient gain conditions."""

    checks: tuple[GainCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "checks": [
                {"name": c.name, "lhs": c.lhs, "rhs": c.rhs, "passed": c.passed}
                for c in self.checks
            ],
            "passed": self.passed,
        }


def validate_gains(a: float, b: float, cert: SwitchingCertificate) -> GainReport:
    """Evaluate the sufficient conditions on the coordination gains.

    These are conservative sufficient conditions; failing them does not
    mean the closed loop diverges, only that the guaranteed convergence
    rate bound is not underwritten for these gains.
    """
    mn = cert.max_laplacian_norm
    k2 = cert.gues_overshoot**2
    mu = cert.mu_min
    b_floor = math.sqrt((mn + 4.0 * mn**2 * k2 / mu + mu / (4.0 * k2)) * a)
    checks = (
        GainCheck("a > 0", float(a), 0.0, a > 0),
        GainCheck(
            "b >= sqrt((M + 4 M^2 k^2/mu + mu/(4 k^2)) a)",
            float(b),
            float(b_floor),
            b >= b_floor,
        ),
        GainCheck("b >= a M", float(b), float(a * mn), b >= a * mn),
    )
    return GainReport(checks)


def convergence_rate_bound(a: float, b: float, cert: SwitchingCertificate) -> float:
    """Guaranteed floor on the coordination-error decay rate:
    ``(a / 6b) * (mu_min / overshoot^2)``, in 1/seconds."""
    return (a / (6.0 * b)) * (cert.mu_min / cert.gues_overshoot**2)
