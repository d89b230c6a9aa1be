"""Switching-law synthesis: projection, reduced Laplacians, Lyapunov
solution, per-topology decay matrices, dwell-time and gain bounds.

The chain is: build the projection ``Q`` onto the subspace orthogonal to
the consensus direction, reduce each topology Laplacian to ``Q L Q^T``,
solve one Lyapunov equation against the summed reduced Laplacian of the
jointly connected family, and derive from its solution ``P`` the
quadratic forms ``H_i``, the admissible threshold parameters ``mu_i``,
and the guaranteed minimum dwell time between switches.

All matrix norms in the dwell-time and gain formulas are spectral
(induced 2-) norms.  Eigenvalues of nonsymmetric matrices come from a
dense general eigensolver; symmetric matrices are explicitly symmetrized
and handed to a symmetric eigensolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .digraph import Digraph, jointly_connected, laplacian
from .errors import NumericError, SynthesisError

# Eigenvalue "zero" in connectivity counting; Hurwitz margin.  Integer
# Laplacians at the node counts used here keep true eigenvalues well
# separated from these scales.
ZERO_EIG_TOL = 1e-8
HURWITZ_TOL = 1e-10

LYAPUNOV_RESIDUAL_TOL = 1e-10

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# The dwell-time search grid on (1, 1e4] and the logarithm of each point,
# taken with ``math.log`` as the refinement's ``g`` takes it; read-only.
_THETA_GRID = np.logspace(math.log10(1.0 + 1e-6), 4.0, 2000)
_LOG_THETA_GRID = np.fromiter(map(math.log, _THETA_GRID.tolist()), float, len(_THETA_GRID))
_THETA_GRID.setflags(write=False)
_LOG_THETA_GRID.setflags(write=False)


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


def build_projection(n: int) -> ProjectionMatrix:
    """Deterministic projection for ``n`` nodes (Helmert-style rows).

    Row ``k`` (1-based) carries ``k`` entries ``1/sqrt(k(k+1))`` followed
    by one entry ``-k/sqrt(k(k+1))`` and zeros.  Closed form, reproducible,
    and satisfies the three projection identities up to rounding.
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
    """Project a Laplacian off the consensus direction: ``Q L Q^T``."""
    l = np.asarray(l, dtype=float)
    if l.shape != (q.n, q.n):
        raise ValueError(f"Laplacian shape {l.shape} does not match projection n={q.n}")
    return q.q @ l @ q.q.T


@dataclass(frozen=True)
class SpectrumReductionReport:
    """Result of checking a reduced Laplacian against its source.

    ``spectra_match``: the eigenvalue multiset of ``Q L Q^T`` equals that
    of ``L`` with one zero eigenvalue removed (greedy nearest pairing).
    ``hurwitz``: all eigenvalues of ``-Q L Q^T`` have real part below
    ``-HURWITZ_TOL``, which for a digraph Laplacian is equivalent to the
    digraph containing a directed spanning tree.
    ``connectivity_consistent``: set when the source digraph is supplied.
    """

    spectra_match: bool
    hurwitz: bool
    connectivity_consistent: bool | None
    max_pair_gap: float


def check_spectrum_reduction(
    l: np.ndarray, q: ProjectionMatrix, d: Digraph | None = None
) -> SpectrumReductionReport:
    """Verify the two reduction properties for one Laplacian.

    Raises ``ValueError`` when ``l`` is not a Laplacian (row sums beyond
    1e-9).  Eigenvalue pairing uses greedy nearest matching at tolerance
    ``ZERO_EIG_TOL``.
    """
    l = np.asarray(l, dtype=float)
    if l.shape != (q.n, q.n):
        raise ValueError(f"Laplacian shape {l.shape} does not match projection n={q.n}")
    if np.abs(l @ np.ones(q.n)).max() > 1e-9:
        raise ValueError("input is not a Laplacian: row sums are not zero")

    lbar = reduced_laplacian(q, l)
    ev_full = np.linalg.eigvals(l)
    ev_reduced = np.linalg.eigvals(lbar)

    # remove one zero eigenvalue (the one carried by the ones eigenvector)
    remaining = list(np.delete(ev_full, int(np.argmin(np.abs(ev_full)))))
    max_gap = 0.0
    for lam in sorted(ev_reduced, key=lambda z: (z.real, z.imag)):
        j = int(np.argmin([abs(lam - r) for r in remaining]))
        max_gap = max(max_gap, abs(lam - remaining[j]))
        remaining.pop(j)
    spectra_match = max_gap <= ZERO_EIG_TOL

    hurwitz = bool(np.all(np.real(-ev_reduced) < -HURWITZ_TOL))
    consistent = None
    if d is not None:
        from .digraph import contains_spanning_tree

        consistent = hurwitz == contains_spanning_tree(d)
    return SpectrumReductionReport(spectra_match, hurwitz, consistent, max_gap)


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
      (unreduced) topology Laplacians,
    - ``mu_min``: min of ``mu_list``.

    ``lambda_max_p`` is cached because the switching threshold evaluates
    it at every step.
    """

    q: ProjectionMatrix
    reduced_laplacians: tuple[np.ndarray, ...]
    p: np.ndarray
    h_matrices: tuple[np.ndarray, ...]
    mu_list: tuple[float, ...]
    dwell_bound: float
    gues_overshoot: float
    max_laplacian_norm: float
    mu_min: float
    lambda_max_p: float
    lambda_min_p: float
    n: int
    m: int


def _spectral_norms(matrices) -> np.ndarray:
    """Spectral norm of each of the equally shaped ``matrices``: the largest
    singular value, as ``np.linalg.norm(x, 2)`` takes it, from one batched
    SVD."""
    return np.linalg.svd(np.stack(matrices), compute_uv=False)[:, 0]


# At extreme gain ratios a/b a term's denominator overflows to inf or
# underflows to 0; the term is then 0 or inf, the value the search uses.
@np.errstate(over="ignore", divide="ignore")
def _dwell_time(reduced_laplacians, h_matrices, mu_list, lambda_max_p, a, b):
    """Supremum over theta > 1 of the per-topology minimum of the two
    dwell terms; log-grid on (1, 1e4] then golden-section refinement."""
    k = reduced_laplacians[0].shape[0]
    eye = np.eye(k)
    nus = [
        lbar.T @ (h + eye) + (h + eye) @ lbar
        for lbar, h in zip(reduced_laplacians, h_matrices)
    ]
    norms = _spectral_norms([*reduced_laplacians, *nus])
    m = len(reduced_laplacians)
    terms = [
        (1.0 - mu * lambda_max_p, nu, norm_lbar)
        for mu, norm_lbar, nu in zip(mu_list, norms[:m], norms[m:])
        if norm_lbar != 0.0  # empty topology: both terms infinite, non-binding
    ]
    if not terms:
        return math.inf

    ratio = a / b

    def g(theta: float) -> float:
        log_theta = math.log(theta)
        best = math.inf
        for margin, nu, norm_lbar in terms:
            t1 = margin / (ratio * theta * theta * nu) if nu > 0 else math.inf
            t2 = log_theta / (ratio * norm_lbar)
            best = min(best, t1, t2)
        return best

    # g on the whole grid at once, with g's operations in g's order
    grid, log_grid = _THETA_GRID, _LOG_THETA_GRID
    values = np.full(len(grid), math.inf)
    for margin, nu, norm_lbar in terms:
        if nu > 0:
            values = np.minimum(values, margin / (ratio * grid * grid * nu))
        values = np.minimum(values, log_grid / (ratio * norm_lbar))
    best = int(np.argmax(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = g(x1), g(x2)
    while (hi - lo) / lo > 1e-6:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = g(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = g(x1)
    return float(max(f1, f2))


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
    laplacians = [laplacian(d).astype(float) for d in family]
    reduced = [reduced_laplacian(q, l) for l in laplacians]
    p = solve_lyapunov(sum(reduced), m)

    eig_p = np.linalg.eigvalsh(p)
    lambda_min_p, lambda_max_p = float(eig_p[0]), float(eig_p[-1])
    mu_cap = 1.0 / lambda_max_p
    for i, mu in enumerate(mu_list):
        if not (0.0 < mu < mu_cap):
            raise ValueError(
                f"mu[{i}]={mu} outside admissible interval (0, {mu_cap:.6g})"
            )

    h_matrices = []
    for lbar in reduced:
        h = (-lbar).T @ p + p @ (-lbar)
        h_matrices.append(0.5 * (h + h.T))

    dwell = _dwell_time(reduced, h_matrices, mu_list, lambda_max_p, a, b)
    max_norm = max(_spectral_norms(laplacians))

    for arr in (*reduced, p, *h_matrices):
        arr.setflags(write=False)
    return SwitchingCertificate(
        q=q,
        reduced_laplacians=tuple(reduced),
        p=p,
        h_matrices=tuple(h_matrices),
        mu_list=tuple(float(mu) for mu in mu_list),
        dwell_bound=dwell,
        gues_overshoot=math.sqrt(lambda_max_p / lambda_min_p),
        max_laplacian_norm=float(max_norm),
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
