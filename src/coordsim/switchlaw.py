"""State-feedback topology switching.

An auxiliary linear system ``phi' = -(a/b) Lbar_sigma phi`` decides the
topology.  While its quadratic decay certificate
``phi^T H_sigma phi <= -mu_sigma lambda_max(P) phi^T phi`` holds, the
active topology stays put; the first sampled violation triggers a switch
to the exact argmin of ``phi^T H_i phi``, an exact tie going to the smallest
index.  It meets its own threshold at every scale of ``phi`` (the ``H_i`` sum
to ``-m I``, every ``mu_i lambda_max(P) < 1``): one re-selection suffices.

The law reads nothing the vehicles do, so the whole switching signal is
fixed by ``(cert, phi0, a, b, dt)``: :func:`schedule` computes it for every
step of a run before the closed loop starts.  The system is linear, so one
classical RK4 step under topology ``i`` is the matrix
``T_i = R(dt A_i)``, ``R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24``; the law
propagates ``CHUNK`` steps at a time with the stacked powers of ``T_i``
and cuts a chunk at its first violation.

The threshold is checked after each full integration step and a switch
takes effect at that step boundary; no sub-step root finding.  Each switch
is late by less than one step and the auxiliary flow carries that lateness
forward, so the drift of the switch times is about first order in ``dt``:
on the shipped directed family (37 switches to 48.942 s) the k-th switch
at ``dt`` 1e-3 and 5e-4 lies within ``k dt`` of its time at 2.5e-4 (largest
ratios 0.67 and 0.75).  The plain ``k dt`` bound fails at coarse steps
(ratio 0.97 at 2e-3, 1.15 at 4e-3); the harness enforces
``dt <= dwell_bound / 10``.
"""

from __future__ import annotations

import numpy as np

from .coordalg import SwitchingCertificate
from .errors import NumericError, check_finite

CHUNK = 256  # RK4 steps propagated per matrix product


def _argmin_quadratic(phi: np.ndarray, h_matrices) -> int:
    """1-based exact argmin of ``phi^T H_i phi``, which meets its own
    threshold at every scale; an exact tie goes to the smallest index."""
    return int(np.argmin([float(phi @ h @ phi) for h in h_matrices])) + 1


def _powers(cert: SwitchingCertificate, a: float, b: float, dt: float, k: int) -> np.ndarray:
    """``(m, k, n-1, n-1)`` stack of ``T_i^1 .. T_i^k``, ``T_i`` one RK4 step
    of ``phi' = -(a/b) Lbar_i phi``, built by doubling in place: the last
    power held times the first ones, as many as are still missing."""
    z = -(a / b) * dt * np.array(cert.reduced_laplacians)
    eye = np.eye(cert.n - 1)
    powers = np.empty((len(z), max(k, 1)) + eye.shape)
    powers[:, 0] = eye + z @ (eye + z @ (eye + z @ (eye + z / 4) / 3) / 2)
    held = 1
    while held < k:
        more = min(held, k - held)
        np.matmul(powers[:, held - 1 : held], powers[:, :more], powers[:, held : held + more])
        held += more
    return powers[:, :k]


def advance(
    phi: np.ndarray, sigma: int, powers: np.ndarray, cert: SwitchingCertificate
) -> tuple[np.ndarray, int]:
    """Up to ``powers.shape[1]`` steps from ``(phi, sigma)`` with the topology
    held constant: the samples ``powers[sigma - 1] @ phi`` up to and
    including the first that violates the threshold, and the topology in
    force from the last returned sample on (the argmin there after a
    violation, else ``sigma``).

    The violation test is strict; exact equality keeps the current
    topology.
    """
    phis = powers[sigma - 1] @ phi
    h, mu = cert.h_matrices[sigma - 1], cert.mu_list[sigma - 1]
    quad = np.einsum("ki,ij,kj->k", phis, h, phis)
    over = np.flatnonzero(quad > -mu * cert.lambda_max_p * np.einsum("ki,ki->k", phis, phis))
    if not over.size:
        return phis, sigma
    return phis[: over[0] + 1], _argmin_quadratic(phis[over[0]], cert.h_matrices)


def schedule(
    phi0: np.ndarray,
    cert: SwitchingCertificate,
    a: float,
    b: float,
    dt: float,
    n_steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The law for coordination gains ``a``, ``b`` from ``phi0``, run for
    ``n_steps`` steps of ``dt``: ``(sigma, aux_v)``, the 1-based topology
    index and the auxiliary energy ``phi^T P phi`` at every step boundary
    ``k * dt``, ``k = 0..n_steps``.

    ``sigma[0]`` minimizes ``phi0^T H_i phi0``; ``sigma[k]`` is the
    topology in force over the step that starts at ``k * dt``.  Identical
    inputs give identical schedules.  Raises NumericError naming the first
    non-finite entry of ``phi`` and its time, or the time at which
    ``phi^T P phi`` overflows.
    """
    phi0 = np.asarray(phi0, dtype=float)
    if phi0.shape != (cert.n - 1,):
        raise ValueError(f"phi0 must have dimension n-1 = {cert.n - 1}, got shape {phi0.shape}")
    if not np.any(phi0):
        raise ValueError("phi0 must be nonzero")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    powers = _powers(cert, a, b, dt, min(CHUNK, n_steps))
    sigma, aux_v = np.empty(n_steps + 1, dtype=np.int64), np.empty(n_steps + 1)
    sig = new = _argmin_quadratic(phi0, cert.h_matrices)
    phis, k = phi0[None], 0
    while True:
        v = np.einsum("ki,ij,kj->k", phis, cert.p, phis)
        bad = k + np.flatnonzero(~np.isfinite(v))  # step indices
        if bad.size:  # P > 0: a non-finite phi shows here
            check_finite("phi", phis[bad[0] - k], bad[0] * dt)
            raise NumericError(f"auxiliary energy phi^T P phi overflows at t={bad[0] * dt:.6g}")
        sigma[k : k + len(v)], aux_v[k : k + len(v)] = sig, v
        sigma[k + len(v) - 1] = sig = new
        k += len(v)
        if k > n_steps:
            return sigma, aux_v
        phis, new = advance(phis[-1], sig, powers[:, : n_steps + 1 - k], cert)
