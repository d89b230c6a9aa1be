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
step of a run before the closed loop starts.

The threshold is checked after each full integration step and a switch
takes effect at that step boundary; no sub-step root finding.  The
guaranteed dwell time exceeds any reasonable step size by orders of
magnitude, so the boundary quantization error is benign (the harness
enforces ``dt <= dwell_bound / 10``).
"""

from __future__ import annotations

import math

import numpy as np

from .coordalg import SwitchingCertificate
from .errors import NumericError, check_finite


def _argmin_quadratic(phi: np.ndarray, h_matrices) -> int:
    """1-based exact argmin of ``phi^T H_i phi``, which meets its own
    threshold at every scale; an exact tie goes to the smallest index."""
    return int(np.argmin([float(phi @ h @ phi) for h in h_matrices])) + 1


def advance(
    phi: np.ndarray,
    sigma: int,
    mats: tuple[np.ndarray, ...],
    cert: SwitchingCertificate,
    dt: float,
) -> tuple[np.ndarray, int]:
    """One step from ``(phi, sigma)``: integrate ``phi' = mats[sigma - 1]
    phi`` with the topology held constant (classical RK4), then evaluate
    the threshold at the new sample and re-select the topology if it was
    violated.  Returns the next ``(phi, sigma)``.

    The violation test is strict; exact equality keeps the current
    topology.
    """
    mat = mats[sigma - 1]
    k1 = mat @ phi
    k2 = mat @ (phi + 0.5 * dt * k1)
    k3 = mat @ (phi + 0.5 * dt * k2)
    k4 = mat @ (phi + dt * k3)
    phi = phi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    h = cert.h_matrices[sigma - 1]
    mu = cert.mu_list[sigma - 1]
    if float(phi @ h @ phi) > -mu * cert.lambda_max_p * float(phi @ phi):
        sigma = _argmin_quadratic(phi, cert.h_matrices)
    return phi, sigma


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
        raise ValueError(
            f"phi0 must have dimension n-1 = {cert.n - 1}, got shape {phi0.shape}"
        )
    if not np.any(phi0):
        raise ValueError("phi0 must be nonzero")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    check_finite("phi", phi0, 0.0)
    mats = tuple(-(a / b) * lbar for lbar in cert.reduced_laplacians)
    sigma = np.empty(n_steps + 1, dtype=np.int64)
    aux_v = np.empty(n_steps + 1)
    phi, sig = phi0, _argmin_quadratic(phi0, cert.h_matrices)
    for k in range(n_steps + 1):
        if k > 0:
            phi, sig = advance(phi, sig, mats, cert, dt)
        v = float(phi @ cert.p @ phi)
        if not math.isfinite(v):  # P > 0: a non-finite phi shows here
            check_finite("phi", phi, k * dt)
            raise NumericError(f"auxiliary energy phi^T P phi overflows at t={k * dt:.6g}")
        sigma[k] = sig
        aux_v[k] = v
    return sigma, aux_v
