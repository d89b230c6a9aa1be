"""State-feedback topology switching.

An auxiliary linear system ``phi' = -(a/b) Lbar_sigma phi`` is integrated
alongside the mission.  While its quadratic decay certificate
``phi^T H_sigma phi <= -mu_sigma lambda_max(P) phi^T phi`` holds, the
active topology stays put; the first sampled violation triggers a switch
to the topology minimizing ``phi^T H_i phi``.  The minimizing index always
satisfies its own threshold (the ``H_i`` sum to ``-m I`` and every
``mu_i lambda_max(P) < 1``), so one re-selection per violation suffices.

The threshold is checked after each full integration step and a switch
takes effect at that step boundary; no sub-step root finding.  The
guaranteed dwell time exceeds any reasonable step size by orders of
magnitude, so the boundary quantization error is benign (the harness
enforces ``dt <= dwell_bound / 10``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coordalg import SwitchingCertificate

# Quadratic-form values within this absolute tolerance of the minimum tie;
# ties resolve to the smallest index.
TIE_TOL = 1e-12


@dataclass
class SwitchingState:
    """Mutable per-run state of the switching law.

    ``sigma`` is the active topology index, 1-based.  ``mats`` holds the
    system matrix ``-(a/b) Lbar_i`` of each topology, built once.  ``t`` is
    the time of the latest sample, ``steps * dt``: a product, not a running
    sum, so it is the simulation clock bit for bit.  ``switch_log`` holds
    ``(time, old index, new index)`` tuples with strictly increasing times.
    Owned by a single simulation run; independent runs carry independent
    states.
    """

    phi: np.ndarray
    sigma: int
    mats: tuple[np.ndarray, ...]
    steps: int = 0
    t: float = 0.0
    switch_log: list[tuple[float, int, int]] = field(default_factory=list)


def _argmin_quadratic(phi: np.ndarray, h_matrices) -> int:
    """Smallest 1-based index minimizing ``phi^T H_i phi`` (ties within
    ``TIE_TOL`` resolve to the smallest index)."""
    values = [float(phi @ h @ phi) for h in h_matrices]
    vmin = min(values)
    for i, v in enumerate(values):
        if v <= vmin + TIE_TOL:
            return i + 1
    raise AssertionError("unreachable")


def init_switching(
    phi0: np.ndarray, cert: SwitchingCertificate, a: float, b: float
) -> SwitchingState:
    """Start the law for coordination gains ``a``, ``b``: the initial
    topology minimizes ``phi0^T H_i phi0``."""
    phi0 = np.asarray(phi0, dtype=float)
    if phi0.shape != (cert.n - 1,):
        raise ValueError(
            f"phi0 must have dimension n-1 = {cert.n - 1}, got shape {phi0.shape}"
        )
    if not np.any(phi0):
        raise ValueError("phi0 must be nonzero")
    sigma = _argmin_quadratic(phi0, cert.h_matrices)
    mats = tuple(-(a / b) * lbar for lbar in cert.reduced_laplacians)
    return SwitchingState(phi=phi0.copy(), sigma=sigma, mats=mats)


def advance(
    state: SwitchingState, dt: float, cert: SwitchingCertificate
) -> SwitchingState:
    """One step: integrate ``phi`` with the active topology held constant
    (classical RK4 on the linear system), then evaluate the threshold at
    the new sample and re-select the topology if it was violated.

    The violation test is strict; exact equality keeps the current
    topology.  Identical inputs produce identical switch logs.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    mat = state.mats[state.sigma - 1]
    phi = state.phi
    k1 = mat @ phi
    k2 = mat @ (phi + 0.5 * dt * k1)
    k3 = mat @ (phi + 0.5 * dt * k2)
    k4 = mat @ (phi + dt * k3)
    phi = phi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    state.phi = phi
    state.steps += 1
    state.t = state.steps * dt
    h = cert.h_matrices[state.sigma - 1]
    mu = cert.mu_list[state.sigma - 1]
    if float(phi @ h @ phi) > -mu * cert.lambda_max_p * float(phi @ phi):
        new = _argmin_quadratic(phi, cert.h_matrices)
        if new != state.sigma:
            state.switch_log.append((state.t, state.sigma, new))
            state.sigma = new
    return state
