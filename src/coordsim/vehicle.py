"""Desired trajectories, virtual targets and the point-mass follower.

The vehicle model is a double integrator with acceleration saturation; a
PD law with velocity feedforward tracks the virtual target (the desired
trajectory evaluated at the vehicle's virtual time).  That is enough to
keep the path-following error inside the bound the coordination layer
assumes, after an initial catch-up transient.
"""

from __future__ import annotations

import math

import numpy as np

from ._einsum import einsum


class LaneSweepFamily:
    """Trajectory family: fly down-range at unit rate while a decaying
    lateral excursion sweeps each vehicle into its lane.

    Component ``i`` (1-based) is
    ``[t, offset_i - exp(-0.6 t) (5 + 3 t) sin(angle_i), 2]``.
    Defaults place ``n`` vehicles on lanes ``6 - 2i`` with angles
    ``-pi/2 + pi i / 6``.
    """

    def __init__(self, offsets=None, angles=None, t_f: float = 50.0, n: int = 5):
        if offsets is None:
            offsets = [6.0 - 2.0 * i for i in range(1, n + 1)]
        if angles is None:
            angles = [-math.pi / 2 + math.pi * i / 6 for i in range(1, n + 1)]
        if len(offsets) != len(angles):
            raise ValueError("offsets and angles must have the same length")
        self.offsets = np.asarray(offsets, dtype=float)
        self.angles = np.asarray(angles, dtype=float)
        self.sines = np.sin(self.angles)
        self.t_f = float(t_f)
        self.n = len(self.offsets)
        # (position, velocity) rows with the columns that do not depend on
        # gamma: altitude 2, down-range rate 1, climb rate 0
        self._pos_vel = np.array([[[0.0, 0.0, 2.0]], [[1.0, 0.0, 0.0]]])
        self._pos_vel.setflags(write=False)

    def velocity_all(self, gammas: np.ndarray) -> np.ndarray:
        """Desired velocities at virtual times ``gammas``, which broadcast
        against the ``n`` vehicles: shape ``(..., n)`` gives each vehicle
        its own time, ``(..., 1)`` one time shared by all of them.  Returns
        shape ``np.broadcast_shapes(gammas.shape, (n,)) + (3,)``."""
        g = np.asarray(gammas, dtype=float)
        vy = 1.8 * g * np.exp(-0.6 * g) * self.sines
        out = np.empty(vy.shape + (3,))
        out[..., 0] = 1.0
        out[..., 1] = vy
        out[..., 2] = 0.0
        return out

    def speed_spread(self, times: np.ndarray) -> float:
        """Largest minus smallest desired speed over all vehicles at the
        1-D sample ``times``.

        The desired velocity is ``[1, vy, 0]``, whose norm as
        ``np.linalg.norm`` takes it is ``sqrt((1 + vy*vy) + 0)``, the same
        bits as ``sqrt(1 + vy*vy)``.  Adding 1 and taking the square root
        are monotone, so the extreme speeds are the speeds at the extremes
        of ``vy*vy``: the result has the bits of the norm of every sampled
        velocity, and NaN propagates as it would there."""
        vy = self.velocity_all(np.asarray(times, dtype=float)[:, None])[..., 1]
        vy2 = vy * vy
        return math.sqrt(1.0 + float(vy2.max())) - math.sqrt(1.0 + float(vy2.min()))

    def pos_vel_all(self, gammas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Position and velocity, shape ``gammas.shape + (3,)``, at the
        float64 virtual times ``gammas`` of one sample, shape ``(n,)`` (the
        hot path of the simulation loop), or of a stack, ``(..., n)``, each
        sample with the bits of a call on it alone."""
        env = np.exp(-0.6 * gammas)
        out = np.empty(gammas.shape[:-1] + (2, self.n, 3))
        out[...] = self._pos_vel
        pos, vel = out[..., 0, :, :], out[..., 1, :, :]
        pos[..., 0] = gammas
        pos[..., 1] = self.offsets - env * (5.0 + 3.0 * gammas) * self.sines
        vel[..., 1] = 1.8 * gammas * env * self.sines
        return pos, vel


def pf_control_all(
    e: np.ndarray,
    v: np.ndarray,
    target_vel: np.ndarray,
    kp: float,
    kd: float,
    a_max: float,
) -> np.ndarray:
    """PD acceleration command of every vehicle toward its virtual target,
    ``kp e + kd (target_vel - v)`` row by row, where ``e = target_pos - p``
    is the path error, saturated to norm ``a_max`` with its direction
    preserved."""
    if kp <= 0 or kd <= 0 or a_max <= 0:
        raise ValueError("pf gains and acceleration limit must be positive")
    u = kp * e + kd * (target_vel - v)
    saturate(u, a_max)
    return u


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis of ``rows``; every row has the
    bits of a call on that row alone, whatever the stack."""
    return np.sqrt(einsum("...j,...j->...", rows, rows))


def saturate(rows: np.ndarray, limit: float) -> None:
    """Scale in place every row of ``rows`` whose norm exceeds ``limit`` to
    norm ``limit``, keeping its direction.  The factor
    ``limit / max(norm, limit)`` is exactly 1.0 on a row under the limit,
    so it is applied only when some norm is over it (or NaN).  The test
    runs on a Python list: for a handful of rows that is cheaper than a
    numpy reduction."""
    norms = row_norms(rows)
    if not all(norm <= limit for norm in norms.tolist()):
        rows *= (limit / np.maximum(norms, limit))[:, None]


def apply_disturbance(
    accel: np.ndarray, t: float, gust: np.ndarray, window: tuple[float, float]
) -> np.ndarray:
    """Add a gust acceleration inside ``[t_start, t_end)``; identity
    outside."""
    t_start, t_end = window
    if t_start >= t_end:
        raise ValueError(f"disturbance window must have t_start < t_end, got {window}")
    if t_start <= t < t_end:
        return accel + np.asarray(gust, dtype=float)
    return accel
