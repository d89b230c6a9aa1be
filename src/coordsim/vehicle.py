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
        # gamma already filled: altitude 2, down-range rate 1, climb rate 0
        self._pos_vel = np.zeros((2, self.n, 3))
        self._pos_vel[0, :, 2] = 2.0
        self._pos_vel[1, :, 0] = 1.0
        self._pos_vel.setflags(write=False)

    def velocity_all(self, gammas: np.ndarray) -> np.ndarray:
        """Desired velocities at virtual times ``gammas`` of shape
        ``(..., n)``; returns shape ``(..., n, 3)``."""
        g = np.asarray(gammas, dtype=float)
        out = np.empty(g.shape + (3,))
        out[..., 0] = 1.0
        out[..., 1] = 1.8 * g * np.exp(-0.6 * g) * self.sines
        out[..., 2] = 0.0
        return out

    def pos_vel_all(self, gammas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Position and velocity sharing one exponential evaluation; the
        hot path of the simulation loop."""
        g = np.asarray(gammas, dtype=float)
        env = np.exp(-0.6 * g)
        pos, vel = self._pos_vel.copy()
        pos[:, 0] = g
        pos[:, 1] = self.offsets - env * (5.0 + 3.0 * g) * self.sines
        vel[:, 1] = 1.8 * g * env * self.sines
        return pos, vel


def pf_control_all(
    p: np.ndarray,
    v: np.ndarray,
    target_pos: np.ndarray,
    target_vel: np.ndarray,
    kp: float,
    kd: float,
    a_max: float,
) -> np.ndarray:
    """PD acceleration command of every vehicle toward its virtual target,
    ``kp (target_pos - p) + kd (target_vel - v)`` row by row, saturated to
    norm ``a_max`` with its direction preserved."""
    if kp <= 0 or kd <= 0 or a_max <= 0:
        raise ValueError("pf gains and acceleration limit must be positive")
    u = kp * (target_pos - p) + kd * (target_vel - v)
    norms = np.sqrt(np.einsum("ij,ij->i", u, u))
    u *= (a_max / np.maximum(norms, a_max))[:, None]  # exactly 1.0 under the limit
    return u


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
