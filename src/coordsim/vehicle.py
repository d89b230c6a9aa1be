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

# The coefficients of pos_vel_all as read-only 0-d float64 arrays: an
# operation on an array with one costs less than with a Python float, with
# the same IEEE result.
_DECAY, _THREE, _FIVE, _RATE = (np.array(c) for c in (-0.6, 3.0, 5.0, 1.8))
for _c in (_DECAY, _THREE, _FIVE, _RATE):
    _c.setflags(write=False)
# 1 - 2**-50, exact in float64: the margin of saturate's squared-norm test
_SQUARE_MARGIN = 1.0 - 2.0**-50
_TINY = float(np.finfo(float).tiny)  # smallest normal float64


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
        self._pos_vel = np.array([[0.0, 0.0, 2.0], [1.0, 0.0, 0.0]])
        self._pos_vel.setflags(write=False)

    def velocity_all(self, gammas: np.ndarray) -> np.ndarray:
        """Desired velocities at virtual times ``gammas``, which broadcast
        against the ``n`` vehicles: shape ``(..., n)`` gives each vehicle
        its own time, ``(..., 1)`` one time shared by all of them.  Returns
        shape ``np.broadcast_shapes(gammas.shape, (n,)) + (3,)``."""
        return self.pos_vel_all(np.asarray(gammas, dtype=float))[1]

    def speed_spread(self, times: np.ndarray) -> float:
        """Largest minus smallest desired speed over all vehicles at the
        1-D sample ``times``.

        The desired velocity is ``[1, vy, 0]``, whose norm as
        ``np.linalg.norm`` takes it is ``sqrt((1 + vy*vy) + 0)``, the same
        bits as ``sqrt(1 + vy*vy)``, monotone in ``vy*vy``.  Vehicle ``i``
        has ``vy = fl(w_t s_i)``, ``w_t = 1.8 t exp(-0.6 t)``; rounded products
        and squares never shrink as ``|w_t|`` grows, so every ``vy*vy`` is
        extreme at the argmax and argmin of ``|w_t|``, the two times
        ``velocity_all`` is evaluated at, with the bits of the norm of every
        sample; a NaN, which both searches pick first, propagates."""
        times = np.asarray(times, dtype=float)
        w = np.abs(_lateral_rate(times))
        vy = self.velocity_all(times[[np.argmax(w), np.argmin(w)], None])[..., 1]
        vy2 = vy * vy
        return math.sqrt(1.0 + float(vy2.max())) - math.sqrt(1.0 + float(vy2.min()))

    def pos_vel_all(self, gammas: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Positions and velocities ``[pos | vel]``, shape
        ``(2,) + gammas.shape[:-1] + (n, 3)``, so ``pos, vel = ...``
        unpacks them, at the float64 virtual times ``gammas`` of one
        sample, shape ``(n,)`` (the hot path of the simulation loop), or of
        a stack, ``(..., n)``, each sample with the bits of a call on it
        alone; a last axis of 1 shares one time among all vehicles.

        The result is written into ``out`` when given, and returned; its
        down-range position column holds the envelope ``exp(-0.6 gamma)``
        until the last write, so no temporary is allocated."""
        if out is None:
            out = np.empty((2,) + gammas.shape[:-1] + (self.n, 3))
        out.swapaxes(0, -2)[...] = self._pos_vel
        env, lat, rate = out[0, ..., 0], out[0, ..., 1], out[1, ..., 1]
        np.exp(np.multiply(_DECAY, gammas, env), env)
        # offsets - env (5 + 3 gamma) sin, then 1.8 gamma env sin
        np.multiply(_THREE, gammas, lat)
        np.add(_FIVE, lat, lat)
        np.multiply(env, lat, lat)
        np.multiply(lat, self.sines, lat)
        np.subtract(self.offsets, lat, lat)
        np.multiply(_RATE, gammas, rate)
        np.multiply(rate, env, rate)
        np.multiply(rate, self.sines, rate)
        env[...] = gammas
        return out


def _lateral_rate(g: np.ndarray) -> np.ndarray:  # per unit sin(angle)
    return 1.8 * g * np.exp(-0.6 * g)


def pf_control_all(
    e: np.ndarray,
    v: np.ndarray,
    target_vel: np.ndarray,
    kp: float,
    kd: float,
    a_max: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """PD acceleration command of every vehicle toward its virtual target,
    ``kp e + kd (target_vel - v)`` row by row, where ``e = target_pos - p``
    is the path error, saturated to norm ``a_max`` with its direction
    preserved.  One sample, ``(n, 3)``, or a stack, ``(..., n, 3)``.  The
    gains may be floats or 0-d float64 arrays.  The command is written
    into ``out`` when given (it may be ``target_vel`` itself), and
    returned."""
    if float(kp) <= 0 or float(kd) <= 0 or float(a_max) <= 0:
        raise ValueError("pf gains and acceleration limit must be positive")
    out = np.subtract(target_vel, v, out)
    np.multiply(kd, out, out)
    np.add(np.multiply(kp, e), out, out)
    saturate(out, a_max)
    return out


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis of ``rows``; every row has the
    bits of a call on that row alone, whatever the stack."""
    return np.sqrt(einsum("...j,...j->...", rows, rows))


def saturate(rows: np.ndarray, limit: float) -> None:
    """Scale in place every row of ``rows``, ``(..., 3)``, whose norm
    exceeds ``limit`` to norm ``limit``, keeping its direction: each row is
    multiplied by ``limit / max(norm, limit)``, the norm as ``row_norms``
    takes it, so every row of a stack has the bits of a call on its own
    sample.

    That factor is exactly 1.0 on a row with ``norm <= limit``, so the
    multiply is skipped when every squared norm ``s`` (the row dot that
    ``row_norms`` takes the root of) satisfies
    ``s <= bound = fl(fl(limit*limit) * (1 - 2**-50))``.  While ``bound`` is
    a normal float, each of its two roundings is within a relative
    ``2**-53``, so ``bound < limit**2`` exactly; then ``sqrt(s) < limit``,
    and the correctly rounded ``fl(sqrt(s))`` cannot exceed a positive
    ``limit``.  A ``limit`` that is not positive, a ``bound`` that
    overflows or falls below the normal range, and any NaN take the
    norm-and-factor path: the sum of the squared norms is NaN exactly when
    one of them is (none is negative), wherever Python's ``max`` stops."""
    squares = einsum("...j,...j->...", rows, rows)
    lim = float(limit)
    bound = lim * lim * _SQUARE_MARGIN
    listed = squares.ravel().tolist()
    if (
        lim > 0
        and _TINY <= bound < math.inf
        and max(listed, default=0.0) <= bound
        and sum(listed) < math.inf
    ):
        return
    rows *= (limit / np.maximum(np.sqrt(squares), limit))[..., None]


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
