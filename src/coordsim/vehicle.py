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
        # (velocity, position) rows with the columns that do not depend on
        # gamma: down-range rate 1, climb rate 0, altitude 2
        self._vel_pos = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        self._vel_pos.setflags(write=False)

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
        sample, shape ``(n,)``, or of a stack, ``(..., n)``, each sample
        with the bits of a call on it alone; a last axis of 1 shares one
        time among all vehicles.  The result is written into ``out`` when
        given, and returned.

        This is ``_pos_vel_into`` on the views ``_target_views`` takes of
        ``out``; the simulation loop calls the two itself, the views taken
        once per run."""
        if out is None:
            out = np.empty((2,) + gammas.shape[:-1] + (self.n, 3))
        self._pos_vel_into(gammas, *self._target_views(out[::-1]))
        return out

    def _target_views(self, vel_pos: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Write the columns that do not depend on gamma (down-range rate 1,
        climb rate 0, altitude 2) into ``vel_pos``, a ``(2, ..., n, 3)``
        stack ``[vel | pos]``, and return the views ``_pos_vel_into``
        writes the rest through: the down-range position, the lateral
        position and the lateral rate."""
        vel_pos.swapaxes(0, -2)[...] = self._vel_pos
        return vel_pos[1, ..., 0], vel_pos[1, ..., 1], vel_pos[0, ..., 1]

    def _pos_vel_into(
        self, gammas: np.ndarray, downrange: np.ndarray, lateral: np.ndarray, rate: np.ndarray
    ) -> None:
        """The columns of ``pos_vel_all`` that depend on ``gammas``, written
        through the views of ``_target_views``.  The down-range column
        holds the envelope ``exp(-0.6 gamma)`` until the last write, so
        nothing is allocated."""
        np.exp(np.multiply(_DECAY, gammas, downrange), downrange)
        # offsets - env (5 + 3 gamma) sin, then 1.8 gamma env sin
        np.multiply(_THREE, gammas, lateral)
        np.add(_FIVE, lateral, lateral)
        np.multiply(downrange, lateral, lateral)
        np.multiply(lateral, self.sines, lateral)
        np.subtract(self.offsets, lateral, lateral)
        np.multiply(_RATE, gammas, rate)
        np.multiply(rate, downrange, rate)
        np.multiply(rate, self.sines, rate)
        downrange[...] = gammas


def _lateral_rate(g: np.ndarray) -> np.ndarray:  # per unit sin(angle)
    return 1.8 * g * np.exp(-0.6 * g)


class PDGains:
    """Gains of the path-following PD law of ``n`` vehicles and its
    acceleration limit, checked once: ``kp``, ``kd`` and ``a_max`` must be
    positive.  ``column`` is the read-only ``[kd, kp]`` gain column spread
    over the ``(2, n, 3)`` stack ``[target_vel - v | e]`` of one sample, so
    one same-shape multiply applies both gains (a broadcast one costs
    more); ``bound`` is ``saturate``'s squared-norm bound for ``a_max``."""

    __slots__ = ("a_max", "column", "bound")

    def __init__(self, kp: float, kd: float, a_max: float, n: int) -> None:
        if float(kp) <= 0 or float(kd) <= 0 or float(a_max) <= 0:
            raise ValueError("pf gains and acceleration limit must be positive")
        self.a_max = a_max
        self.column = np.empty((2, n, 3))
        self.column[0], self.column[1] = kd, kp
        self.column.setflags(write=False)
        self.bound = square_bound(a_max)


def pf_control_all(
    stack: np.ndarray, gains: PDGains, out: np.ndarray | None = None
) -> np.ndarray:
    """PD acceleration command of every vehicle toward its virtual target,
    ``kp e + kd (target_vel - v)`` row by row, where ``e = target_pos - p``
    is the path error, saturated to norm ``gains.a_max`` with its direction
    preserved.

    ``stack`` is ``[target_vel - v | e]``, shape ``(2, n, 3)`` for one
    sample or ``(2, ..., n, 3)`` for a stack; one multiply by
    ``gains.column`` turns it, in place, into ``[kd (target_vel - v) | kp
    e]``, so the caller's stack is scratch.  The command is written into
    ``out`` when given (it may be either row of ``stack``), and
    returned."""
    column = gains.column
    if stack.ndim != 3:
        column = column.reshape((2,) + (1,) * (stack.ndim - 3) + column.shape[1:])
    np.multiply(column, stack, stack)
    out = np.add(stack[1], stack[0], out)
    _saturate(out, gains.a_max, gains.bound)
    return out


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis of ``rows``; every row has the
    bits of a call on that row alone, whatever the stack."""
    return np.sqrt(einsum("...j,...j->...", rows, rows))


def square_bound(limit: float) -> float:
    """``saturate``'s bound on the squared row norms for ``limit``:
    ``fl(fl(limit*limit) * (1 - 2**-50))`` while that is a normal float and
    ``limit`` is positive, else ``-inf``, which no squared norm meets."""
    lim = float(limit)
    bound = lim * lim * _SQUARE_MARGIN
    return bound if lim > 0 and _TINY <= bound < math.inf else -math.inf


def saturate(rows: np.ndarray, limit: float) -> None:
    """Scale in place every row of ``rows``, ``(..., 3)``, whose norm
    exceeds ``limit`` to norm ``limit``, keeping its direction: each row is
    multiplied by ``limit / max(norm, limit)``, the norm as ``row_norms``
    takes it, so every row of a stack has the bits of a call on its own
    sample.

    That factor is exactly 1.0 on a row with ``norm <= limit``, so the
    multiply is skipped when every squared norm ``s`` (the row dot that
    ``row_norms`` takes the root of) satisfies ``s <= square_bound(limit)
    = fl(fl(limit*limit) * (1 - 2**-50))``.  While that bound is a normal
    float, each of its two roundings is within a relative ``2**-53``, so
    it is below ``limit**2`` exactly; then ``sqrt(s) < limit``, and the
    correctly rounded ``fl(sqrt(s))`` cannot exceed a positive ``limit``.
    A ``limit`` that is not positive, a bound that overflows or falls
    below the normal range (``square_bound`` gives ``-inf``), and any NaN
    take the norm-and-factor path: the sum of the squared norms is NaN
    exactly when one of them is (none is negative), wherever Python's
    ``max`` stops."""
    _saturate(rows, limit, square_bound(limit))


def _saturate(rows: np.ndarray, limit: float, bound: float) -> None:
    """``saturate`` with its bound ``square_bound(limit)`` computed once by
    the caller."""
    squares = einsum("...j,...j->...", rows, rows)
    listed = squares.ravel().tolist()
    if max(listed, default=bound) <= bound and sum(listed) < math.inf:
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
