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
from .errors import NumericError

# The decay of pos_vel_all's envelope as a read-only 0-d float64 array: an
# operation on an array with one costs less than with a Python float, with
# the same IEEE result.
_DECAY = np.array(-0.6)
_DECAY.setflags(write=False)
# the lateral chain's coefficient and offset columns, [3 | 1.8] and
# [5 | -0.0], spread over the vehicles by LaneSweepFamily
_CHAIN_COLUMNS = np.array([[[3.0], [1.8]], [[5.0], [-0.0]]])
# dot_bound's domain: squared-norm bounds from 2**-960 up and dots of at
# most 2**20 terms, where its margin covers every rounding and underflow
_DOT_BOUND_MIN = 2.0**-960
_DOT_TERMS_MAX = 2**20
# 1 - 2**-50 and 1 - (2**20 + 4) 2**-52, exact in float64: dot_bound's
# margins for the row norms and for the rounding of the one dot
_SQUARE_MARGIN = 1.0 - 2.0**-50
_DOT_MARGIN = 1.0 - (_DOT_TERMS_MAX + 4) * 2.0**-52
# numpy's functions of the per-stage PD command as module names, for the
# reason LaneSweepFamily._bind_pos_vel gives
_add, _multiply, _vdot = np.add, np.multiply, np.vdot


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
        # the read-only (2, n) rows of the lateral chain: coefficients
        # [3 | 1.8], offsets [5 | -0.0] (adding -0.0 is exact for every
        # float, -0.0 too) and the sines [sin | sin]
        chain = np.empty((3, 2, self.n))
        chain[:2], chain[2] = _CHAIN_COLUMNS, self.sines
        chain.setflags(write=False)
        self._chain = chain[0], chain[1], chain[2]

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
        sample; a NaN, which both searches pick first, propagates.  Times
        so large that ``1.8 t`` overflows give ``inf * 0``, a NaN, without
        a warning."""
        times = np.asarray(times, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            w = np.abs(1.8 * times * np.exp(-0.6 * times))
            vy = self.velocity_all(times[[np.argmax(w), np.argmin(w)], None])[..., 1]
            vy2 = vy * vy
        return math.sqrt(1.0 + float(vy2.max())) - math.sqrt(1.0 + float(vy2.min()))

    def pos_vel_all(self, gammas: np.ndarray) -> np.ndarray:
        """Positions and velocities ``[pos | vel]``, shape
        ``(2,) + gammas.shape[:-1] + (n, 3)``, so ``pos, vel = ...``
        unpacks them, at the float64 virtual times ``gammas`` of one
        sample, shape ``(n,)``, or of a stack, ``(..., n)``, each sample
        with the bits of a call on it alone; a last axis of 1 shares one
        time among all vehicles.

        This is ``_bind_pos_vel`` on a fresh array, called once on
        ``gammas``; the simulation loop binds it once per run and calls it
        each stage."""
        out = np.empty((2,) + gammas.shape[:-1] + (self.n, 3))
        self._bind_pos_vel(out[::-1])(gammas)
        return out

    def _bind_pos_vel(self, vel_pos: np.ndarray):
        """Write the columns that do not depend on gamma (down-range rate 1,
        climb rate 0, altitude 2) into ``vel_pos``, a ``(2, ..., n, 3)``
        stack ``[vel | pos]``, and return a closure ``pos_vel(gammas)``
        that writes the rest at the virtual times ``gammas``, which
        broadcast against ``vel_pos.shape[1:-1]``: the down-range position,
        the lateral position and the lateral rate.

        The lateral position ``offsets - env (5 + 3 gamma) sin`` and rate
        ``1.8 gamma env sin``, ``env = exp(-0.6 gamma)``, run as one chain
        on the rows of a fresh contiguous ``(2, ..., n)`` scratch ``chain
        = [gamma | gamma]``: one ``exp`` gives ``env`` in both rows of a
        second scratch, then ``chain * [3 | 1.8] + [5 | -0.0]``, times
        ``env``, times ``[sin | sin]``.  Each row takes the roundings of
        its own chain of scalar operations (adding ``-0.0`` is exact), and
        a contiguous operation costs about a third of one on a strided
        view.  The rows are then scattered into the lateral columns; on a
        stack, the constant rows broadcast over its samples.

        Like every bound kernel, the closure holds numpy's functions as its
        own variables: numpy's module ``__getattr__`` keeps CPython 3.11
        from specializing an attribute load on ``np``, so each ``np.add``
        in a loop is an unspecialized attribute lookup."""
        vel_pos.swapaxes(0, -2)[...] = self._vel_pos
        scratch = np.empty((2,) + vel_pos.shape[:-1])
        chain, envelope = scratch[0], scratch[1]
        chain_lateral, chain_rate = chain[0], chain[1]
        downrange, lateral, rate = vel_pos[1, ..., 0], vel_pos[1, ..., 1], vel_pos[0, ..., 1]
        coef, shift, sines = self._chain
        if chain.ndim != 2:
            spread = (2,) + (1,) * (chain.ndim - 2) + (self.n,)
            coef, shift, sines = coef.reshape(spread), shift.reshape(spread), sines.reshape(spread)
        offsets = self.offsets
        exp, multiply, add, subtract = np.exp, np.multiply, np.add, np.subtract

        def pos_vel(gammas: np.ndarray) -> None:
            chain[...] = gammas
            exp(multiply(_DECAY, chain, envelope), envelope)
            multiply(coef, chain, chain)
            add(chain, shift, chain)
            multiply(envelope, chain, chain)
            multiply(chain, sines, chain)
            subtract(offsets, chain_lateral, lateral)
            rate[...] = chain_rate
            downrange[...] = gammas

        return pos_vel


class PDGains:
    """Gains of the path-following PD law of ``n`` vehicles and its
    acceleration limit, checked once: ``kp``, ``kd`` and ``a_max`` must be
    positive.  ``column`` is the read-only ``[kd, kp]`` gain column spread
    over the ``(2, n, 3)`` stack ``[target_vel - v | e]`` of one sample, so
    one same-shape multiply applies both gains (a broadcast one costs
    more); ``bound`` is ``dot_bound(a_max)``, so a step's saturation tests
    take no bound of their own."""

    __slots__ = ("a_max", "column", "bound")

    def __init__(self, kp: float, kd: float, a_max: float, n: int) -> None:
        if float(kp) <= 0 or float(kd) <= 0 or float(a_max) <= 0:
            raise ValueError("pf gains and acceleration limit must be positive")
        self.a_max = a_max
        self.column = np.empty((2, n, 3))
        self.column[0], self.column[1] = kd, kp
        self.column.setflags(write=False)
        self.bound = dot_bound(a_max)


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
    _multiply(column, stack, stack)
    out = _add(stack[1], stack[0], out)
    saturate(out, gains.a_max, gains.bound)
    return out


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis of ``rows``; every row has the
    bits of a call on that row alone, whatever the stack."""
    return np.sqrt(einsum("...j,...j->...", rows, rows))


def dot_bound(limit: float) -> float:
    """``saturate``'s bound on the dot of all the entries of its rows with
    themselves: ``fl(B * (1 - (2**20 + 4) 2**-52))`` for ``B =
    fl(fl(limit*limit) * (1 - 2**-50))`` while ``limit`` is positive and
    ``2**-960 <= B < inf``, else ``-inf``, which no dot meets.
    ``saturate`` derives why a dot of at most ``2**20`` terms at most this
    bound proves that every row's factor is exactly 1.0."""
    lim = float(limit)
    bound = lim * lim * _SQUARE_MARGIN
    if not (lim > 0 and _DOT_BOUND_MIN <= bound < math.inf):
        return -math.inf
    return bound * _DOT_MARGIN


def saturate(rows: np.ndarray, limit: float, bound: float) -> None:
    """Scale in place every row of ``rows``, ``(..., 3)``, whose norm
    exceeds ``limit`` to norm ``limit``, keeping its direction: each row is
    multiplied by ``limit / max(norm, limit)``, the norm as ``row_norms``
    takes it, so every row of a stack has the bits of a call on its own
    sample.  A row of finite entries whose squared norm overflows (entries
    of about ``1.3e154`` and above) would take a factor of 0; it raises
    NumericError instead, and ``rows`` is left as it was.  A row with a
    non-finite entry takes its factor like any other (0 for an infinity, a
    NaN for a NaN); the caller's finite check names it.  The overflow is
    looked for only when the dot ``d`` below is not finite, which it is
    whenever such a row is present.

    That factor is exactly 1.0 on a row with ``norm <= limit``, so the
    multiply is skipped when one BLAS dot of all ``k <= K = 2**20`` entries
    with themselves, ``d = np.vdot(rows, rows)``, is at most ``bound``,
    which the caller computes once as ``T = dot_bound(limit)``.  The test is
    sufficient only: every other call takes the factor, a NaN or an infinity
    too (``d`` is then NaN or inf, which fails ``<=``).  Let ``B =
    fl(fl(limit*limit) * (1 - 2**-50))``.  Where ``T`` is finite, ``B >=
    2**-960`` is a normal float, each of its two roundings is within a
    relative ``2**-53``, so it is below ``limit**2`` exactly; then a row
    whose squared norm ``s`` (the row dot that ``row_norms`` takes the root
    of) is at most ``B`` has ``sqrt(s) < limit``, and the correctly rounded
    ``fl(sqrt(s))`` cannot exceed ``limit``.  It remains to show that ``d <=
    T`` proves every ``s <= B``.

    With ``u = 2**-53``, ``eta = 2**-1074`` and round-to-nearest, a
    rounding of ``y >= 0`` lies in ``[y (1 - u) - eta/2, y (1 + u) +
    eta/2]`` in the normal and the subnormal range alike.  Let ``S`` be the
    exact sum of the ``k`` squares and ``S_i <= S`` that of row ``i``.

    - ``d``, in whatever order BLAS sums, with or without FMA, and even
      through an extended accumulator rounded once more at the end, is a
      tree of at most ``2 k`` roundings of nonnegative values with at
      most ``k + 1`` of them on the path of any square (Higham, *Accuracy
      and Stability of Numerical Algorithms*, 2nd ed., section 3.1), so
      ``d >= (1 - u)**(k + 1) S - k eta``.
    - ``s_i``, einsum's 3-term row dot, has at most three roundings on
      each path and five in all, so ``s_i <= (1 + u)**3 S_i + 3 eta``.
    - ``T <= B c (1 + u)`` with ``c = 1 - 2 (K + 4) u``, exact in float64,
      and ``T >= 2**-961``.

    So ``d <= T`` gives ``s_i <= (1 + u)**4 c (1 + k eta / T) B / (1 -
    u)**(k + 1) + 3 eta``.  For ``k <= K`` the factor of ``B`` is at most
    ``1 - (K + 3) u + 4 (K + 5)**2 u**2 + 2**-93 < 1 - (K + 3) u / 2``,
    and ``B (K + 3) u / 2 >= 2**-994 > 3 eta``: ``s_i < B``.  One margin,
    that of the largest ``k``, serves every smaller one, which only
    refuses more."""
    dot = _vdot(rows, rows) if rows.size <= _DOT_TERMS_MAX else math.inf
    if dot <= bound:
        return
    norms = row_norms(rows)
    if not math.isfinite(dot):
        overflow = np.isinf(norms) & np.isfinite(rows).all(axis=-1)
        if overflow.any():
            idx = tuple(np.argwhere(overflow)[0].tolist())
            raise NumericError(
                f"the squared norm of row {idx}, every entry finite, overflows "
                f"in a saturation (largest entry {float(np.abs(rows[idx]).max()):.6g})"
            )
    rows *= (limit / np.maximum(norms, limit))[..., None]


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
