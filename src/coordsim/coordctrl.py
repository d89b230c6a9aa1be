"""Decentralized virtual-time coordination.

Each vehicle carries a virtual time ``gamma_i`` mapping wall clock to
mission time; its second derivative is commanded from three terms: a pull
toward the shared desired mission rate, a consensus term over the virtual
times of in-neighbors, and a feedback of the path-following error
projected on the desired velocity direction.  Coordination is reached
when all ``gamma_i`` agree and all rates match the desired rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._einsum import einsum
from .coordalg import ProjectionMatrix
from .errors import ConfigError


@dataclass(frozen=True)
class MissionRateProfile:
    """Desired mission rate: constant ``base``, then one cubic-smoothstep
    ramp to ``final`` over ``[ramp_start, ramp_start + ramp_duration]``.

    The ramp is monotone and C1: its acceleration peaks at ``1.5 |final -
    base| / ramp_duration`` mid-ramp and vanishes at both ends.  ``rate``
    takes a float or an array of times and returns a float64 array of
    their shape, so a block of step times costs one call: exactly ``base``
    up to ``ramp_start``, exactly ``final`` from the ramp's end on, and the
    polynomial on the times inside the ramp only, clamped to
    ``[min(base, final), max(base, final)]``."""

    base: float
    final: float
    ramp_start: float
    ramp_duration: float

    def __post_init__(self) -> None:
        if self.ramp_duration <= 0:
            raise ConfigError("ramp_duration must be positive")

    def rate(self, t) -> np.ndarray:
        base, final = float(self.base), float(self.final)  # integer configs
        t = np.asarray(t, dtype=float)
        before = t <= self.ramp_start
        inside = ~(before | (t >= self.ramp_start + self.ramp_duration))
        out = np.where(before, base, final)
        u = (t[inside] - self.ramp_start) / self.ramp_duration
        ramp = base + (final - base) * (3.0 * u * u - 2.0 * u * u * u)
        # near the ramp's end the smoothstep rounds to 1 or just above, and
        # base + (final - base) need not round back into the band
        out[inside] = ramp.clip(min(base, final), max(base, final))
        return out

    def validate(self, t_max: float) -> np.ndarray:
        """Refuse a rate that is not positive on ``[0, t_max]``; raises
        ConfigError.  The ramp is monotone and clamped to its end values,
        so the rate on ``[0, t_max]`` lies between its values at the two
        ends, and those two decide.  Returns them, ``rate([0, t_max])``."""
        rates = self.rate(np.array([0.0, t_max]))
        if rates.min() <= 0:
            raise ConfigError(f"mission rate must stay positive on [0, {t_max}]")
        return rates


def path_error_feedback_all(errors_velocities: np.ndarray, delta: float) -> np.ndarray:
    """Feedback of each vehicle's path-following error on its virtual-time
    acceleration: the error component along the desired velocity ``v_i``,
    scaled by ``|v_i| / (|v_i| + delta) < 1``, so its magnitude never
    exceeds ``|e_i|``.

    ``errors_velocities`` stacks the path errors and the desired
    velocities, ``[e | v]``, shape ``(2, n, 3)`` for one sample or
    ``(2, ..., n, 3)`` for a stack; one row dot of both against ``v``
    gives ``e . v`` and ``|v|^2``.  Rows are independent: every row has
    the bits of a call on it alone.  ``delta`` may be a float or a 0-d
    float64 array.  The result has shape ``(..., n)``.  This is
    ``_bind_feedback`` on the stack and a fresh result, called once."""
    if float(delta) <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    out = np.empty(errors_velocities.shape[1:-1])
    _bind_feedback(errors_velocities, delta, out)()
    return out


def _bind_feedback(
    errors_velocities: np.ndarray, delta: float | np.ndarray, out: np.ndarray
):
    """``path_error_feedback_all`` as a closure of no arguments over its
    views, which writes into ``out`` the feedback of the current contents
    of ``errors_velocities``; ``delta`` is not checked.  The row dots go
    into a fresh scratch of shape ``errors_velocities.shape[:-1]``, whose
    rows are ``e . v`` and ``|v|^2``, then ``|v| + delta``."""
    velocities = errors_velocities[1]
    dots = np.empty(errors_velocities.shape[:-1])
    along, norms = dots[0], dots[1]
    add, sqrt, divide = np.add, np.sqrt, np.divide

    def feedback() -> None:
        einsum("k...ij,...ij->k...i", errors_velocities, velocities, out=dots)
        add(sqrt(norms, norms), delta, norms)
        divide(along, norms, out)

    return feedback


def coordination_accel_matrix(
    gamma: np.ndarray,
    gamma_dot: np.ndarray,
    lap: np.ndarray,
    alpha: np.ndarray,
    gamma_dot_d: float | np.ndarray,
    a: float | np.ndarray,
    neg_b: float | np.ndarray,
) -> np.ndarray:
    """Matrix form of the coordination law:
    ``-b (rate error) - a L gamma - alpha``, given the rate gain negated,
    ``neg_b = -b``.  The Laplacian's sparsity makes row ``i`` depend only
    on vehicle ``i``'s in-neighbors.  One sample, shape ``(n,)``, or a
    stack, ``(..., n)``, with one Laplacian or one per sample: each sample
    costs one matrix-vector product, so its bits do not depend on the stack
    it is in.  ``a`` and ``neg_b`` are floats or 0-d arrays.  This is
    ``_bind_accel`` with the gain column ``[a, neg_b]`` broadcast over its
    scratch, called once on a fresh result."""
    out = np.empty(np.broadcast_shapes(lap.shape[:-1], gamma.shape))
    gains = np.array([a, neg_b], dtype=float).reshape((2,) + (1,) * out.ndim)
    _bind_accel(alpha, gains, out.shape)(gamma, gamma_dot, lap, gamma_dot_d, out)
    return out


def _bind_accel(alpha: np.ndarray, gains: np.ndarray, shape: tuple[int, ...]):
    """``coordination_accel_matrix`` as a closure ``accel(gamma,
    gamma_dot, lap, gamma_dot_d, out)`` over its views, which writes into
    ``out``, of ``shape``, the law for the current contents of ``alpha``.

    A fresh C-contiguous ``(2,) + shape`` scratch takes ``L gamma`` and
    ``gamma_dot - gamma_dot_d`` in its two rows, and one multiply by
    ``gains``, ``[a | neg_b]`` in a shape that broadcasts against the
    scratch (the loop binds it as a same-shape ``(2, n)`` array), scales
    both; ``out`` is then ``neg_b (gamma_dot - gamma_dot_d) - a L gamma -
    alpha``, with the roundings of the two scalar multiplies.  The product
    is chosen here, once: one sample's ``L gamma`` is ``np.dot``, BLAS's
    matrix-vector product; a stack's is ``matmul``, which gives each
    sample those same bits."""
    scratch = np.empty((2,) + shape)
    consensus, rate_error = scratch[0], scratch[1]
    if len(shape) == 1:
        product, into = np.dot, consensus
    else:
        into = consensus[..., None]

        def product(lap: np.ndarray, gamma: np.ndarray, into: np.ndarray) -> None:
            np.matmul(lap, gamma[..., None], into)

    subtract, multiply = np.subtract, np.multiply

    def accel(
        gamma: np.ndarray,
        gamma_dot: np.ndarray,
        lap: np.ndarray,
        gamma_dot_d: float | np.ndarray,
        out: np.ndarray,
    ) -> None:
        product(lap, gamma, into)
        subtract(gamma_dot, gamma_dot_d, rate_error)
        multiply(gains, scratch, scratch)
        subtract(rate_error, consensus, out)
        subtract(out, alpha, out)

    return accel


def coordination_error(
    gamma: np.ndarray,
    gamma_dot: np.ndarray,
    q: ProjectionMatrix | None,
    gamma_dot_d: float | np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coordination error: projected virtual-time disagreement and rate
    deviation, plus the stacked norm.

    ``gamma`` and ``gamma_dot`` hold one sample, shape ``(n,)``, or a stack
    of samples, shape ``(..., n)``; ``gamma_dot_d`` broadcasts against
    ``gamma_dot``.  Each sample costs one matrix-vector product and two dot
    products whatever the stack, so a sample's values do not depend on the
    stack it is in.  The first component vanishes exactly when all virtual
    times agree; adding a common constant to every ``gamma_i`` leaves it
    unchanged.  A single vehicle has no projection (``q`` is None) and no
    disagreement.
    """
    if q is not None:
        xi1 = np.matmul(q.q, gamma[..., None])[..., 0]
    else:
        xi1 = np.zeros(gamma.shape[:-1] + (0,))
    xi2 = gamma_dot - gamma_dot_d
    return xi1, xi2, np.sqrt(np.vecdot(xi1, xi1) + np.vecdot(xi2, xi2))


class Violation(NamedTuple):
    vehicle: int  # 1-based
    time: float
    bound: str  # "rate" or "accel"
    value: float


def feasibility_check(
    gamma_dot: np.ndarray,
    gamma_ddot: np.ndarray,
    bounds: tuple[float, float],
    t: float | np.ndarray = 0.0,
    active: np.ndarray | None = None,
) -> list[Violation]:
    """Flag virtual-time rates outside ``[1 - gamma_dot_max,
    1 + gamma_dot_max]`` and accelerations beyond ``gamma_ddot_max``, where
    ``bounds = (gamma_dot_max, gamma_ddot_max)``.

    ``gamma_dot`` and ``gamma_ddot`` hold one sample, shape ``(n,)``, or a
    stack, ``(..., n)``; ``t``, the time of each sample, broadcasts against
    ``gamma_dot.shape[:-1]``.  ``active`` restricts the check to vehicles
    still flying the mission.  Records are ordered by sample, then by
    vehicle, a rate record before an acceleration record of the same
    vehicle.  A NaN is not flagged.  An empty list means feasible."""
    gamma_dot_max, gamma_ddot_max = bounds
    if gamma_dot_max <= 0 or gamma_ddot_max <= 0:
        raise ValueError("feasibility bounds must be positive")
    if gamma_dot_max >= 1:
        raise ValueError("gamma_dot_max must be < 1 so rates stay positive")
    bad_rate = (gamma_dot < 1.0 - gamma_dot_max) | (gamma_dot > 1.0 + gamma_dot_max)
    bad_accel = np.abs(gamma_ddot) > gamma_ddot_max
    flagged = bad_rate | bad_accel
    if active is not None:
        flagged &= active
    at = np.flatnonzero(flagged)  # sample-major: by time, then vehicle
    sample, vehicle = np.divmod(at, gamma_dot.shape[-1])
    times = np.broadcast_to(t, gamma_dot.shape[:-1]).reshape(-1)[sample]
    rates, accels, is_rate, is_accel = (
        a.reshape(-1)[at].tolist() for a in (gamma_dot, gamma_ddot, bad_rate, bad_accel)
    )
    violations: list[Violation] = []
    for k, (i, time) in enumerate(zip((vehicle + 1).tolist(), times.tolist())):
        if is_rate[k]:
            violations.append(Violation(i, time, "rate", rates[k]))
        if is_accel[k]:
            violations.append(Violation(i, time, "accel", accels[k]))
    return violations
