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
from typing import Callable, NamedTuple

import numpy as np

from ._einsum import einsum
from .coordalg import ProjectionMatrix
from .errors import ConfigError
from .vehicle import row_norms

# grid size of MissionRateProfile.validate's check of the declared bounds
RATE_CHECK_SAMPLES = 10_000


@dataclass(frozen=True)
class MissionRateProfile:
    """Desired mission rate ``rate(t)`` with its derivative and declared
    bounds ``1 - rate_dev_max <= rate <= 1 + rate_dev_max`` and
    ``|accel| <= accel_max``.

    ``rate`` and ``accel`` are array functions of time: given a float or an
    array of times they return float64 arrays of the same shape, entry by
    entry the value at that time, so a whole grid or a block of step times
    costs one call."""

    rate: Callable[[np.ndarray], np.ndarray]
    accel: Callable[[np.ndarray], np.ndarray]
    rate_dev_max: float
    accel_max: float

    def validate(self, t_max: float) -> None:
        """Check the declared bounds on ``RATE_CHECK_SAMPLES`` times evenly
        spaced over ``[0, t_max]``; raises ConfigError."""
        ts = np.linspace(0.0, t_max, RATE_CHECK_SAMPLES)
        rates = np.broadcast_to(self.rate(ts), ts.shape)
        rate_min, rate_max = rates.min(), rates.max()
        accel_peak = np.abs(np.broadcast_to(self.accel(ts), ts.shape)).max()
        lo, hi = 1.0 - self.rate_dev_max, 1.0 + self.rate_dev_max
        if rate_min < lo - 1e-12 or rate_max > hi + 1e-12:
            raise ConfigError(
                f"mission rate leaves its declared band [{lo}, {hi}]: "
                f"observed [{rate_min:.6g}, {rate_max:.6g}]"
            )
        if accel_peak > self.accel_max + 1e-12:
            raise ConfigError(
                f"mission rate acceleration exceeds declared bound {self.accel_max}: "
                f"observed {accel_peak:.6g}"
            )
        if rate_min <= 0:
            raise ConfigError("mission rate must stay positive")


def smoothstep_profile(
    base: float = 1.0,
    final: float = 1.1,
    ramp_start: float = 28.0,
    ramp_duration: float = 8.0,
) -> MissionRateProfile:
    """Constant ``base`` rate, one cubic-smoothstep ramp to ``final``.

    The ramp is C1: rate acceleration peaks at ``1.5 |final-base| /
    ramp_duration`` mid-ramp and vanishes at both ends.  Times up to
    ``ramp_start`` give exactly ``base``, times from the ramp's end on
    exactly ``final``; the polynomial is evaluated on the times inside the
    ramp only.
    """
    if ramp_duration <= 0:
        raise ConfigError("ramp_duration must be positive")
    base, final = float(base), float(final)  # integer configs: float outputs
    delta = final - base
    ramp_end = ramp_start + ramp_duration

    def ramp(t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(t as an array, times up to ramp_start, the in-ramp mask)``."""
        t = np.asarray(t, dtype=float)
        before = t <= ramp_start
        return t, before, ~(before | (t >= ramp_end))

    def rate(t) -> np.ndarray:
        t, before, inside = ramp(t)
        out = np.where(before, base, final)
        u = (t[inside] - ramp_start) / ramp_duration
        out[inside] = base + delta * (3.0 * u * u - 2.0 * u * u * u)
        return out

    def accel(t) -> np.ndarray:
        t, _, inside = ramp(t)
        out = np.zeros(t.shape)
        u = (t[inside] - ramp_start) / ramp_duration
        out[inside] = delta * 6.0 * u * (1.0 - u) / ramp_duration
        return out

    return MissionRateProfile(
        rate=rate,
        accel=accel,
        rate_dev_max=max(abs(base - 1.0), abs(final - 1.0)),
        accel_max=1.5 * abs(delta) / ramp_duration,
    )


def path_error_feedback_all(
    traj_velocities: np.ndarray, e_pf_all: np.ndarray, delta: float
) -> np.ndarray:
    """Feedback of each vehicle's path-following error on its virtual-time
    acceleration: the error component along the desired velocity ``v_i``,
    scaled by ``|v_i| / (|v_i| + delta) < 1``, so its magnitude never
    exceeds ``|e_i|``.  Rows are independent: every row of an ``(n, 3)``
    sample or an ``(..., n, 3)`` stack has the bits of a call on it alone.
    ``delta`` may be a float or a 0-d float64 array."""
    if float(delta) <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    dots = einsum("...j,...j->...", traj_velocities, e_pf_all)
    return dots / (row_norms(traj_velocities) + delta)


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
    ``neg_b = -b``, so that a caller holding the gains as 0-d arrays pays
    no negation per call.  The Laplacian's sparsity makes row ``i`` depend
    only on vehicle ``i``'s in-neighbors.  One sample, shape ``(n,)``, or a
    stack, ``(..., n)``, with one Laplacian or one per sample: each sample
    costs one matrix-vector product, so its bits do not depend on the stack
    it is in."""
    consensus = np.matmul(lap, gamma[..., None])[..., 0]
    return neg_b * (gamma_dot - gamma_dot_d) - a * consensus - alpha


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
