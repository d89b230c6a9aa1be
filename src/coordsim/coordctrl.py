"""Decentralized virtual-time coordination.

Each vehicle carries a virtual time ``gamma_i`` mapping wall clock to
mission time; its second derivative is commanded from three terms: a pull
toward the shared desired mission rate, a consensus term over the virtual
times of in-neighbors, and a feedback of the path-following error
projected on the desired velocity direction.  Coordination is reached
when all ``gamma_i`` agree and all rates match the desired rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .coordalg import ProjectionMatrix
from .errors import ConfigError


@dataclass(frozen=True)
class MissionRateProfile:
    """Desired mission rate ``rate(t)`` with its derivative and declared
    bounds ``1 - rate_dev_max <= rate <= 1 + rate_dev_max`` and
    ``|accel| <= accel_max``."""

    rate: Callable[[float], float]
    accel: Callable[[float], float]
    rate_dev_max: float
    accel_max: float

    def validate(self, t_max: float, samples: int = 10_000) -> None:
        """Check the declared bounds on a dense grid; raises ConfigError."""
        ts = np.linspace(0.0, t_max, samples).tolist()
        rates = np.fromiter(map(self.rate, ts), float, samples)
        accels = np.fromiter(map(self.accel, ts), float, samples)
        lo, hi = 1.0 - self.rate_dev_max, 1.0 + self.rate_dev_max
        if rates.min() < lo - 1e-12 or rates.max() > hi + 1e-12:
            raise ConfigError(
                f"mission rate leaves its declared band [{lo}, {hi}]: "
                f"observed [{rates.min():.6g}, {rates.max():.6g}]"
            )
        if np.abs(accels).max() > self.accel_max + 1e-12:
            raise ConfigError(
                f"mission rate acceleration exceeds declared bound {self.accel_max}: "
                f"observed {np.abs(accels).max():.6g}"
            )
        if rates.min() <= 0:
            raise ConfigError("mission rate must stay positive")


def constant_profile(rate: float = 1.0) -> MissionRateProfile:
    return MissionRateProfile(
        rate=lambda t: rate,
        accel=lambda t: 0.0,
        rate_dev_max=abs(rate - 1.0),
        accel_max=0.0,
    )


def smoothstep_profile(
    base: float = 1.0,
    final: float = 1.1,
    ramp_start: float = 28.0,
    ramp_duration: float = 8.0,
) -> MissionRateProfile:
    """Constant ``base`` rate, one cubic-smoothstep ramp to ``final``.

    The ramp is C1: rate acceleration peaks at ``1.5 |final-base| /
    ramp_duration`` mid-ramp and vanishes at both ends.
    """
    if ramp_duration <= 0:
        raise ConfigError("ramp_duration must be positive")
    delta = final - base

    def rate(t: float) -> float:
        if t <= ramp_start:
            return base
        if t >= ramp_start + ramp_duration:
            return final
        u = (t - ramp_start) / ramp_duration
        return base + delta * (3.0 * u * u - 2.0 * u * u * u)

    def accel(t: float) -> float:
        if t <= ramp_start or t >= ramp_start + ramp_duration:
            return 0.0
        u = (t - ramp_start) / ramp_duration
        return delta * 6.0 * u * (1.0 - u) / ramp_duration

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
    exceeds ``|e_i|``.  Rows are independent."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    dots = np.einsum("ij,ij->i", traj_velocities, e_pf_all)
    norms = np.sqrt(np.einsum("ij,ij->i", traj_velocities, traj_velocities))
    return dots / (norms + delta)


def coordination_accel_matrix(
    gamma: np.ndarray,
    gamma_dot: np.ndarray,
    lap: np.ndarray,
    alpha: np.ndarray,
    gamma_dot_d: float,
    a: float,
    b: float,
) -> np.ndarray:
    """Matrix form of the coordination law:
    ``-b (rate error) - a L gamma - alpha``.  The Laplacian's sparsity
    makes row ``i`` depend only on vehicle ``i``'s in-neighbors."""
    return -b * (gamma_dot - gamma_dot_d) - a * (lap @ gamma) - alpha


def coordination_error(
    gamma: np.ndarray,
    gamma_dot: np.ndarray,
    q: ProjectionMatrix | None,
    gamma_dot_d: float,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Coordination error: projected virtual-time disagreement and rate
    deviation, plus the stacked norm.

    The first component vanishes exactly when all virtual times agree;
    adding a common constant to every ``gamma_i`` leaves it unchanged.  A
    single vehicle has no projection (``q`` is None) and no disagreement.
    """
    xi1 = q.q @ gamma if q is not None else np.zeros(0)
    xi2 = gamma_dot - gamma_dot_d
    return xi1, xi2, math.sqrt(float(xi1 @ xi1) + float(xi2 @ xi2))


class Violation(NamedTuple):
    vehicle: int  # 1-based
    time: float
    bound: str  # "rate" or "accel"
    value: float


def feasibility_check(
    gamma_dot: np.ndarray,
    gamma_ddot: np.ndarray,
    bounds: tuple[float, float],
    t: float = 0.0,
    active: np.ndarray | None = None,
) -> list[Violation]:
    """Flag virtual-time rates outside ``[1 - gamma_dot_max,
    1 + gamma_dot_max]`` and accelerations beyond ``gamma_ddot_max``, where
    ``bounds = (gamma_dot_max, gamma_ddot_max)``.

    ``active`` restricts the check to vehicles still flying the mission.
    Records are ordered by vehicle, a rate record before an acceleration
    record of the same vehicle.  An empty list means feasible.
    """
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
    violations: list[Violation] = []
    for i in flagged.nonzero()[0]:
        if bad_rate[i]:
            violations.append(Violation(int(i) + 1, t, "rate", float(gamma_dot[i])))
        if bad_accel[i]:
            violations.append(Violation(int(i) + 1, t, "accel", float(gamma_ddot[i])))
    return violations
