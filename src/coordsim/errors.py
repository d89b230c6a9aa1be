"""Exception types shared across the package."""

import numpy as np


class ConfigError(ValueError):
    """A scenario configuration is malformed or violates a precondition."""


class SynthesisError(RuntimeError):
    """Switching-law synthesis failed, typically because the topology
    family is not jointly connected."""


class NumericError(RuntimeError):
    """A numerical computation left its validated envelope (ill-conditioned
    solve, non-finite state during simulation)."""


def check_finite(name: str, arr: np.ndarray, t: float) -> None:
    """Raise NumericError naming the first non-finite entry of ``arr``,
    called ``name``, and the time ``t``."""
    bad = ~np.isfinite(arr)
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise NumericError(f"non-finite {name}[{idx}] at t={t:.6g}")
