"""Correctness gate: headline outputs against stored references, and the
paper's invariants on every run.

Headline outputs are the ones a user reads from ``summary.json`` plus the
switch log.  Stored references were recorded with
``python3 bench/record_references.py``; floats compare at a relative
tolerance of ``REL_TOL``, integers, indices and ``None`` exactly.

The invariants hold for any valid input, so they are checked on every run,
with or without a stored reference:

- the final state is finite;
- observed switch spacing is at least ``dwell_bound - dt``;
- the auxiliary energy ``phi^T P phi`` never increases (a step may rise by
  at most ``AUX_ROUNDOFF`` times its starting value, which is round-off).
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-9
AUX_ROUNDOFF = 1e-12
HEADLINE = (
    "comm_amount",
    "tau_f",
    "switch_log",
    "n_switches",
    "final_xi_norm",
    "lambda_hat_min",
    "violation_count",
)


def headline(log) -> dict:
    """Headline outputs of one ``MetricsLog`` as plain JSON values."""
    return {
        "comm_amount": float(log.comm_amount),
        "tau_f": None if log.tau_f is None else float(log.tau_f),
        "switch_log": [[float(t), int(a), int(b)] for t, a, b in log.switch_log],
        "n_switches": len(log.switch_log),
        "final_xi_norm": float(log.final_xi_norm),
        "lambda_hat_min": log.lambda_hat_min,
        "violation_count": len(log.violations),
    }


def _same(observed, reference) -> bool:
    if isinstance(reference, list):
        return (
            isinstance(observed, list)
            and len(observed) == len(reference)
            and all(_same(o, r) for o, r in zip(observed, reference))
        )
    if reference is None or observed is None or isinstance(reference, (bool, int)):
        return type(observed) is type(reference) and observed == reference
    return math.isclose(observed, reference, rel_tol=REL_TOL, abs_tol=0.0)


def compare(observed: dict, reference: dict) -> list[str]:
    """Names of the headline fields that disagree with the reference."""
    return [k for k in HEADLINE if not _same(observed.get(k), reference.get(k))]


def invariants(log) -> list[str]:
    """Descriptions of violated invariants; empty when all hold."""
    problems = []
    for name, arr in log.final_state.items():
        if not np.isfinite(arr).all():
            problems.append(f"non-finite final {name}")
    cert = log.certificate
    times = [t for t, _, _ in log.switch_log]
    if cert is not None and len(times) >= 2:
        spacing = float(np.diff(times).min())
        if spacing < cert.dwell_bound - log.config.dt:
            problems.append(
                f"switch spacing {spacing:.6g} below dwell_bound - dt "
                f"{cert.dwell_bound - log.config.dt:.6g}"
            )
    if log.aux_v is not None and len(log.aux_v) >= 2:
        rise = float(np.diff(log.aux_v).max())
        if rise > AUX_ROUNDOFF * float(log.aux_v[0]):
            problems.append(f"aux_v increased by {rise:.3g}")
    return problems
