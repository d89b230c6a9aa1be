"""Test-side references: checks and constructors that only the tests call.

The spectrum-reduction check, the adjacency matrix, the one-digraph
Laplacian and the symmetrized baseline config are stated here, next to
the suites that compare the package against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from coordsim.coordalg import HURWITZ_TOL, ProjectionMatrix, reduced_laplacian
from coordsim.digraph import Digraph, contains_spanning_tree, laplacians
from coordsim.simharness import MODE_BIDIRECTIONAL, ScenarioConfig, default_directed_family

# Eigenvalue "zero" in connectivity counting.  Integer Laplacians at the
# node counts used here keep true eigenvalues well separated from this
# scale.
ZERO_EIG_TOL = 1e-8


def adjacency(d: Digraph) -> np.ndarray:
    """Adjacency matrix: entry ``(i, j)`` is 1 exactly when ``(i, j)`` is an
    edge, i.e. when node ``i`` receives from node ``j``.  Integer dtype,
    zero diagonal."""
    a = np.zeros((d.n, d.n), dtype=np.int64)
    for (i, j) in d.edges:
        a[i - 1, j - 1] = 1
    return a


def laplacian(d: Digraph) -> np.ndarray:
    """In-degree Laplacian ``L = diag(in-degrees) - adjacency``: integer, row
    sums exactly zero, off-diagonal entries 0 or -1."""
    return laplacians([d])[0]


@dataclass(frozen=True)
class SpectrumReductionReport:
    """Result of checking a reduced Laplacian against its source.

    ``spectra_match``: the eigenvalue multiset of ``Q L Q^T`` equals that
    of ``L`` with one zero eigenvalue removed (greedy nearest pairing).
    ``hurwitz``: all eigenvalues of ``-Q L Q^T`` have real part below
    ``-HURWITZ_TOL``, which for a digraph Laplacian is equivalent to the
    digraph containing a directed spanning tree.
    ``connectivity_consistent``: set when the source digraph is supplied.
    """

    spectra_match: bool
    hurwitz: bool
    connectivity_consistent: bool | None
    max_pair_gap: float


def check_spectrum_reduction(
    l: np.ndarray, q: ProjectionMatrix, d: Digraph | None = None
) -> SpectrumReductionReport:
    """Verify the two reduction properties for one Laplacian.

    Raises ``ValueError`` when ``l`` is not a Laplacian (row sums beyond
    1e-9).  Eigenvalue pairing uses greedy nearest matching at tolerance
    ``ZERO_EIG_TOL``.
    """
    l = np.asarray(l, dtype=float)
    if l.shape != (q.n, q.n):
        raise ValueError(f"Laplacian shape {l.shape} does not match projection n={q.n}")
    if np.abs(l @ np.ones(q.n)).max() > 1e-9:
        raise ValueError("input is not a Laplacian: row sums are not zero")

    lbar = reduced_laplacian(q, l)
    ev_full = np.linalg.eigvals(l)
    ev_reduced = np.linalg.eigvals(lbar)

    # remove one zero eigenvalue (the one carried by the ones eigenvector)
    remaining = list(np.delete(ev_full, int(np.argmin(np.abs(ev_full)))))
    max_gap = 0.0
    for lam in sorted(ev_reduced, key=lambda z: (z.real, z.imag)):
        j = int(np.argmin([abs(lam - r) for r in remaining]))
        max_gap = max(max_gap, abs(lam - remaining[j]))
        remaining.pop(j)
    spectra_match = max_gap <= ZERO_EIG_TOL

    hurwitz = bool(np.all(np.real(-ev_reduced) < -HURWITZ_TOL))
    consistent = None
    if d is not None:
        consistent = hurwitz == contains_spanning_tree(d)
    return SpectrumReductionReport(spectra_match, hurwitz, consistent, max_gap)


def mirror_family(family: list[Digraph]) -> list[Digraph]:
    """Symmetrized counterparts: every edge paired with its reverse."""
    return [
        Digraph(d.n, set(d.edges) | {(j, i) for (i, j) in d.edges}) for d in family
    ]


def default_bidirectional_config(**overrides) -> ScenarioConfig:
    return ScenarioConfig(
        mode=MODE_BIDIRECTIONAL,
        topology_family=mirror_family(default_directed_family()),
        **overrides,
    )
