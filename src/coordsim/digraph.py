"""Directed communication topologies and their algebraic objects.

A :class:`Digraph` stores edges as ``(receiver, sender)`` ordered pairs with
1-based node labels: edge ``(i, j)`` means node ``i`` receives from node
``j``.  All matrix code in the package derives direction from this single
convention.  Laplacian matrices are exact integer arrays; they are widened
to floating point only where eigenvalue work begins.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

Edge = tuple[int, int]


def _is_int(value) -> bool:
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )


@dataclass(frozen=True)
class Digraph:
    """Directed graph on nodes ``1..n`` with receiver-first edges.

    Invariants enforced at construction: no self-loops, all node labels in
    ``1..n``.  The edge set is a frozenset, so duplicates cannot occur and
    instances are hashable and safe to share between concurrent runs.
    """

    n: int
    edges: frozenset[Edge]

    def __init__(self, n: int, edges=()):
        if n < 1:
            raise ValueError(f"node count must be >= 1, got {n}")
        normalized = set()
        for e in edges:
            i, j = int(e[0]), int(e[1])
            if i == j:
                raise ValueError(f"self-loop ({i},{i}) is not allowed")
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge ({i},{j}) outside node range 1..{n}")
            normalized.add((i, j))
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "edges", frozenset(normalized))

    @classmethod
    def from_dict(cls, d: dict) -> "Digraph":
        """Build from the JSON literal ``{"n": 5, "edges": [[1, 3], ...]}``:
        an integer ``n`` and a list of edges, each exactly two integer
        labels, and no other key; raises ValueError otherwise."""
        if not isinstance(d, dict) or set(d) - {"n", "edges"}:
            raise ValueError(f"a topology is an object with keys n and edges, got {d!r}")
        n, edges = d.get("n"), d.get("edges", [])
        if not _is_int(n):
            raise ValueError(f"n must be an integer, got {n!r}")
        if not isinstance(edges, list):
            raise ValueError(f"edges must be a list, got {edges!r}")
        for e in edges:
            if not (isinstance(e, list) and len(e) == 2 and all(map(_is_int, e))):
                raise ValueError(f"edge {e!r} must be a pair of integer labels")
        return cls(n, [tuple(e) for e in edges])

    def to_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in sorted(self.edges)]}


def laplacians(ds: list[Digraph]) -> np.ndarray:
    """Stack of the in-degree Laplacians ``L = diag(in-degrees) -
    adjacency`` of ``ds``, of one node count: integers, row sums exactly
    zero, off-diagonal entries 0 or -1, no -0.0."""
    m, n = len(ds), ds[0].n
    out = np.zeros((m, n, n), dtype=np.int64)
    edges = [(k * n + i - 1) * n + j - 1 for k, d in enumerate(ds) for (i, j) in d.edges]
    out.ravel()[edges] = -1
    out.reshape(m, n * n)[:, :: n + 1] = -out.sum(axis=2)  # the diagonals
    return out


def contains_spanning_tree(d: Digraph) -> bool:
    """True iff some root node reaches every node along transmission
    direction."""
    return _has_spanning_tree(d.n, d.edges)


def _has_spanning_tree(n: int, edges) -> bool:
    """True iff some root of nodes ``1..n`` reaches every node along the
    receiver-first ``edges``.

    Edge ``(i, j)`` stores "i receives from j", so information flows
    ``j -> i``; reachability therefore follows reversed stored pairs.
    Plain repeated DFS, O(n*(n+|E|)), fine for the node counts used here.
    """
    out: dict[int, list[int]] = {j: [] for j in range(1, n + 1)}
    for (i, j) in edges:
        out[j].append(i)
    for root in range(1, n + 1):
        seen = {root}
        stack = [root]
        while stack:
            u = stack.pop()
            for w in out[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == n:
            return True
    return False


def jointly_connected(ds: list[Digraph]) -> bool:
    """True iff the union of the family contains a directed spanning tree.

    Individual members may (and in the intended use, do) fail to contain
    one on their own.  Raises ValueError on an empty family or one whose
    node counts differ.  The union is the set of the members' edges, each
    checked when its member was built.
    """
    if not ds:
        raise ValueError("union of an empty topology list is undefined")
    n = ds[0].n
    for d in ds:
        if d.n != n:
            raise ValueError(f"node counts differ across family: {d.n} != {n}")
    return _has_spanning_tree(n, frozenset().union(*(d.edges for d in ds)))
