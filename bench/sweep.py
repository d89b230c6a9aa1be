"""Seeded generator of the ``family-sweep`` scenarios.

Each scenario is a directed-switched config with a random jointly
connected topology family: a random directed spanning tree on ``n`` nodes
whose edges are dealt out across ``m`` topologies, plus a few sparse extra
edges.  No single topology needs to contain a spanning tree; their union
always does, by construction.  Each scenario also gets a random nonzero
``phi0``, zero to two gusts inside the short horizon and the fixed ``MU``.

The generator uses only numpy and its own seed, so the program under test
receives nothing but the generated configs.
"""

from __future__ import annotations

import numpy as np

N_RANGE = (3, 10)
M_RANGE = (2, 6)
# Well inside the admissible (0, 1/lambda_max(P)): over about 1,500 generated
# families 1/lambda_max(P) stayed above 0.06.  A family where it does not is
# refused by the validate step and counts as a failed scenario.
MU = 0.01
DT = 1e-3
EXTRA_EDGE_PROB = 0.05
MAX_GUSTS = 2
GUST_ACCEL = 2.0


def random_family(rng: np.random.Generator, n: int, m: int) -> list[list[tuple[int, int]]]:
    """Edge lists ``(receiver, sender)`` of ``m`` topologies on nodes
    ``1..n`` whose union contains a directed spanning tree."""
    order = rng.permutation(n) + 1
    tree = [
        (int(order[i]), int(order[rng.integers(0, i)])) for i in range(1, n)
    ]
    family: list[set[tuple[int, int]]] = [set() for _ in range(m)]
    for edge in tree:
        family[int(rng.integers(0, m))].add(edge)
    for edges in family:
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j and rng.random() < EXTRA_EDGE_PROB:
                    edges.add((i, j))
    return [sorted(edges) for edges in family]


def scenario(rng: np.random.Generator, n: int, m: int, steps: int) -> dict:
    """One scenario config as the JSON dict ``coordsim`` loads."""
    t_max = steps * DT
    phi0 = rng.uniform(-2.0, 2.0, size=n - 1)
    gusts = []
    for _ in range(int(rng.integers(0, MAX_GUSTS + 1))):
        start = float(rng.uniform(0.0, 0.5 * t_max))
        gusts.append(
            {
                "vehicle": int(rng.integers(1, n + 1)),
                "accel": rng.uniform(-GUST_ACCEL, GUST_ACCEL, size=3).tolist(),
                "window": [start, start + 0.4 * t_max],
            }
        )
    return {
        "n": n,
        "mode": "directed-switched",
        "topology_family": [
            {"n": n, "edges": [list(e) for e in edges]}
            for edges in random_family(rng, n, m)
        ],
        "mu_list": [MU] * m,
        "phi0": phi0.tolist(),
        "dt": DT,
        "t_max": t_max,
        "gusts": gusts,
    }


def generate(seed: int, count: int, steps: int) -> list[dict]:
    """``count`` scenario configs in random order; the same arguments give
    the same list.

    The sizes ``(n, m)`` run through the whole grid ``N_RANGE x M_RANGE``
    (40 cells) once per 40 scenarios, so every seed has the same mix of
    sizes and seeds differ only in edges, ``phi0`` and gusts.
    """
    rng = np.random.default_rng(seed)
    grid = [
        (n, m)
        for n in range(N_RANGE[0], N_RANGE[1] + 1)
        for m in range(M_RANGE[0], M_RANGE[1] + 1)
    ]
    cells = [grid[k % len(grid)] for k in rng.permutation(max(count, len(grid)))[:count]]
    return [scenario(rng, n, m, steps) for n, m in cells]


def union_has_spanning_tree(config: dict) -> bool:
    """Independent check of joint connectivity: some node reaches every
    node along the transmission direction (sender -> receiver) in the
    union of the family."""
    n = config["n"]
    out: dict[int, set[int]] = {j: set() for j in range(1, n + 1)}
    for topo in config["topology_family"]:
        for receiver, sender in topo["edges"]:
            out[sender].add(receiver)
    for root in range(1, n + 1):
        seen = {root}
        stack = [root]
        while stack:
            for w in out[stack.pop()] - seen:
                seen.add(w)
                stack.append(w)
        if len(seen) == n:
            return True
    return False
