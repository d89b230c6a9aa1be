"""Shared generators and fixtures.

Random digraphs for the spectral suites are rejection-sampled to have a
numerically diagonalizable Laplacian (eigenvector condition below 1e6):
defective Laplacians scatter double-precision eigenvalues like eps^(1/k)
for a size-k Jordan block, which is far beyond the 1e-8 comparison
tolerance and says nothing about the code under test.
"""

import numpy as np
import pytest
from hypothesis import settings

from coordsim.digraph import Digraph, jointly_connected
from reference import laplacian

# Same examples on every run, and no per-example time limit: the suite's
# verdict must not depend on the host's speed or on earlier runs.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def random_digraph(rng, n_max=8, p_range=(0.2, 0.7), well_conditioned=True):
    while True:
        n = int(rng.integers(2, n_max + 1))
        p = rng.uniform(*p_range)
        edges = {
            (i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i != j and rng.random() < p
        }
        d = Digraph(n, edges)
        if not well_conditioned:
            return d
        _, vecs = np.linalg.eig(laplacian(d).astype(float))
        if np.linalg.cond(vecs) < 1e6:
            return d


def random_jointly_connected_family(rng, n=None, m=None, max_tries=500):
    if n is None:
        n = int(rng.integers(3, 9))
    if m is None:
        m = int(rng.integers(2, 5))
    for _ in range(max_tries):
        family = []
        for _ in range(m):
            edges = {
                (i, j)
                for i in range(1, n + 1)
                for j in range(1, n + 1)
                if i != j and rng.random() < 0.25
            }
            family.append(Digraph(n, edges))
        if jointly_connected(family):
            return family
    raise AssertionError("could not draw a jointly connected family")


@pytest.fixture(scope="session")
def default_family():
    from coordsim.simharness import default_directed_family

    return default_directed_family()


@pytest.fixture(scope="session")
def default_cert(default_family):
    from coordsim.coordalg import build_certificate

    return build_certificate(default_family, [0.2638] * 3, 0.75, 1.82)
