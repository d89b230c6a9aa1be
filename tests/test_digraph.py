import numpy as np
import pytest

from coordsim.digraph import Digraph, contains_spanning_tree, jointly_connected
from conftest import random_digraph
from reference import adjacency, laplacian


def edge_union(ds):
    """The digraph on the merged edge sets of a family."""
    return Digraph(ds[0].n, frozenset().union(*(d.edges for d in ds)))


def reachability_oracle(d):
    """Independent spanning-tree check: powers of the transposed
    adjacency matrix accumulate multi-hop reachability."""
    a = adjacency(d).T  # (j, i) entry: j transmits to i
    reach = np.eye(d.n, dtype=np.int64)
    power = np.eye(d.n, dtype=np.int64)
    for _ in range(d.n - 1):
        power = (power @ a > 0).astype(np.int64)
        reach |= power
    return bool((reach.sum(axis=1) == d.n).any())


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Digraph(3, [(2, 2)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside node range"):
            Digraph(3, [(1, 4)])

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            Digraph(0)

    def test_duplicates_collapse(self):
        d = Digraph(3, [(1, 2), (1, 2)])
        assert len(d.edges) == 1

    def test_hashable_and_equal(self):
        assert Digraph(3, [(1, 2)]) == Digraph(3, [(1, 2)])
        assert hash(Digraph(3, [(1, 2)])) == hash(Digraph(3, [(1, 2)]))

    def test_dict_roundtrip(self):
        d = Digraph(5, [(1, 3), (4, 2)])
        assert Digraph.from_dict(d.to_dict()) == d


class TestAdjacency:
    def test_empty(self):
        assert np.array_equal(adjacency(Digraph(2)), np.zeros((2, 2), dtype=int))

    def test_single_edge(self):
        assert np.array_equal(adjacency(Digraph(2, [(2, 1)])), [[0, 0], [1, 0]])

    def test_default_union_has_four_ones(self, default_family):
        a = adjacency(edge_union(default_family))
        assert a.sum() == 4
        assert np.array_equal(np.diag(a), np.zeros(5, dtype=int))

    def test_zero_diagonal_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = random_digraph(rng, well_conditioned=False)
            assert np.all(np.diag(adjacency(d)) == 0)


class TestLaplacian:
    def test_single_edge(self):
        assert np.array_equal(laplacian(Digraph(2, [(2, 1)])), [[0, 0], [-1, 1]])

    def test_in_degree_two(self):
        l = laplacian(Digraph(3, [(1, 2), (1, 3)]))
        assert np.array_equal(l, [[2, -1, -1], [0, 0, 0], [0, 0, 0]])

    def test_row_sums_zero_exactly(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            d = random_digraph(rng, well_conditioned=False)
            l = laplacian(d)
            assert l.dtype == np.int64
            assert np.all(l @ np.ones(d.n, dtype=np.int64) == 0)

    def test_offdiagonal_entries(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = random_digraph(rng, well_conditioned=False)
            l = laplacian(d)
            off = l[~np.eye(d.n, dtype=bool)]
            assert set(np.unique(off)).issubset({0, -1})


class TestEigenstructure:
    def test_nonnegative_real_parts_and_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            d = random_digraph(rng, well_conditioned=False)
            ev = np.linalg.eigvals(laplacian(d).astype(float))
            assert ev.real.min() > -1e-9
            assert np.abs(ev).min() < 1e-8

    def test_zero_multiplicity_tracks_spanning_tree(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            d = random_digraph(rng, well_conditioned=False)
            ev = np.linalg.eigvals(laplacian(d).astype(float))
            zeros = int((np.abs(ev) < 1e-8).sum())
            if contains_spanning_tree(d):
                assert zeros == 1
            else:
                assert zeros >= 2


class TestUnion:
    """The summed Laplacians of a family, which the certificate's Lyapunov
    equation uses, against the Laplacian of its union digraph: equal on
    disjoint edge sets, counting a repeated edge once per occurrence."""

    def test_duplicate_edge_sums(self):
        d = Digraph(2, [(2, 1)])
        assert edge_union([d, d]).edges == d.edges
        assert (laplacian(d) + laplacian(d))[1, 1] == 2

    def test_disjoint_union_matches_sum(self):
        d1 = Digraph(4, [(1, 2)])
        d2 = Digraph(4, [(3, 4)])
        summed = laplacian(d1) + laplacian(d2)
        assert np.array_equal(summed, laplacian(edge_union([d1, d2])))

    def test_disjoint_random_families(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(3, 8))
            all_pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
            rng.shuffle(all_pairs)
            cut = len(all_pairs) // 2
            d1 = Digraph(n, [p for p in all_pairs[:cut] if rng.random() < 0.4])
            d2 = Digraph(n, [p for p in all_pairs[cut:] if rng.random() < 0.4])
            summed = laplacian(d1) + laplacian(d2)
            assert np.array_equal(summed, laplacian(edge_union([d1, d2])))

    def test_mismatched_n(self):
        with pytest.raises(ValueError, match="node counts differ"):
            jointly_connected([Digraph(2), Digraph(3)])

    def test_empty_list(self):
        with pytest.raises(ValueError, match="empty"):
            jointly_connected([])

    def test_default_union_contains_spanning_tree(self, default_family):
        assert contains_spanning_tree(edge_union(default_family))


class TestSpanningTree:
    def test_complete(self):
        edges = [(i, j) for i in range(1, 4) for j in range(1, 4) if i != j]
        assert contains_spanning_tree(Digraph(3, edges))

    def test_empty(self):
        assert not contains_spanning_tree(Digraph(3))

    def test_single_edge_pair(self):
        assert contains_spanning_tree(Digraph(2, [(2, 1)]))

    def test_against_matrix_power_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            d = random_digraph(rng, well_conditioned=False)
            assert contains_spanning_tree(d) == reachability_oracle(d)


class TestJointlyConnected:
    def test_two_singletons(self):
        assert jointly_connected([Digraph(2, [(2, 1)]), Digraph(2, [(1, 2)])])

    def test_two_empties(self):
        assert not jointly_connected([Digraph(2), Digraph(2)])

    def test_default_family(self, default_family):
        assert jointly_connected(default_family)
        for d in default_family:
            assert not contains_spanning_tree(d)
