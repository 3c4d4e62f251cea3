"""Graph construction and distance profiles (profile-matrix rows)."""

import numpy as np
import pytest

from decaycent import (
    DisconnectedGraphError,
    build_graph,
    profile_matrix,
    sample_connected_gnp,
    TrialSeed,
)

from conftest import oracle_distances, oracle_profile


class TestBuildGraph:
    def test_path_degrees(self, p3):
        assert [p3.degree(i) for i in range(3)] == [1, 2, 1]
        assert p3.edges == ((0, 1), (1, 2))

    def test_star_center_degree(self, star4):
        assert star4.degree(0) == 3
        assert all(star4.degree(i) == 1 for i in (1, 2, 3))

    def test_duplicate_edges_collapse(self):
        g = build_graph(3, [(0, 1), (1, 0), (1, 2)])
        assert g.edges == ((0, 1), (1, 2))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            build_graph(3, [(0, 3)])
        with pytest.raises(ValueError, match="outside"):
            build_graph(3, [(-1, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            build_graph(3, [(1, 1)])

    def test_neighbor_lists_sorted_and_symmetric(self):
        g = build_graph(5, [(3, 1), (4, 0), (2, 0), (1, 0)])
        for i in range(5):
            nbrs = g.adjacency[i]
            assert list(nbrs) == sorted(nbrs)
            for j in nbrs:
                assert i in g.adjacency[j]


class TestProfileRows:
    def test_p3_endpoints_and_center(self, p3):
        rows = profile_matrix(p3).tolist()
        assert rows[0] == [1, 1]
        assert rows[1] == [2, 0]

    def test_cycle5_oracle(self, cycle5):
        expected = oracle_profile(cycle5, 0)
        assert expected == (2, 2, 0, 0)
        for row in profile_matrix(cycle5).tolist():
            assert tuple(row) == expected

    def test_disconnected_rejected(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            profile_matrix(g)

    def test_profile_matrix_examples(self, p3, star4):
        assert profile_matrix(p3).tolist() == [[1, 1], [2, 0], [1, 1]]
        assert profile_matrix(star4).tolist() == [
            [3, 0, 0],
            [1, 2, 0],
            [1, 2, 0],
            [1, 2, 0],
        ]


class TestAgainstOracle:
    @pytest.mark.parametrize("idx", range(12))
    def test_bfs_equals_floyd_warshall(self, idx):
        n = 4 + idx % 9  # up to 12 nodes
        g, _ = sample_connected_gnp(n, 0.35, TrialSeed(99, idx), max_rejects=10**6)
        dist = oracle_distances(g)
        # symmetry of the produced distances
        for i in range(n):
            for j in range(n):
                assert dist[i][j] == dist[j][i]
        mat = profile_matrix(g)
        for i in range(n):
            assert tuple(int(c) for c in mat[i]) == oracle_profile(g, i)
            assert int(mat[i].sum()) == n - 1

    def test_profile_sum_invariant_larger(self):
        g, _ = sample_connected_gnp(40, 0.15, TrialSeed(100, 0), max_rejects=10**6)
        mat = profile_matrix(g)
        assert (mat.sum(axis=1) == g.n - 1).all()
        assert (mat[:, 0] == np.array([g.degree(i) for i in range(g.n)])).all()
