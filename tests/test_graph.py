"""Graph construction, all-pairs distances and distance profiles
(profile-matrix rows)."""

from functools import partial

import numpy as np
import pytest

from decaycent import (
    DisconnectedGraphError,
    build_graph,
    profile_matrix,
    sample_connected_gnp,
    TrialSeed,
)
from decaycent.graph import LEVEL_CUTOFF, _bitset_bfs, distance_matrix

from conftest import oracle_distances, oracle_profile


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n):
    return build_graph(n, [(0, i) for i in range(1, n)])


def complete_graph(n):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def small_gnp(idx):
    n = 4 + idx % 9  # up to 12 nodes
    return sample_connected_gnp(n, 0.35, TrialSeed(99, idx), max_rejects=10**6)[0]


def gnp(n):
    return sample_connected_gnp(n, 0.1, TrialSeed(98, n), max_rejects=10**6)[0]


#: Node counts on either side of the 64-bit word boundaries of the bitset BFS.
WORD_SIZES = (63, 64, 65, 127, 128, 129)

ORACLE_CASES = (
    [pytest.param(partial(small_gnp, idx), id=str(idx)) for idx in range(12)]
    # the word-size paths and the cycles past C_65 take the scipy fallback
    + [pytest.param(partial(make, n), id=f"{make.__name__}-{n}")
       for make in (path_graph, cycle_graph, star_graph, gnp) for n in WORD_SIZES]
    # diameter LEVEL_CUTOFF (the sweep finishes) and one more (the fallback)
    + [pytest.param(partial(path_graph, n), id=f"path_graph-{n}")
       for n in (LEVEL_CUTOFF + 1, LEVEL_CUTOFF + 2)]
    + [pytest.param(partial(complete_graph, n), id=f"complete_graph-{n}") for n in (2, 65)]
)

DISCONNECTED = [
    build_graph(4, [(0, 1), (2, 3)]),
    # two triangles: the sweep stops growing at level 1
    build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
    # two paths of diameter past the cut-off: the scipy fallback finds it
    build_graph(2 * LEVEL_CUTOFF + 4,
                [(i, i + 1) for i in range(2 * LEVEL_CUTOFF + 3) if i != LEVEL_CUTOFF + 1]),
    # a long path and an isolated node
    build_graph(LEVEL_CUTOFF + 3, [(i, i + 1) for i in range(LEVEL_CUTOFF + 1)]),
]


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
        for g in DISCONNECTED:
            with pytest.raises(DisconnectedGraphError, match="disconnected"):
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
    @pytest.mark.parametrize("make", ORACLE_CASES)
    def test_bfs_equals_floyd_warshall(self, make):
        g = make()
        n = g.n
        dist = oracle_distances(g)
        # symmetry of the produced distances
        for i in range(n):
            for j in range(n):
                assert dist[i][j] == dist[j][i]
        assert distance_matrix(g).tolist() == dist
        mat = profile_matrix(g)
        for i in range(n):
            assert mat[i].tolist() == [dist[i].count(level) for level in range(1, n)]
            assert int(mat[i].sum()) == n - 1

    def test_cutoff_picks_the_branch(self):
        assert _bitset_bfs(path_graph(LEVEL_CUTOFF + 1)) is not None
        assert _bitset_bfs(path_graph(LEVEL_CUTOFF + 2)) is None

    def test_profile_sum_invariant_larger(self):
        g, _ = sample_connected_gnp(40, 0.15, TrialSeed(100, 0), max_rejects=10**6)
        mat = profile_matrix(g)
        assert (mat.sum(axis=1) == g.n - 1).all()
        assert (mat[:, 0] == np.array([g.degree(i) for i in range(g.n)])).all()
