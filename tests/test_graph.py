"""Graph construction, all-pairs distances and distance profiles
(profile-matrix rows)."""

import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decaycent.generation import TrialSeed, sample_connected_gnp
from decaycent.graph import (
    LEVEL_CUTOFF,
    DisconnectedGraphError,
    _bitset_bfs,
    build_graph,
    distance_matrix,
    graph_from_pair_arrays,
    profile_matrix,
)

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


def neighbours(g, i):
    return g.indices[g.indptr[i]:g.indptr[i + 1]].tolist()


class TestBuildGraph:
    def test_path_degrees(self, p3):
        assert np.diff(p3.indptr).tolist() == [1, 2, 1]
        assert p3.edges.tolist() == [[0, 1], [1, 2]]

    def test_star_center_degree(self, star4):
        assert np.diff(star4.indptr).tolist() == [3, 1, 1, 1]

    def test_duplicate_edges_collapse(self):
        g = build_graph(3, [(0, 1), (1, 0), (1, 2)])
        assert g.edges.tolist() == [[0, 1], [1, 2]]

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
            nbrs = neighbours(g, i)
            assert nbrs == sorted(nbrs)
            for j in nbrs:
                assert i in neighbours(g, j)

    @given(n=st.integers(2, 12), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_build_graph_equals_pair_arrays(self, n, data):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        kept = data.draw(st.lists(st.sampled_from(pairs), unique=True))
        oriented = [e[::-1] if data.draw(st.booleans()) else e for e in kept]
        dups = [e[::-1] for e in oriented[::2]] + oriented[1::3]
        listed = data.draw(st.permutations(oriented + dups))
        a = build_graph(n, listed)
        us, vs = np.array(oriented, dtype=np.int64).reshape(-1, 2).T
        b = graph_from_pair_arrays(n, us, vs)
        assert a.indptr.tolist() == b.indptr.tolist()
        assert a.indices.tolist() == b.indices.tolist()
        assert a.edges.tolist() == b.edges.tolist() == sorted(map(list, kept))
        for i in range(n):
            assert neighbours(a, i) == sorted(u + v - i for u, v in kept if i in (u, v))

    def test_arrays_are_read_only(self, p3):
        for arr in (p3.indptr, p3.indices, p3.edges):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    def test_single_node_and_edgeless(self):
        one = build_graph(1, [])
        assert one.num_edges == 0 and one.edges.shape == (0, 2)
        assert distance_matrix(one).tolist() == [[0]]
        with pytest.raises(ValueError, match="at least two nodes, got 1"):
            profile_matrix(one)
        with pytest.raises(DisconnectedGraphError, match=r"disconnected \(no edges\)"):
            profile_matrix(build_graph(3, []))


class TestProfileRows:
    def test_p3_endpoints_and_center(self, p3):
        rows = profile_matrix(p3).tolist()
        assert rows[0] == [1, 1]
        assert rows[1] == [2, 0]

    def test_cycle5_oracle(self, cycle5):
        expected = oracle_profile(cycle5, 0)
        assert expected == (2, 2, 0, 0)
        # the matrix stops at the diameter, 2; the oracle runs to n - 1
        for row in profile_matrix(cycle5).tolist():
            assert tuple(row) == expected[:2]

    def test_disconnected_rejected(self):
        for g in DISCONNECTED:
            with pytest.raises(DisconnectedGraphError, match="disconnected"):
                profile_matrix(g)

    def test_one_square_array_per_call(self):
        # the bincount keys are written over the fresh distance matrix, so
        # a call holds one n x n int64 array, not two
        g, _ = sample_connected_gnp(200, 0.03, TrialSeed(1, 0), max_rejects=10**6)
        want = profile_matrix(g)
        tracemalloc.start()
        try:
            got = profile_matrix(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.tolist() == want.tolist()
        assert peak < 2 * g.n**2 * 8

    def test_profile_matrix_examples(self, p3, star4):
        assert profile_matrix(p3).tolist() == [[1, 1], [2, 0], [1, 1]]
        assert profile_matrix(star4).tolist() == [
            [3, 0],
            [1, 2],
            [1, 2],
            [1, 2],
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
        # one column per level up to the diameter, the last one not all zero
        diameter = max(map(max, dist))
        mat = profile_matrix(g)
        assert mat.shape == (n, diameter) and mat[:, -1].any()
        for i in range(n):
            assert mat[i].tolist() == [dist[i].count(level) for level in range(1, diameter + 1)]
            assert int(mat[i].sum()) == n - 1

    def test_cutoff_picks_the_branch(self):
        assert _bitset_bfs(path_graph(LEVEL_CUTOFF + 1)) is not None
        assert _bitset_bfs(path_graph(LEVEL_CUTOFF + 2)) is None

    def test_profile_sum_invariant_larger(self):
        g, _ = sample_connected_gnp(40, 0.15, TrialSeed(100, 0), max_rejects=10**6)
        mat = profile_matrix(g)
        assert (mat.sum(axis=1) == g.n - 1).all()
        assert (mat[:, 0] == np.diff(g.indptr)).all()
