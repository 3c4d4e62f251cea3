"""Seeded G(n,p) sampling: determinism, distribution, rejection behavior."""

from itertools import combinations

import numpy as np
import pytest
from scipy import stats

from decaycent.generation import (
    RejectionLimitError,
    TrialSeed,
    _draw_edges,
    pairs_connected,
    sample_connected_gnp,
)
from decaycent.graph import distance_matrix


def dfs_connected(n, edges):
    """Connectivity by depth-first search over Python adjacency sets; the
    oracle for the sampler's own check."""
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    seen, stack = {0}, [0]
    while stack:
        for w in nbrs[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == n


def assert_connected(g):
    # distance_matrix (bitset BFS) raises DisconnectedGraphError on a
    # disconnected graph; the union-find under test is not used here
    assert distance_matrix(g).max() < g.n


class TestTrialSeed:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            TrialSeed(-1, 0)
        with pytest.raises(ValueError):
            TrialSeed(0, -2)

    def test_streams_differ_by_trial(self):
        a = TrialSeed(7, 0).stream(0).integers(0, 2**32, size=4)
        b = TrialSeed(7, 1).stream(0).integers(0, 2**32, size=4)
        assert (a != b).any()

    def test_stream_is_pure_function(self):
        a = TrialSeed(7, 3).stream(2).integers(0, 2**32, size=4)
        b = TrialSeed(7, 3).stream(2).integers(0, 2**32, size=4)
        assert (a == b).all()


class TestSampleGnp:
    """The unconditioned G(n, p) edge draw behind every connected-sampler
    attempt: a uniform subset of ``k`` distinct pairs."""

    def test_determinism(self):
        u1, v1 = _draw_edges(TrialSeed(5, 9).stream(), 12, 20)
        u2, v2 = _draw_edges(TrialSeed(5, 9).stream(), 12, 20)
        assert u1.tolist() == u2.tolist()
        assert v1.tolist() == v2.tolist()
        assert (u1 < v1).all()
        assert len(set(zip(u1.tolist(), v1.tolist()))) == 20


class TestSampleConnectedGnp:
    def test_p_one_accepted_immediately(self):
        g, rejects = sample_connected_gnp(5, 1.0, TrialSeed(2, 0))
        assert rejects == 0
        assert g.num_edges == 10

    def test_p_one_gives_complete_graph(self):
        g, _ = sample_connected_gnp(6, 1.0, TrialSeed(1, 0))
        assert g.edges.tolist() == [list(e) for e in combinations(range(6), 2)]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            sample_connected_gnp(1, 0.5, TrialSeed(0, 0))
        with pytest.raises(ValueError):
            sample_connected_gnp(5, 0.0, TrialSeed(0, 0))
        with pytest.raises(ValueError):
            sample_connected_gnp(5, 1.2, TrialSeed(0, 0))

    def test_determinism_graph_and_reject_count(self):
        a, ra = sample_connected_gnp(10, 0.15, TrialSeed(3, 4))
        b, rb = sample_connected_gnp(10, 0.15, TrialSeed(3, 4))
        assert a.edges.tolist() == b.edges.tolist()
        assert ra == rb
        assert_connected(a)

    def test_sparse_setting_terminates_or_errors_cleanly(self):
        # high rejection regime: either outcome is acceptable, but it must
        # be clean and deterministic
        outcomes = []
        for idx in range(3):
            try:
                g, rejects = sample_connected_gnp(
                    10, 0.05, TrialSeed(4, idx), max_rejects=50_000
                )
                assert_connected(g)
                outcomes.append(rejects)
            except RejectionLimitError as exc:
                assert exc.rejects == 50_001
                outcomes.append(None)
        assert any(o is None or o > 100 for o in outcomes)

    def test_rejection_limit_error_fields(self):
        with pytest.raises(RejectionLimitError) as err:
            sample_connected_gnp(10, 0.05, TrialSeed(4, 99), max_rejects=10)
        assert err.value.n == 10
        assert err.value.rejects == 11

    def test_order_independence(self):
        indices = [5, 1, 3, 0, 2, 4]
        by_shuffled = {
            i: sample_connected_gnp(9, 0.25, TrialSeed(6, i))[0].edges.tolist()
            for i in indices
        }
        by_order = {
            i: sample_connected_gnp(9, 0.25, TrialSeed(6, i))[0].edges.tolist()
            for i in sorted(indices)
        }
        assert by_shuffled == by_order


class TestPairsConnected:
    def test_empty_disconnected(self):
        assert not pairs_connected(3, np.array([], dtype=int), np.array([], dtype=int))

    def test_path_connected(self):
        us = np.array([0, 1, 2])
        vs = np.array([1, 2, 3])
        assert pairs_connected(4, us, vs)

    def test_isolated_node(self):
        us = np.array([0, 1])
        vs = np.array([1, 0])
        assert not pairs_connected(3, us, vs)

    def test_every_graph_on_six_nodes(self):
        # covers the graphs with no isolated node that still fall apart
        pairs = list(combinations(range(6), 2))
        for mask in range(2 ** len(pairs)):
            edges = [pairs[b] for b in range(len(pairs)) if mask >> b & 1]
            arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
            for us, vs in ((arr[:, 0], arr[:, 1]), (arr[::-1, 1], arr[::-1, 0])):
                assert pairs_connected(6, us, vs) == dfs_connected(6, edges), edges


@pytest.fixture(scope="session")
def conditional_edge_count_pmf():
    """Exact edge-count distribution of G(6, 0.4) given connectivity, by
    enumerating all 2**15 graphs; connectivity comes from the DFS oracle,
    not from the sampler's check."""
    n, p = 6, 0.4
    pairs = list(combinations(range(n), 2))
    m = len(pairs)
    weights = np.zeros(m + 1)
    for mask in range(2**m):
        edges = [pairs[b] for b in range(m) if mask >> b & 1]
        if len(edges) < n - 1:
            continue
        if dfs_connected(n, edges):
            k = len(edges)
            weights[k] += p**k * (1 - p) ** (m - k)
    return weights / weights.sum()


class TestConditionalLaw:
    def test_edge_count_distribution_chi_squared(self, conditional_edge_count_pmf):
        n, p, samples = 6, 0.4, 4000
        counts = np.zeros(16)
        for i in range(samples):
            g, _ = sample_connected_gnp(n, p, TrialSeed(777, i))
            counts[g.num_edges] += 1
        expected = conditional_edge_count_pmf * samples
        # pool bins until every expected count is at least 5
        obs_bins, exp_bins = [], []
        obs_acc = exp_acc = 0.0
        for o, e in zip(counts, expected):
            obs_acc += o
            exp_acc += e
            if exp_acc >= 5:
                obs_bins.append(obs_acc)
                exp_bins.append(exp_acc)
                obs_acc = exp_acc = 0.0
        obs_bins[-1] += obs_acc
        exp_bins[-1] += exp_acc
        result = stats.chisquare(obs_bins, exp_bins)
        assert result.pvalue > 0.001
