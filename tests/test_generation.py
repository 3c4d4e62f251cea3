"""Seeded G(n,p) sampling: determinism, distribution, rejection behavior."""

from fractions import Fraction
from itertools import combinations, count
from math import comb, sqrt

import numpy as np
import pytest
from scipy import stats

from decaycent.generation import (
    BATCH_SIZE,
    RejectionLimitError,
    TrialSeed,
    _draw_edges,
    _floyd_branch,
    _floyd_set,
    _floyd_vals,
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


def choice_layout_broken(pop, k):
    return (
        f"numpy {np.__version__}: Generator.choice({pop}, {k}, replace=False) no "
        "longer draws Floyd's k values on [0, j] for j = pop-k .. pop-1 and then "
        "the shuffle's k-1 values on [0, i] for i = k-1 .. 1, switching to a "
        "tail shuffle only when pop > 10000 and k > pop // 50; the sampler's "
        "batched replay of that layout (generation._floyd_vals) is out of date"
    )


#: pops 1 .. 10000 (Floyd's branch for every k), and two above numpy's
#: 10000 switch, where k > pop // 50 takes the tail shuffle
CHOICE_POPS = [1, 2, 3, 5, 10, 45, 49, 50, 51, 99, 100, 190, 1225, 4950, 9870,
               9999, 10000, 10001, 19900]


class TestFloydReplay:
    """The batched draw replays consecutive ``rng.choice(pop, k,
    replace=False)`` calls: the same chosen sets, and the stream left where
    those calls leave it."""

    @pytest.mark.parametrize("pop", CHOICE_POPS)
    def test_matches_choice(self, pop):
        ks = sorted({k for k in (1, 2, pop // 50, pop // 50 + 1, pop // 3, pop - 1, pop)
                     if 1 <= k <= pop})
        for k in ks:
            # one call alone: Floyd-routed calls are replayed exactly, and a
            # tail-shuffle call (k draws, not 2k - 1) leaves the stream elsewhere
            by_choice, replay = np.random.default_rng(k), np.random.default_rng(k)
            want = by_choice.choice(pop, size=k, replace=False)
            vals = _floyd_vals(replay, pop, np.array([k]))
            same_stream = replay.random() == by_choice.random()
            broken = choice_layout_broken(pop, k)
            if _floyd_branch(pop, k):
                got = _floyd_set(pop, vals)
                assert sorted(got.tolist()) == sorted(want.tolist()), broken
                assert same_stream, broken
            else:
                assert not same_stream, broken
        floyd = [k for k in ks if _floyd_branch(pop, k)]
        for seed in range(3):
            # consecutive calls in one batched draw
            by_choice = np.random.default_rng(seed)
            replay = np.random.default_rng(seed)
            vals = _floyd_vals(replay, pop, np.array(floyd))
            offs = np.cumsum(floyd) - floyd
            for k, off in zip(floyd, offs.tolist()):
                want = by_choice.choice(pop, size=k, replace=False)
                got = _floyd_set(pop, vals[off:off + k])
                assert sorted(got.tolist()) == sorted(want.tolist()), \
                    choice_layout_broken(pop, k)
            broken = choice_layout_broken(pop, floyd)
            assert replay.random() == by_choice.random(), broken
            assert replay.integers(0, 10) == by_choice.integers(0, 10), broken

    def test_floyd_set_by_hand(self):
        # pop 6, k 4: j = 2, 3, 4, 5; vals 1, 1, 3, 3 take 1, then j=3 for
        # the repeat, then j=4 because 3 was taken as a j, then j=5
        assert _floyd_set(6, np.array([1, 1, 3, 3])).tolist() == [1, 3, 4, 5]
        assert _floyd_set(6, np.array([2, 0, 2, 4])).tolist() == [2, 0, 4, 5]


def per_attempt_sample(n, p, seed, max_rejects):
    """The sampler one ``rng.choice`` call per attempt, as the stream layout
    defines it, with connectivity from the DFS oracle: ``(sorted edges,
    rejects)``, or ``(None, rejects)`` past the rejection budget."""
    m_all = n * (n - 1) // 2
    iu, ju = np.triu_indices(n, k=1)
    rejects = 0
    for batch_index in count():
        rng = seed.stream(batch_index)
        for k in rng.binomial(m_all, p, size=BATCH_SIZE).tolist():
            if k >= n - 1:
                sel = rng.choice(m_all, size=k, replace=False)
                edges = sorted(zip(iu[sel].tolist(), ju[sel].tolist()))
                if dfs_connected(n, edges):
                    return edges, rejects
            rejects += 1
            if rejects > max_rejects:
                return None, rejects


def batched_sample(n, p, seed, max_rejects):
    try:
        g, rejects = sample_connected_gnp(n, p, seed, max_rejects=max_rejects)
    except RejectionLimitError as exc:
        return None, exc.rejects
    return [tuple(e) for e in g.edges.tolist()], rejects


class TestSamplerMatchesPerAttemptChoice:
    # p = 1 on both choice branches; sparse Floyd settings; (200, .02)
    # mixes the branches, since its counts straddle pop // 50 = 398
    @pytest.mark.parametrize("n,p", [(5, 1.0), (30, 1.0), (200, 1.0), (10, 0.05),
                                     (50, 0.04), (100, 0.03), (141, 0.05),
                                     (200, 0.01), (200, 0.02)])
    @pytest.mark.parametrize("max_rejects", [0, 1, 5, 50])
    def test_same_graph_and_rejects(self, n, p, max_rejects):
        for idx in range(3):
            seed = TrialSeed(31, idx)
            assert batched_sample(n, p, seed, max_rejects) == \
                per_attempt_sample(n, p, seed, max_rejects), (n, p, max_rejects, idx)

    @pytest.mark.parametrize("n,p", [(20, 0.1), (50, 0.04), (100, 0.03)])
    def test_same_accepted_graph_across_batches(self, n, p):
        # budgets past one batch of edge counts, so accepts land in later
        # batches too
        for idx in range(4):
            seed = TrialSeed(32, idx)
            assert batched_sample(n, p, seed, 3 * BATCH_SIZE) == \
                per_attempt_sample(n, p, seed, 3 * BATCH_SIZE), (n, p, idx)


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


def connected_probability(n, p):
    """P(G(n, p) is connected), exactly, by Gilbert's recurrence
    ``P_1 = 1``, ``P_m = 1 - sum_{s<m} C(m-1, s-1) P_s q^(s(m-s))`` with
    ``q = 1 - p`` (E. N. Gilbert, "Random graphs", Ann. Math. Statist. 30
    (1959) 1141-1144).  ``p`` is read as the decimal it prints as."""
    q = 1 - Fraction(str(p))
    P = [None, Fraction(1)]
    for m in range(2, n + 1):
        P.append(1 - sum(comb(m - 1, s - 1) * P[s] * q ** (s * (m - s))
                         for s in range(1, m)))
    return P[n]


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

    def test_gilbert_recurrence_by_enumeration(self):
        n, p = 5, Fraction(3, 10)
        pairs = list(combinations(range(n), 2))
        brute = Fraction(0)
        for mask in range(2 ** len(pairs)):
            edges = [pairs[b] for b in range(len(pairs)) if mask >> b & 1]
            if dfs_connected(n, edges):
                brute += p ** len(edges) * (1 - p) ** (len(pairs) - len(edges))
        assert connected_probability(n, 0.3) == brute
        assert round(float(1 / connected_probability(20, 0.1) - 1), 2) == 18.98
        assert round(float(1 / connected_probability(50, 0.04) - 1), 1) == 1542.6

    @pytest.mark.parametrize("n,p,trials", [(20, 0.1, 1000), (50, 0.04, 150)])
    def test_mean_rejects_match_exact_acceptance_rate(self, n, p, trials):
        # rejects before the first connected attempt are geometric with
        # success probability P: mean 1/P - 1, variance (1 - P)/P^2
        P = connected_probability(n, p)
        expected = float(1 / P - 1)
        se = sqrt(float((1 - P) / P**2) / trials)
        rejects = [sample_connected_gnp(n, p, TrialSeed(779, i))[1] for i in range(trials)]
        assert abs(np.mean(rejects) - expected) < 4 * se, (np.mean(rejects), expected, se)
