"""Trial records, ranks, the rule-of-thumb pick, aggregation, determinism."""

import json
import multiprocessing
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from decaycent import ordering
from decaycent.centrality import DeltaGrid, decay_matrix
from decaycent.generation import TrialSeed, sample_connected_gnp
from decaycent.graph import build_graph, profile_groups, profile_matrix
from decaycent.ordering import Relation, check_profile_dominance, decay_ranks, maximizer_sets
from decaycent.simulation import (
    SimulationConfig,
    _record_rows,
    aggregate,
    iter_trials,
    nearest_rank_percentile,
    run_experiment,
    run_trial,
)
from decaycent.verification import floyd_warshall, sample_graphs

from conftest import HALF_TIE_EDGES

GRID9 = DeltaGrid.uniform(9)


class TestRunTrial:
    def test_star_everything_trivial(self, star4):
        rec = run_trial(star4, GRID9)
        assert rec.intersects
        assert all(rec.subset_deg) and all(rec.subset_clos) and all(rec.subset_core)
        assert not any(rec.disjoint)
        assert all(r == 1 for r in rec.rank_deg_best)
        assert all(r == 1 for r in rec.rank_clos_best)
        assert all(r == 1 for r in rec.rank_rule)
        assert rec.threshold_index == 0
        assert not rec.escapes_core

    def test_p3_same_as_star(self, p3):
        rec = run_trial(p3, GRID9)
        ms = maximizer_sets(p3, GRID9)
        assert ms.by_degree == ms.by_closeness == frozenset({1})
        assert all(rec.subset_core)
        assert all(p == 1 for p in rec.rule_pick)

    def test_exclusive_flags_when_sets_disjoint(self):
        grid = DeltaGrid.uniform(33)
        seen_nonintersect = 0
        for idx in range(200):
            g, _ = sample_connected_gnp(8, 0.3, TrialSeed(31, idx))
            rec = run_trial(g, grid)
            if rec.intersects:
                continue
            seen_nonintersect += 1
            for gi in range(len(grid)):
                flags = (
                    rec.subset_deg[gi],
                    rec.subset_clos[gi],
                    rec.disjoint[gi],
                )
                assert sum(flags) <= 1
        assert seen_nonintersect > 0

    def test_ranks_within_bounds(self):
        grid = DeltaGrid.uniform(15)
        for idx in range(30):
            g, _ = sample_connected_gnp(9, 0.35, TrialSeed(32, idx))
            rec = run_trial(g, grid)
            for field in ("rank_deg_best", "rank_clos_best", "rank_rule"):
                assert all(1 <= r <= g.n for r in getattr(rec, field))

    def test_crossing_graph_has_clean_transition(self, crossing_graph):
        grid = DeltaGrid.uniform(99)
        rec = run_trial(crossing_graph, grid)
        if not rec.intersects and rec.threshold_index is not None:
            assert rec.transition_clean is not None

    def test_no_closeness_threshold(self, star4):
        # one grid point, 1/2: node 2 alone has the largest degree and node
        # 5 alone the least farness, and the decay winner is node 2
        g = build_graph(7, [(0, 3), (1, 3), (1, 5), (2, 4), (2, 5), (2, 6), (4, 6)])
        grid = DeltaGrid.uniform(1)
        sets = maximizer_sets(g, grid)
        assert sets.by_degree == {2} and sets.by_closeness == {5}
        rec = run_trial(g, grid)
        assert not rec.intersects
        assert rec.subset_deg == (True,) and rec.subset_clos == (False,)
        assert rec.threshold_index is None and rec.transition_clean is None
        assert _record_rows(rec, grid) == "0,0,0,,,0.5,1,0,0,0,1,2,1,1,2,2\n"
        # the star's closeness set holds its decay winner from the start
        with_threshold = run_trial(star4, grid)
        assert with_threshold.threshold_index == 0
        assert aggregate([with_threshold, rec], grid).count_threshold == 1


def brute_force_ranks(g, grid):
    """Rank and rule-of-thumb fields of a trial record, from Floyd-Warshall
    distances and exact rational decay values of every node."""
    dist = floyd_warshall(g)
    n = g.n
    degree = [sum(1 for d in row if d == 1) for row in dist]
    farness = [int(sum(row)) for row in dist]
    deg_set = [v for v in range(n) if degree[v] == max(degree)]
    clos_set = [v for v in range(n) if farness[v] == min(farness)]
    out = {f: [] for f in ("rank_deg_best", "rank_clos_best", "rank_rule",
                           "rank_deg_avg", "rank_clos_avg", "rule_pick")}
    for delta in grid.values:
        x = Fraction(delta)
        value = [sum(x ** int(d) for j, d in enumerate(row) if j != i)
                 for i, row in enumerate(dist)]
        rank = [1 + sum(1 for u in range(n) if value[u] > value[v]) for v in range(n)]
        if delta < 0.5:
            candidates = deg_set
        elif delta > 0.5:
            candidates = clos_set
        else:
            candidates = sorted(set(deg_set) | set(clos_set))
        pick = min(candidates, key=lambda v: (rank[v], v))
        out["rank_deg_best"].append(min(rank[v] for v in deg_set))
        out["rank_clos_best"].append(min(rank[v] for v in clos_set))
        out["rank_deg_avg"].append(sum(rank[v] for v in deg_set) / len(deg_set))
        out["rank_clos_avg"].append(sum(rank[v] for v in clos_set) / len(clos_set))
        out["rule_pick"].append(pick)
        out["rank_rule"].append(rank[pick])
    return {f: tuple(v) for f, v in out.items()}


GRID19 = DeltaGrid.uniform(19)  # holds 0.5 exactly


class TestTieHeavyMemory:
    @pytest.mark.parametrize("name", ["cycle", "complete"])
    def test_peak_memory_is_bounded(self, name):
        # every node ties: ranks work on one profile group, not on an
        # n x n x grid array (about 127 MB per float array on C_400)
        n = 400 if name == "cycle" else 150
        if name == "cycle":
            edges = [(i, (i + 1) % n) for i in range(n)]
        else:
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = build_graph(n, edges)
        tracemalloc.start()
        try:
            rec = run_trial(g, DeltaGrid.uniform(99))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r == 1 for r in rec.rank_rule)
        assert peak < 24e6

    def test_many_member_groups_are_ranked_in_blocks(self):
        # every inner node of P_400 has the largest degree: its 199 member
        # groups against 200 groups over 399 levels make a 16 MB dominance
        # array when ranked in one piece
        g = build_graph(400, [(i, i + 1) for i in range(399)])
        profile_matrix(g)  # imports scipy (the long-diameter route) untraced
        tracemalloc.start()
        try:
            rec = run_trial(g, DeltaGrid.uniform(99))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rec.rank_clos_best == (1,) * 99
        assert peak < 10e6


class TestRanksAgainstBruteForce:
    """run_trial's rank and pick fields equal an exact brute-force ranking."""

    def assert_matches(self, g, grid=GRID19):
        rec = run_trial(g, grid)
        want = brute_force_ranks(g, grid)
        assert {f: getattr(rec, f) for f in want} == want

    def test_sampled_graphs(self):
        for g in sample_graphs(16, n_max=10, seed=5):
            self.assert_matches(g)

    def test_complete_graph(self):
        self.assert_matches(build_graph(12, [(i, j) for i in range(12) for j in range(i + 1, 12)]))

    def test_star_and_crossing(self, star4, crossing_graph):
        self.assert_matches(star4)
        self.assert_matches(crossing_graph)

    def test_path_with_deep_near_ties(self):
        # at small delta the centre nodes' intervals overlap (their
        # profiles first differ ten levels deep), so the exact sign decides
        # their ranks
        path = build_graph(30, [(i, i + 1) for i in range(29)])
        self.assert_matches(path, DeltaGrid((0.01, 0.05, 0.25, 0.5, 0.75, 0.99)))

    def test_hand_graph(self):
        # n=6 kite: a triangle with a two-edge tail
        self.assert_matches(build_graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4), (4, 5)]))

    @pytest.mark.parametrize("n, edges, field, nodes", [
        # max-degree nodes 0 and 3 share (3, 2) and rank 1; node 2's
        # (3, 1, 1) ranks 3 below them
        (6, [(0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (2, 3), (2, 5)], "deg", {0, 2, 3}),
        # max-closeness nodes 0 and 6 share (4, 1, 1) and rank 1; node 2's
        # (3, 3) ranks 3 below them
        (7, [(0, 2), (0, 3), (0, 4), (0, 6), (1, 2), (1, 5), (2, 6), (3, 4), (3, 6),
             (4, 6)], "clos", {0, 2, 6}),
    ], ids=["degree", "closeness"])
    def test_unequal_groups_in_one_set(self, n, edges, field, nodes):
        # the node mean is 5/3; a mean over the two groups would read 2
        g = build_graph(n, edges)
        _, inverse, sizes = profile_groups(profile_matrix(g))
        assert sorted(sizes[inverse[sorted(nodes)]].tolist()) == [1, 2, 2]
        rec = run_trial(g, GRID19)
        ms = maximizer_sets(g, GRID19)
        assert {"deg": ms.by_degree, "clos": ms.by_closeness}[field] == nodes
        assert getattr(rec, f"rank_{field}_avg") == (5 / 3,) * len(GRID19)
        self.assert_matches(g)

    def test_distinct_profiles_tie_at_half(self):
        g = build_graph(7, HALF_TIE_EDGES)
        rec = run_trial(g, GRID19)
        ms = maximizer_sets(g, GRID19)
        assert ms.by_degree == {2, 4} and ms.by_closeness == {5}
        half = GRID19.values.index(0.5)
        # the exact tie at 1/2 itself is checked in TestRankOf and TestRuleOfThumbPick
        assert rec.rank_clos_best[half - 1] == 3 and rec.rank_deg_best[half + 1] == 2
        self.assert_matches(g)


def node_ranks(profiles, grid, members):
    """:func:`decay_ranks` on the profile groups, read back per node."""
    first, inverse, sizes = profile_groups(profiles)
    return decay_ranks(profiles[first], sizes, grid, inverse[list(members)])


class TestRankOf:
    """Competition ranks as :func:`decay_ranks` and run_trial report them."""

    def test_exact_ties_share_rank(self, star4):
        pm = profile_matrix(star4)
        grid = DeltaGrid((0.4,))
        ranks = node_ranks(pm, grid, range(4))
        assert ranks[:, 0].tolist() == [1, 2, 2, 2]
        # distinct profiles that tie exactly at 1/2 share rank 1 as well
        rec = run_trial(build_graph(7, HALF_TIE_EDGES), GRID19)
        half = GRID19.values.index(0.5)
        assert rec.rank_deg_best[half] == rec.rank_clos_best[half] == 1


class TestRuleOfThumbPick:
    """run_trial's rule-of-thumb pick: the best-ranked node of the
    max-degree set below 1/2, of the max-closeness set above 1/2, and of
    their union at exactly 1/2; exact ties go to the lowest id."""

    def half_tie_record(self):
        g = build_graph(7, HALF_TIE_EDGES)
        ms = maximizer_sets(g, GRID19)
        assert ms.by_degree == {2, 4} and ms.by_closeness == {5}
        return run_trial(g, GRID19), GRID19.values.index(0.5)

    def test_disjoint_sets_low_delta_picks_from_degree_set(self):
        rec, half = self.half_tie_record()
        assert all(p in {2, 4} for p in rec.rule_pick[:half])
        assert all(p == 5 for p in rec.rule_pick[half + 1:])
        assert rec.rank_rule[:half] == rec.rank_deg_best[:half]
        assert rec.rank_rule[half + 1:] == rec.rank_clos_best[half + 1:]

    def test_union_at_exactly_half(self):
        rec, half = self.half_tie_record()
        assert rec.rule_pick[half] in {2, 4, 5}
        assert rec.rank_rule[half] == min(rec.rank_deg_best[half], rec.rank_clos_best[half])

    def test_exact_tie_breaks_to_lowest_id(self):
        rec, half = self.half_tie_record()
        # 2, 4 and 5 tie exactly at 1/2
        assert rec.rule_pick[half] == 2
        # on a complete graph every node ties: the pick is node 0 everywhere
        k5 = build_graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        assert all(p == 0 for p in run_trial(k5, GRID9).rule_pick)


class TestDecayRanks:
    def test_float_order_reversed_by_exact(self):
        # at delta = 0.1 the floats put rows 1 and 2 one ulp above row 0;
        # exactly, row 0 is above them by 3.5e-13.  Rows 3 and 4 tie in
        # float while row 3 is exactly above by 1.8e-13.
        rows = np.array([[13589, 0, 7685170], [0, 904407, 0], [0, 904407, 0],
                         [7666, 0, 4031130], [0, 479773, 0]], dtype=np.int64)
        grid = DeltaGrid((0.1, 0.5))
        dc = decay_matrix(rows, grid)
        assert dc[1, 0] > dc[0, 0] and dc[3, 0] == dc[4, 0]
        ranks = node_ranks(rows, grid, range(5))
        for g, delta in enumerate(grid.values):
            x = Fraction(delta)
            value = [sum(int(c) * x**l for l, c in enumerate(row, 1)) for row in rows]
            want = [1 + sum(u > v for u in value) for v in value]
            assert ranks[:, g].tolist() == want
        assert ranks[:, 0].tolist() == [1, 2, 2, 4, 5]

    def test_star_leaf_group_counts_its_size(self, star4):
        # the three leaves form one group of size 3: the centre's rank is
        # 1 and each leaf's is 2; ranked on a path's groups, the two
        # neighbours of the centre (one group of size 2) put both ends at 4
        pm = profile_matrix(star4)
        first, inverse, sizes = profile_groups(pm)
        assert sizes[inverse].tolist() == [1, 3, 3, 3]
        rows = pm[first]
        grid = DeltaGrid((0.25, 0.5, 0.75))
        ranks = decay_ranks(rows, sizes, grid, [inverse[1], inverse[0]])
        assert ranks.tolist() == [[2, 2, 2], [1, 1, 1]]
        path = profile_matrix(build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))
        assert node_ranks(path, grid, range(5)).tolist() == [
            [4, 4, 4], [2, 2, 2], [1, 1, 1], [2, 2, 2], [4, 4, 4]]

    def test_incomparable_groups_match_brute_force(self, crossing_graph):
        # nodes 0 and 4 of the crossing graph, and nodes 4 and 5 of the
        # half-tie graph, have incomparable profiles: their ranks come from
        # the batched exact comparison, the other pairs' from dominance
        for g, (i, j) in ((crossing_graph, (0, 4)), (build_graph(7, HALF_TIE_EDGES), (4, 5))):
            pm = profile_matrix(g)
            assert check_profile_dominance(pm[i], pm[j]).relation is Relation.INCOMPARABLE
            grid = DeltaGrid.uniform(19)
            ranks = node_ranks(pm, grid, range(g.n))
            for col, delta in enumerate(grid.values):
                x = Fraction(delta)
                value = [sum(int(c) * x**l for l, c in enumerate(row, 1)) for row in pm]
                assert ranks[:, col].tolist() == [1 + sum(u > v for u in value) for v in value]


class TestRankCertification:
    def test_float_certificate_replaces_exact_calls(self, monkeypatch):
        # on this G(200, 0.03) sample the member groups are incomparable
        # with many groups; their certified float differences settle them
        # without the exact sign, and the record equals the one where every
        # incomparable pair is decided exactly
        g, _ = sample_connected_gnp(200, 0.03, TrialSeed(5, 0))
        exact_sign = ordering.dc_difference_sign
        float_difference = ordering.dc_difference_float
        calls = []

        def counting_sign(*args):
            calls.append(args)
            return exact_sign(*args)

        def no_certificate(diffs, delta):
            values, bound = float_difference(diffs, delta)
            return values, np.full_like(bound, np.inf)

        monkeypatch.setattr(ordering, "dc_difference_sign", counting_sign)
        shipped = run_trial(g, DeltaGrid.uniform(99))
        certified_calls = len(calls)
        calls.clear()
        monkeypatch.setattr(ordering, "dc_difference_float", no_certificate)
        forced = run_trial(g, DeltaGrid.uniform(99))
        assert shipped == forced
        assert len(calls) > 1000
        assert certified_calls <= 0.01 * len(calls)


class TestWorkerPool:
    def test_pool_never_larger_than_the_trial_count(self, monkeypatch):
        sizes = []

        class SerialPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, items, chunksize=1):
                return map(fn, items)

        class Context:
            Pool = SerialPool

        monkeypatch.setattr(multiprocessing, "get_context", lambda _: Context)
        base = dict(n=8, p=0.5, seed=3, grid_points=5)
        assert len(list(iter_trials(SimulationConfig(trials=3, workers=8, **base)))) == 3
        assert len(list(iter_trials(SimulationConfig(trials=1, workers=4, **base)))) == 1
        assert len(list(iter_trials(SimulationConfig(trials=6, workers=2, **base)))) == 6
        assert sizes == [3, 2]


class TestAggregate:
    def test_all_star_trials(self, star4):
        recs = [run_trial(star4, GRID9, trial_index=i) for i in range(5)]
        agg = aggregate(recs, GRID9)
        assert agg.trials == 5
        assert agg.count_intersect == 5
        assert agg.count_intersect_dc_escapes == 0
        assert all(c == 5 for c in agg.n_subset_deg)
        assert all(c == 5 for c in agg.n_subset_clos)
        assert all(c == 0 for c in agg.n_disjoint)
        assert agg.rank_rule.mean == tuple(1.0 for _ in GRID9.values)

    def test_single_trial_frequencies_binary(self):
        g, _ = sample_connected_gnp(8, 0.3, TrialSeed(41, 2))
        agg = aggregate([run_trial(g, GRID9)], GRID9)
        for counts in (agg.n_subset_deg, agg.n_subset_clos, agg.n_disjoint):
            freq = np.asarray(counts) / agg.trials
            assert set(np.unique(freq)) <= {0.0, 1.0}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], GRID9)

    def test_grid_length_mismatch_rejected(self, star4):
        rec = run_trial(star4, GRID9)
        with pytest.raises(ValueError):
            aggregate([rec], DeltaGrid.uniform(5))

    def test_nearest_rank_percentile(self):
        sample = np.array([[1], [1], [2], [10]])
        s = np.sort(sample, axis=0)
        assert nearest_rank_percentile(s, 0.95)[0] == 10
        assert nearest_rank_percentile(s, 0.05)[0] == 1
        assert nearest_rank_percentile(s, 0.5)[0] == 1
        # 50 rows: q * 50 is 2.5 and 47.5, so the ranks are 3 and 48
        rows = np.arange(50)[:, None]
        assert nearest_rank_percentile(rows, 0.05)[0] == 2
        assert nearest_rank_percentile(rows, 0.95)[0] == 47

    def test_exclusive_category_counts_on_nonintersecting(self):
        grid = DeltaGrid.uniform(21)
        recs = []
        for idx in range(120):
            g, _ = sample_connected_gnp(8, 0.3, TrialSeed(42, idx))
            recs.append(run_trial(g, grid))
        agg = aggregate(recs, grid)
        nn = agg.count_nonintersect
        for gi in range(len(grid)):
            total = (
                agg.n_subset_deg_nonint[gi]
                + agg.n_subset_clos_nonint[gi]
                + agg.n_disjoint_nonint[gi]
            )
            assert total <= nn


class TestRunExperiment:
    def test_single_trial_matches_record(self, tmp_path):
        cfg = SimulationConfig(n=8, p=0.4, trials=1, seed=90, grid_points=9)
        result = run_experiment(cfg, tmp_path / "out")
        g, rejects = sample_connected_gnp(8, 0.4, TrialSeed(90, 0))
        rec = run_trial(g, DeltaGrid.uniform(9), trial_index=0, rejects=rejects)
        agg = result.aggregate
        assert agg.trials == 1
        assert agg.count_intersect == int(rec.intersects)
        assert tuple(bool(c) for c in agg.n_subset_deg) == rec.subset_deg

    def test_deterministic_outputs_across_runs_and_workers(self, tmp_path):
        base = dict(n=10, p=0.35, trials=40, seed=4242, grid_points=17)
        files = {}
        for tag, workers in (("a", 1), ("b", 1), ("c", 2)):
            cfg = SimulationConfig(workers=workers, **base)
            result = run_experiment(cfg, tmp_path / tag)
            files[tag] = (
                result.records_path.read_bytes(),
                result.aggregate_path.read_bytes(),
            )
        assert files["a"] == files["b"]
        assert files["a"] == files["c"]

    @staticmethod
    def outputs_at_workers(tmp_path, **base):
        """``records.csv`` and ``aggregate.csv`` of one config, as bytes, at
        one worker and at two."""
        files = []
        for workers in (1, 2):
            result = run_experiment(SimulationConfig(workers=workers, **base),
                                    tmp_path / str(workers))
            files.append((result.records_path.read_bytes(),
                          result.aggregate_path.read_bytes()))
        return files

    def test_complete_graph_outputs_across_workers(self, tmp_path):
        # p = 1 takes the sampler's full-draw path on every trial
        one, two = self.outputs_at_workers(tmp_path, n=12, p=1.0, trials=6, seed=11,
                                           grid_points=9)
        assert one == two

    def test_sparse_outputs_across_workers(self, tmp_path):
        # G(50, .04) takes about 1,544 attempts per graph, so each stream
        # starts with a full chunk of Floyd attempts
        one, two = self.outputs_at_workers(tmp_path, n=50, p=0.04, trials=6, seed=13,
                                           grid_points=9)
        assert one == two

    def test_failed_generations_are_reported_not_dropped(self, tmp_path):
        # max_rejects=1 at G(10, .2): half the generations fail, so both
        # the failed list and the records are non-empty
        cfg = SimulationConfig(
            n=10, p=0.2, trials=12, seed=7, grid_points=5, max_rejects=1
        )
        outcomes = list(iter_trials(cfg))
        assert [ti for ti, _ in outcomes] == list(range(12))
        failed = [ti for ti, rec in outcomes if rec is None]
        assert 0 < len(failed) < 12
        result = run_experiment(cfg, tmp_path / "f")
        assert result.failed_trials == tuple(failed)
        assert result.aggregate.trials == 12 - len(failed)
        summary = json.loads(result.summary_path.read_text())
        assert summary["results"]["failed_trials"] == failed

    def test_config_node_ceiling(self):
        # the sampler's ceiling stops a run before it writes any file
        SimulationConfig(n=92682, p=0.5, trials=1, seed=0)
        with pytest.raises(ValueError, match="at most 92682 nodes"):
            SimulationConfig(n=92683, p=0.5, trials=1, seed=0)

    def test_summary_has_config_echo_and_conventions(self, tmp_path):
        cfg = SimulationConfig(n=8, p=0.5, trials=3, seed=11, grid_points=7)
        result = run_experiment(cfg, tmp_path / "s")
        summary = json.loads(result.summary_path.read_text())
        assert summary["config"]["n"] == 8
        assert summary["config"]["seed"] == 11
        assert "rank" in summary["conventions"]
        assert "version" in summary
        assert summary["results"]["trials_succeeded"] == 3

    def test_records_csv_shape(self, tmp_path):
        cfg = SimulationConfig(n=8, p=0.5, trials=3, seed=12, grid_points=7)
        result = run_experiment(cfg, tmp_path / "r")
        lines = result.records_path.read_text().splitlines()
        assert len(lines) == 1 + 3 * 7
        header = lines[0].split(",")
        assert header[0] == "trial"
        assert "delta" in header
        agg_lines = result.aggregate_path.read_text().splitlines()
        assert len(agg_lines) == 1 + 7
