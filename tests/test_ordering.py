"""Comparators, sufficient-condition checkers, and maximizer sets."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decaycent import ordering
from decaycent.centrality import (
    DeltaGrid,
    centrality_table,
    cvec_from_fvec,
    dc_difference_float,
    decay_centrality,
    decay_matrix,
)
from decaycent.generation import TrialSeed, sample_connected_gnp
from decaycent.graph import build_graph, distance_matrix, profile_groups, profile_matrix
from decaycent.ordering import (
    Relation,
    check_farness_dominance,
    check_high_delta_conditions,
    check_low_delta_conditions,
    check_profile_dominance,
    decay_argmax_sets,
    decay_signs,
    dominance_front,
    lex_compare,
    lex_compare_cvec,
    maximizer_sets,
    ud_compare,
)
from decaycent.simulation import run_trial
from decaycent.verification import exact_decay_argmax, sample_graphs

from conftest import CROSSING_EDGES, CROSSING_PAIR, HALF_TIE_EDGES, oracle_decay


class TestLexCompare:
    def test_greater_at_first_index(self):
        v = lex_compare((2, 0), (1, 1))
        assert v.relation is Relation.GREATER
        assert v.detail == 0

    def test_equal(self):
        assert lex_compare((1, 1), (1, 1)).relation is Relation.EQUAL

    def test_greater_at_later_index(self):
        v = lex_compare((1, 2, 0), (1, 1, 5))
        assert v.relation is Relation.GREATER
        assert v.detail == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            lex_compare((1, 2), (1, 2, 3))

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_never_incomparable_and_antisymmetric(self, a):
        b = list(reversed(a))
        fwd = lex_compare(a, b).relation
        bwd = lex_compare(b, a).relation
        assert fwd is not Relation.INCOMPARABLE
        flip = {
            Relation.GREATER: Relation.LESS,
            Relation.LESS: Relation.GREATER,
            Relation.EQUAL: Relation.EQUAL,
        }
        assert bwd is flip[fwd]


class TestLexCompareCvec:
    def test_p3_center_beats_endpoint(self, p3):
        t = centrality_table(p3)
        v = lex_compare_cvec(t.fvecs[1], t.fvecs[0])  # (2, 0) vs (3, -1)
        assert v.relation is Relation.GREATER
        assert v.detail == 0

    def test_equal_fvecs(self, star4):
        t = centrality_table(star4)
        assert lex_compare_cvec(t.fvecs[1], t.fvecs[2]).relation is Relation.EQUAL

    def test_negative_entries_reverse(self):
        # reciprocals: -1/2 < -1/3, so the second vector wins at index 1
        v = lex_compare_cvec((5, -2, 0), (5, -3, 0))
        assert v.relation is Relation.LESS
        assert v.detail == 1

    @given(st.integers(1, 5).flatmap(lambda k: st.tuples(*(
        st.lists(st.one_of(st.integers(-2, 2), st.integers(-10**6, 10**6)),
                 min_size=k, max_size=k) for _ in range(2)))))
    @example(([3, 0], [3, -1]))
    @settings(max_examples=300, deadline=None)
    def test_matches_lex_order_of_the_reciprocals(self, pair):
        # entries of mixed sign after an equal prefix, which no two profiles
        # of one graph reach: equal totals and leading entries force equal
        # eccentricity.  (3, 0) vs (3, -1) is 0.0 > -1.0: GREATER
        fi, fj = pair
        ci, cj = cvec_from_fvec(fi), cvec_from_fvec(fj)
        want = Relation.GREATER if ci > cj else Relation.LESS if ci < cj else Relation.EQUAL
        assert lex_compare_cvec(fi, fj).relation is want

    def test_reversal_of_farness_lex_on_random_graphs(self):
        for idx in range(6):
            g, _ = sample_connected_gnp(7 + idx, 0.35, TrialSeed(21, idx))
            t = centrality_table(g)
            for i in range(g.n):
                for j in range(g.n):
                    on_f = lex_compare(t.fvecs[i], t.fvecs[j]).relation
                    on_c = lex_compare_cvec(t.fvecs[i], t.fvecs[j]).relation
                    if on_f is Relation.EQUAL:
                        assert on_c is Relation.EQUAL
                    elif on_f is Relation.GREATER:
                        assert on_c is Relation.LESS
                    else:
                        assert on_c is Relation.GREATER


class TestUdCompare:
    def test_star_center_dominates_leaf(self):
        v = ud_compare((3, 0, 0), (1, 2, 0))
        assert v.relation is Relation.GREATER

    def test_incomparable(self):
        v = ud_compare((2, 0, 1), (1, 2, 0))
        assert v.relation is Relation.INCOMPARABLE

    def test_equal(self):
        assert ud_compare((1, 2, 3), (1, 2, 3)).relation is Relation.EQUAL

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ud_compare((1,), (1, 2))

    @given(
        a=st.lists(st.integers(-4, 4), min_size=1, max_size=6),
        b=st.lists(st.integers(-4, 4), min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_antisymmetry(self, a, b):
        size = min(len(a), len(b))
        a, b = a[:size], b[:size]
        fwd = ud_compare(a, b).relation
        bwd = ud_compare(b, a).relation
        flip = {
            Relation.GREATER: Relation.LESS,
            Relation.LESS: Relation.GREATER,
            Relation.EQUAL: Relation.EQUAL,
            Relation.INCOMPARABLE: Relation.INCOMPARABLE,
        }
        assert bwd is flip[fwd]

    @given(
        vecs=st.lists(
            st.lists(st.integers(-3, 3), min_size=4, max_size=4),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_transitivity(self, vecs):
        a, b, c = vecs
        if (
            ud_compare(a, b).relation is Relation.GREATER
            and ud_compare(b, c).relation is Relation.GREATER
        ):
            assert ud_compare(a, c).relation is Relation.GREATER


class TestProfileDominance:
    def test_star_center_vs_leaf_with_decay_spot_check(self, star4):
        t = centrality_table(star4)
        v = check_profile_dominance(t.counts[0], t.counts[1])
        assert v.relation is Relation.GREATER
        for delta in (0.1, 0.5, 0.9):
            assert oracle_decay(star4, 0, delta) > oracle_decay(star4, 1, delta)

    def test_identical_profiles_equal(self, star4):
        t = centrality_table(star4)
        v = check_profile_dominance(t.counts[1], t.counts[3])
        assert v.relation is Relation.EQUAL

    def test_crossing_pair_incomparable(self, crossing_graph):
        i, j = CROSSING_PAIR
        t = centrality_table(crossing_graph)
        # the curves genuinely cross, so by contraposition the profiles
        # cannot be dominance-ordered
        ci, cj = t.counts[i], t.counts[j]
        low = decay_centrality(ci, 0.05) - decay_centrality(cj, 0.05)
        high = decay_centrality(ci, 0.95) - decay_centrality(cj, 0.95)
        assert low > 0 > high
        v = check_profile_dominance(t.counts[i], t.counts[j])
        assert v.relation is Relation.INCOMPARABLE


class TestFarnessDominance:
    def test_p3_center_vs_endpoint(self, p3):
        t = centrality_table(p3)
        # prefix sums (3, 2) vs (2, 2): endpoint vector dominates, so the
        # center wins
        v = check_farness_dominance(t.fvecs[1], t.fvecs[0])
        assert v.relation is Relation.GREATER

    def test_equal_fvecs(self, star4):
        t = centrality_table(star4)
        assert (
            check_farness_dominance(t.fvecs[2], t.fvecs[3]).relation
            is Relation.EQUAL
        )

    def test_crossing_pair_incomparable(self, crossing_graph):
        i, j = CROSSING_PAIR
        t = centrality_table(crossing_graph)
        v = check_farness_dominance(t.fvecs[i], t.fvecs[j])
        assert v.relation is Relation.INCOMPARABLE

    def test_greater_implies_decay_order_on_grid(self):
        grid = DeltaGrid.uniform(25)
        for idx in range(6):
            g, _ = sample_connected_gnp(8, 0.35, TrialSeed(22, idx))
            t = centrality_table(g)
            for i in range(g.n):
                for j in range(g.n):
                    if i == j:
                        continue
                    v = check_farness_dominance(t.fvecs[i], t.fvecs[j])
                    if v.relation is Relation.GREATER:
                        for delta in grid.values:
                            dc_i = decay_centrality(t.counts[i], delta)
                            assert dc_i > decay_centrality(t.counts[j], delta)


class TestLowDeltaConditions:
    def test_star_all_four_fire(self, star4):
        t = centrality_table(star4)
        res = check_low_delta_conditions(t.counts[0], t.counts[1])
        assert res.applicable
        assert res.satisfied == frozenset({1, 2, 3, 4})

    def test_zero_degree_gap_not_applicable(self, star4):
        t = centrality_table(star4)
        res = check_low_delta_conditions(t.counts[1], t.counts[2])
        assert not res.applicable
        assert res.satisfied == frozenset()
        assert not res.fires

    def test_verdicts_do_not_depend_on_row_width(self):
        # n = 10: j's total, 9, is n - 1.  Read from the length of these
        # rows, n would be 4, and conditions 1 and 2 would fire although
        # the two curves tie at delta = 1/2
        ci, cj = [3, 3, 3], [2, 6, 1]
        assert check_low_delta_conditions(ci, cj).satisfied == frozenset()
        assert decay_centrality(ci, 0.5) == decay_centrality(cj, 0.5)
        assert check_low_delta_conditions(ci + [0] * 6, cj + [0] * 6).satisfied == frozenset()
        for g in sample_graphs(200, n_max=14, seed=4):
            diameter = int(distance_matrix(g).max())
            live = profile_matrix(g)[:, :diameter]
            padded = np.pad(live, ((0, 0), (0, g.n - 1 - diameter))).tolist()
            live = live.tolist()
            for i in range(g.n):
                for j in range(g.n):
                    assert check_low_delta_conditions(live[i], live[j]) == (
                        check_low_delta_conditions(padded[i], padded[j]))

    def test_condition_2_on_its_boundary(self):
        # i = 0 has profile (3, 1, 1, 0), j = 4 has (2, 3, 0, 0): A1 = 1, A2 = -2,
        # so 4*A1 + 2*A2 = 0 = (n-1) - (deg_j + dist2_j), and the condition
        # holds with equality; i is still strictly ahead on all of (0, 1/2]
        g = build_graph(6, [(0, 2), (0, 4), (0, 5), (1, 3), (3, 4)])
        pm = profile_matrix(g)
        assert pm[[0, 4]].tolist() == [[3, 1, 1, 0], [2, 3, 0, 0]]
        assert 2 in check_low_delta_conditions(pm[0], pm[4]).satisfied
        grid = DeltaGrid.uniform(999)
        low = np.flatnonzero(grid.array <= 0.5)
        signs, _ = decay_signs(pm, np.array([0]), 4, grid.array[low], grid.fractions()[low])
        assert (signs > 0).all()

    def test_condition_1_on_its_boundary(self):
        # P_4 as 1 - 0 - 3 - 2: i = 0 has profile (2, 1, 0), j = 1 has
        # (1, 1, 1), so 2*A1 = 2 = (n-1) - deg_j, and the condition holds with
        # equality; i is still strictly ahead on all of (0, 1/2]
        pm = profile_matrix(build_graph(4, [(0, 1), (0, 3), (2, 3)]))
        assert pm[[0, 1]].tolist() == [[2, 1, 0], [1, 1, 1]]
        assert 1 in check_low_delta_conditions(pm[0], pm[1]).satisfied
        grid = DeltaGrid.uniform(999)
        low = np.flatnonzero(grid.array <= 0.5)
        signs, _ = decay_signs(pm, np.array([0]), 1, grid.array[low], grid.fractions()[low])
        assert (signs > 0).all()

    def test_fired_condition_implies_low_range_order(self):
        deltas = [k / 100 for k in range(1, 51)]  # (0, 0.5]
        for idx in range(8):
            g, _ = sample_connected_gnp(9, 0.3, TrialSeed(23, idx))
            t = centrality_table(g)
            for i in range(g.n):
                for j in range(g.n):
                    if i == j:
                        continue
                    res = check_low_delta_conditions(t.counts[i], t.counts[j])
                    if res.fires:
                        for delta in deltas:
                            dc_i = decay_centrality(t.counts[i], delta)
                            assert dc_i > decay_centrality(t.counts[j], delta)


class TestHighDeltaConditions:
    def test_p3_center_both_fire(self, p3):
        t = centrality_table(p3)
        res = check_high_delta_conditions(t.fvecs[1], t.fvecs[0])
        assert res.applicable
        assert res.satisfied == frozenset({1, 2})

    def test_zero_farness_gap_flagged(self, star4):
        t = centrality_table(star4)
        res = check_high_delta_conditions(t.fvecs[1], t.fvecs[2])
        assert not res.applicable

    def test_positive_farness_gap_flagged(self, p3):
        t = centrality_table(p3)
        # endpoint has larger farness than the center: applies to the
        # swapped pair only
        res = check_high_delta_conditions(t.fvecs[0], t.fvecs[1])
        assert not res.applicable

    def test_condition_2_on_its_boundary(self):
        # i = 1 has fvec (10, -6, 1, 0, 0), j = 5 has (11, -8, 2, 0, 0), so
        # B = (-1, 2, -1, 0, 0): condition 1 fails, and the largest
        # |B1 + ... + Bk| over k = 2 .. 4 is 1 = |B1|, so condition 2 holds
        # with equality; i is still strictly ahead on all of [1/2, 1)
        g = build_graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (2, 3), (2, 4), (3, 5)])
        t = centrality_table(g)
        assert (t.fvecs[1], t.fvecs[5]) == ((10, -6, 1, 0, 0), (11, -8, 2, 0, 0))
        assert check_high_delta_conditions(t.fvecs[1], t.fvecs[5]).satisfied == {2}
        grid = DeltaGrid.uniform(999)
        high = np.flatnonzero(grid.array >= 0.5)
        signs, _ = decay_signs(t.counts, np.array([1]), 5, grid.array[high],
                               grid.fractions()[high])
        assert (signs > 0).all()

    def test_fired_condition_implies_high_range_order(self):
        deltas = [k / 100 for k in range(50, 100)]  # [0.5, 1)
        for idx in range(8):
            g, _ = sample_connected_gnp(9, 0.3, TrialSeed(24, idx))
            t = centrality_table(g)
            for i in range(g.n):
                for j in range(g.n):
                    if i == j:
                        continue
                    res = check_high_delta_conditions(t.fvecs[i], t.fvecs[j])
                    if res.fires:
                        for delta in deltas:
                            dc_i = decay_centrality(t.counts[i], delta)
                            assert dc_i > decay_centrality(t.counts[j], delta)


class TestMaximizerSets:
    def test_star_all_center(self, star4):
        ms = maximizer_sets(star4, DeltaGrid.uniform(19))
        assert ms.by_degree == ms.by_closeness == frozenset({0})
        assert all(s == frozenset({0}) for s in ms.by_decay)

    def test_p3_all_center(self, p3):
        ms = maximizer_sets(p3, DeltaGrid.uniform(19))
        assert ms.by_degree == ms.by_closeness == frozenset({1})
        assert all(s == frozenset({1}) for s in ms.by_decay)

    def test_endpoint_containment_on_random_graphs(self):
        grid = DeltaGrid.uniform(99)
        for idx in range(40):
            n = 5 + idx % 8
            g, _ = sample_connected_gnp(n, 0.4, TrialSeed(2024, idx))
            ms = maximizer_sets(g, grid)
            assert ms.by_decay[0] <= ms.by_degree
            assert ms.by_decay[-1] <= ms.by_closeness

    def test_closeness_ties_are_exact(self, cycle5):
        ms = maximizer_sets(cycle5, DeltaGrid.uniform(9))
        assert ms.by_degree == frozenset(range(5))
        assert ms.by_closeness == frozenset(range(5))
        assert all(s == frozenset(range(5)) for s in ms.by_decay)

    def test_exact_tie_between_distinct_profiles(self):
        # two nodes whose difference polynomial vanishes exactly at 0.5:
        # profiles (2,0,2) and (1,3,0) give delta(1-delta)(1-2delta)
        profiles = np.array([[2, 0, 2, 0], [1, 3, 0, 0]], dtype=np.int64)
        grid = DeltaGrid((0.25, 0.5, 0.75))
        sets = decay_argmax_sets(profiles, grid)
        assert sets[0] == frozenset({0})
        assert sets[1] == frozenset({0, 1})  # exact tie at one half
        assert sets[2] == frozenset({1})


class TestProfileGroups:
    """profile_groups equals np.unique over the rows, group numbering
    included (all-zero columns change no row order)."""

    def assert_matches_unique(self, profiles):
        _, first, inverse, sizes = np.unique(
            profiles, axis=0, return_index=True, return_inverse=True, return_counts=True)
        got = profile_groups(profiles)
        for have, want in zip(got, (first, inverse.reshape(-1), sizes)):
            assert have.tolist() == want.tolist()
        return got

    def test_path_200(self):
        profiles = profile_matrix(path_graph(200))
        assert profiles[0].any() and profiles.shape[1] == 199
        first, _, sizes = self.assert_matches_unique(profiles)
        assert len(first) == 100 and set(sizes.tolist()) == {2}

    def test_complete_and_cycle(self):
        for n in (2, 5, 40):
            k = build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
            assert [a.tolist() for a in self.assert_matches_unique(profile_matrix(k))] == [
                [0], [0] * n, [n]]
        cycle = build_graph(9, [(i, (i + 1) % 9) for i in range(9)])
        assert len(self.assert_matches_unique(profile_matrix(cycle))[0]) == 1

    def test_star(self, star4):
        first, inverse, sizes = self.assert_matches_unique(profile_matrix(star4))
        assert sizes[inverse].tolist() == [1, 3, 3, 3]

    def test_equal_rows_apart_in_node_order(self):
        # leaves 0, 1, 3 and 4 of a star centred at 2, and the ends 0, 5
        # and inner pairs of a path: equal rows that are not neighbours
        star = build_graph(5, [(2, 0), (2, 1), (2, 3), (2, 4)])
        first, inverse, _ = self.assert_matches_unique(profile_matrix(star))
        assert inverse.tolist() == [0, 0, 1, 0, 0] and first.tolist() == [0, 2]
        first, inverse, _ = self.assert_matches_unique(profile_matrix(path_graph(6)))
        assert first.tolist() == [0, 1, 2] and inverse.tolist() == [0, 1, 2, 2, 1, 0]

    def test_sampled_graphs(self):
        for n, p in ((50, 0.04), (200, 0.03), (30, 0.5), (12, 0.3)):
            for idx in range(3):
                g, _ = sample_connected_gnp(n, p, TrialSeed(88, idx))
                self.assert_matches_unique(profile_matrix(g))
        for g in sample_graphs(20, n_max=10, seed=6):
            self.assert_matches_unique(profile_matrix(g))


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


class TestDominanceFront:
    """The front is exactly the rows that no row strictly dominates, and it
    holds every exact decay maximizer."""

    def naive_front(self, profiles):
        rows = profiles.tolist()
        return [h for h in range(len(rows)) if not any(
            check_profile_dominance(k, rows[h]).relation is Relation.GREATER
            for k in rows)]

    def assert_holds_maximizers(self, profiles, deltas):
        front = dominance_front(profiles)
        assert front.tolist() == self.naive_front(profiles)
        for delta in deltas:
            assert exact_decay_argmax(profiles, delta) <= set(front.tolist()), delta
        return front

    def test_sampled_graphs(self):
        deltas = DeltaGrid.uniform(19).values
        for g in sample_graphs(40, n_max=12, seed=0):
            pm = profile_matrix(g)
            self.assert_holds_maximizers(pm, deltas)
            first, _, _ = profile_groups(pm)
            self.assert_holds_maximizers(pm[first], deltas)

    def test_hand_graphs(self, star4):
        deltas = DeltaGrid.uniform(99).values
        for g in (star4, build_graph(8, CROSSING_EDGES)):
            self.assert_holds_maximizers(profile_matrix(g), deltas)
        # the max-degree nodes 2, 4 and the max-closeness node 5 tie at 1/2
        half_tie = self.assert_holds_maximizers(
            profile_matrix(build_graph(7, HALF_TIE_EDGES)), deltas)
        assert {2, 4, 5} <= set(half_tie.tolist())

    def test_repeated_rows_stay_and_tie(self):
        # equal rows dominate neither way: P_200's two centre nodes and all
        # of K_12's nodes stay in the front
        path = profile_matrix(path_graph(200))
        front = self.assert_holds_maximizers(path, (0.01, 0.5, 0.99))
        assert front.tolist() == [99, 100]
        k12 = build_graph(12, [(i, j) for i in range(12) for j in range(i + 1, 12)])
        assert dominance_front(profile_matrix(k12)).tolist() == list(range(12))

    def test_rows_with_unequal_totals(self):
        # DC_k - DC_h = P_L delta**L + (1 - delta) sum_{l<L} P_l delta**l
        # needs no equal totals: row 0 dominates row 1, row 2 is incomparable
        rows = np.array([[3, 0, 2], [1, 2, 1], [0, 5, 0]], dtype=np.int64)
        assert dominance_front(rows).tolist() == [0, 2]
        self.assert_holds_maximizers(rows, DeltaGrid.uniform(99).values)


class TestCertifiedFilter:
    """The float pre-filter ahead of the exact argmax never changes a set."""

    def assert_matches_brute_force(self, g, grid):
        profiles = profile_matrix(g)
        sets = decay_argmax_sets(profiles, grid)
        for delta, got in zip(grid.values, sets):
            assert got == exact_decay_argmax(profiles, delta), delta

    def test_path_200_including_underflow(self):
        # 0.01**l underflows to zero past l ~ 161: the float differences of
        # far-apart levels vanish and the bound's absolute term takes over
        self.assert_matches_brute_force(path_graph(200), DeltaGrid((0.01, 0.5, 0.99)))

    def test_complete_graph(self):
        g = build_graph(12, [(i, j) for i in range(12) for j in range(i + 1, 12)])
        self.assert_matches_brute_force(g, DeltaGrid.uniform(99))

    def test_star_ties(self, star4):
        self.assert_matches_brute_force(star4, DeltaGrid.uniform(99))

    def test_crossing_graph(self, crossing_graph):
        self.assert_matches_brute_force(crossing_graph, DeltaGrid.uniform(99))

    def test_exact_tie_survives_the_filter(self):
        # (2,0,2) and (1,3,0) tie exactly at 1/2; the float difference there
        # is within its bound of zero, so the exact comparison decides
        rows = np.array([[1, 3, 0], [2, 0, 2]], dtype=np.int64)
        value, bound = dc_difference_float(rows[1:] - rows[:1], [0.5])
        assert abs(value[0, 0]) <= bound[0, 0]
        grid = DeltaGrid((0.5,))
        sets = decay_argmax_sets(rows, grid)
        assert sets == (frozenset({0, 1}),)

    def test_uncertified_float_lead_is_not_trusted(self):
        # at delta = 0.1 the float difference row 1 - row 0 is +7e-14 but
        # the exact one is -3e-13: both rows must reach the exact comparison
        rows = np.array([[11190, 0, 6740160], [0, 785916, 0]], dtype=np.int64)
        value, bound = dc_difference_float(rows[1:] - rows[:1], [0.1])
        assert 0 < value[0, 0] <= bound[0, 0]
        signs, _ = decay_signs(rows, np.array([1]), 0, [0.1], [Fraction(0.1)])
        assert signs.tolist() == [[-1]]
        grid = DeltaGrid((0.1,))
        sets = decay_argmax_sets(rows, grid)
        assert sets == (exact_decay_argmax(rows, 0.1),) == (frozenset({0}),)

    def test_float_order_reversed_by_exact(self):
        # decay_matrix puts row 1 one ulp above row 0 at delta = 0.1, while
        # the exact values have row 0 above by 3.5e-13: the exact comparison
        # must move the set to row 0 although its float value is not the
        # largest
        rows = np.array([[13589, 0, 7685170], [0, 904407, 0]], dtype=np.int64)
        grid = DeltaGrid((0.1,))
        dc = decay_matrix(rows, grid)
        assert dc[1, 0] > dc[0, 0]
        sets = decay_argmax_sets(rows, grid)
        assert sets == (exact_decay_argmax(rows, 0.1),) == (frozenset({0}),)

    def test_path_needs_no_exact_comparison(self, monkeypatch):
        # P_200's centre group dominates every other group, so the front is
        # that group alone: the maximizer sets make no float difference and
        # the trial's ranks none that needs the exact sign, since the
        # path's groups are totally ordered by dominance
        calls = {"dc_difference_sign": 0, "dc_difference_float": 0}

        def counted(name):
            original = getattr(ordering, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(ordering, name, counted(name))
        ms = maximizer_sets(path_graph(200), DeltaGrid.uniform(99))
        assert all(s == frozenset({99, 100}) for s in ms.by_decay)
        assert calls["dc_difference_sign"] == 0
        assert calls["dc_difference_float"] <= 1
        rec = run_trial(path_graph(200), DeltaGrid.uniform(99))
        assert rec.rank_clos_best == (1,) * 99
        assert calls["dc_difference_sign"] == 0


def exact_difference(diff, delta: float) -> Fraction:
    frac = Fraction(delta)
    return sum(int(d) * frac**l for l, d in enumerate(diff, start=1) if d)


class TestDifferenceBound:
    """|float difference - exact difference| <= the stated bound."""

    def assert_within_bound(self, profiles, pairs, deltas):
        # decay_signs on the same pairs, grouped by their second row and
        # with one second row per pair, must return the signs of the exact
        # differences
        diffs = np.array([profiles[i] - profiles[j] for i, j in pairs])
        values, bounds = dc_difference_float(diffs, deltas)
        exact = np.array([[exact_difference(diff, delta) for delta in deltas]
                          for diff in diffs])
        for diff, value_row, bound_row, want_row in zip(diffs, values, bounds, exact):
            for delta, value, bound, want in zip(deltas, value_row, bound_row, want_row):
                error = abs(Fraction(float(value)) - want)
                assert error <= Fraction(float(bound)), (diff.tolist(), delta)
        want = np.sign(exact).astype(int).tolist()
        fracs = [Fraction(delta) for delta in deltas]
        ks, hs = (np.array(side) for side in zip(*pairs))
        assert decay_signs(profiles, ks, hs, deltas, fracs)[0].tolist() == want
        for h in set(hs.tolist()):
            at = np.flatnonzero(hs == h)
            signs, _ = decay_signs(profiles, ks[at], h, deltas, fracs)
            assert signs.tolist() == [want[t] for t in at]

    def test_all_pairs_of_sampled_graphs(self):
        deltas = (0.01, 0.1, 0.25, 0.5, 0.73, 0.9, 0.99)
        for g in sample_graphs(24, n_max=10, seed=3):
            profiles = profile_matrix(g)
            pairs = [(i, j) for i in range(g.n) for j in range(g.n) if i != j]
            self.assert_within_bound(profiles, pairs, deltas)

    def test_path_pairs(self):
        profiles = profile_matrix(path_graph(200))
        pairs = [(k, 99) for k in range(0, 200, 7)] + [(0, 199), (3, 150)]
        self.assert_within_bound(profiles, pairs, (0.01, 0.5, 0.99))

    def test_underflow_regime(self):
        # near the center of P_400 the differences start at level ~171, and
        # 0.01**171 is below the smallest subnormal: the float value is 0
        # and only the bound's absolute term covers the exact one
        profiles = profile_matrix(path_graph(400))
        self.assert_within_bound(profiles, [(170, 199), (185, 200)], (0.01,))
        values, bounds = dc_difference_float(profiles[[170]] - profiles[[199]], [0.01])
        assert values[0, 0] == 0.0 < bounds[0, 0]
        self.assert_within_bound(np.array([[0, 0, 1], [0, 0, 0]]), [(0, 1)], (1e-150,))

    def test_one_ulp_rows(self):
        # decay_matrix puts row 1 one ulp above row 0 at delta = 0.1; the
        # exact difference has row 0 above by 3.5e-13
        rows = np.array([[13589, 0, 7685170], [0, 904407, 0]], dtype=np.int64)
        self.assert_within_bound(rows, [(0, 1), (1, 0)], (0.1,))

    def test_bound_is_tight_enough_to_certify(self):
        # a difference of 1e-300 is still certified positive
        value, bound = dc_difference_float(np.array([[0, 1, -1]]), [1e-150])
        assert value[0, 0] > bound[0, 0] > 0
