"""Centrality table values, decay evaluation, and the difference coefficients."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decaycent.centrality import (
    SUBNORMAL_SPACING,
    UNIT_ROUNDOFF,
    DeltaGrid,
    centrality_table,
    cvec_from_fvec,
    dc_difference_coeffs,
    dc_difference_sign,
    decay_centrality,
    decay_matrix,
    live_levels,
    fvec_from_counts,
)
from decaycent.generation import TrialSeed, sample_connected_gnp
from decaycent.graph import build_graph, profile_matrix
from decaycent.verification import sample_graphs

from conftest import oracle_decay, oracle_profile


class TestDeltaGrid:
    def test_uniform_99_is_percent_grid(self):
        grid = DeltaGrid.uniform(99)
        assert len(grid) == 99
        assert grid.values[0] == pytest.approx(0.01)
        assert grid.values[49] == 0.5
        assert grid.values[-1] == pytest.approx(0.99)

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            DeltaGrid(())
        with pytest.raises(ValueError):
            DeltaGrid((0.5, 0.4))
        with pytest.raises(ValueError):
            DeltaGrid((0.0, 0.5))
        with pytest.raises(ValueError):
            DeltaGrid((0.5, 1.0))

    def test_fractions_exact_and_built_once(self):
        grid = DeltaGrid.uniform(9)
        fracs = grid.fractions()
        assert fracs.dtype == object and not fracs.flags.writeable
        assert fracs.tolist() == [Fraction(v) for v in grid.values]
        assert grid.fractions() is fracs
        # the constructor is cached: every caller shares one grid and its fractions
        assert DeltaGrid.uniform(9) is grid


class TestCentralityTable:
    def test_p3_values(self, p3):
        t = centrality_table(p3)
        assert t.degrees == (1, 2, 1)
        assert t.farness == (3, 2, 3)
        assert t.counts.tolist() == [[1, 1], [2, 0], [1, 1]]

    def test_profile_pads_to_n_minus_1(self, star4):
        # counts stop at the diameter; a report's row runs to level n - 1
        t = centrality_table(star4)
        assert t.counts.shape == (4, 2)
        assert [t.profile(i) for i in range(4)] == [[3, 0, 0], [1, 2, 0], [1, 2, 0], [1, 2, 0]]
        graphs = [build_graph(6, [(i, i + 1) for i in range(5)]),
                  build_graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])]
        for g in graphs + sample_graphs(12, n_max=10, seed=8):
            t = centrality_table(g)
            for i in range(g.n):
                assert t.profile(i) == list(oracle_profile(g, i))
                assert t.fvec(i) == fvec_from_counts(oracle_profile(g, i))

    def test_p3_fvecs_by_hand(self, p3):
        # node 0 profile (1,1): entry2 = -C(2,2)*1 = -1; node 1 (2,0): entry2 = 0
        t = centrality_table(p3)
        assert t.fvecs[0] == (3, -1)
        assert t.fvecs[1] == (2, 0)

    def test_star_farness(self, star4):
        t = centrality_table(star4)
        assert t.farness[0] == 3
        assert t.farness[1] == t.farness[2] == t.farness[3] == 5

    def test_farness_is_first_fvec_entry(self, cycle5):
        t = centrality_table(cycle5)
        for i in range(5):
            assert t.fvecs[i][0] == t.farness[i]
            assert cvec_from_fvec(t.fvecs[i])[0] == pytest.approx(1 / t.farness[i])

    def test_fvec_sign_pattern(self):
        g, _ = sample_connected_gnp(11, 0.3, TrialSeed(7, 1))
        t = centrality_table(g)
        for fvec in t.fvecs:
            for k, value in enumerate(fvec, start=1):
                if k % 2 == 1:
                    assert value >= 0
                else:
                    assert value <= 0

    def test_single_node_rejected(self):
        with pytest.raises(ValueError):
            centrality_table(build_graph(1, []))

    def test_fvec_generating_identity(self):
        # independent oracle: sum_k |F^k| x^k == sum_l counts[l-1] ((1+x)^l - 1)
        # exactly, for integer x
        g, _ = sample_connected_gnp(9, 0.35, TrialSeed(7, 2))
        for row in profile_matrix(g):
            counts = [int(c) for c in row]
            fvec = fvec_from_counts(counts)
            for x in (1, 2, 3, 5):
                lhs = sum(abs(f) * x**k for k, f in enumerate(fvec, start=1))
                rhs = sum(
                    c * ((1 + x) ** l - 1) for l, c in enumerate(counts, start=1)
                )
                assert lhs == rhs

    def test_fvec_exact_beyond_machine_ints(self):
        # path on 80 nodes: binomials overflow 64-bit but stay exact
        path = build_graph(80, [(i, i + 1) for i in range(79)])
        t = centrality_table(path)
        assert max(abs(v) for v in t.fvecs[0]) > 2**63
        assert t.fvecs[0][0] == sum(range(1, 80))

    def test_fvec_matches_binomial_definition(self):
        # the definition term by term, against the shift-and-add expansion
        from math import comb

        g, _ = sample_connected_gnp(14, 0.2, TrialSeed(7, 3))
        for row in profile_matrix(g).tolist() + [[0, 3, 0, 1, 0, 0]]:
            expected = tuple(
                (-1) ** (k - 1)
                * sum(comb(l, k) * row[l - 1] for l in range(k, len(row) + 1))
                for k in range(1, len(row) + 1)
            )
            assert fvec_from_counts(row) == expected

    def test_cvec_zero_convention(self):
        assert cvec_from_fvec((2, 0, -3)) == (0.5, 0.0, pytest.approx(-1 / 3))


class TestDecayCentrality:
    def test_p3_hand_values(self, p3):
        mat = profile_matrix(p3)
        assert decay_centrality(mat[1], 0.5) == pytest.approx(1.0)
        assert decay_centrality(mat[0], 0.5) == pytest.approx(0.75)

    def test_star_per_pair_oracle(self, star4):
        mat = profile_matrix(star4)
        assert decay_centrality(mat[0], 0.3) == pytest.approx(0.9)
        assert decay_centrality(mat[1], 0.3) == pytest.approx(0.48)
        for node in range(4):
            assert decay_centrality(mat[node], 0.3) == pytest.approx(
                oracle_decay(star4, node, 0.3), rel=1e-12
            )

    def test_delta_domain(self, p3):
        row = profile_matrix(p3)[0]
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                decay_centrality(row, bad)

    def test_horner_matches_naive_on_random_graphs(self):
        for idx in range(6):
            n = 6 + idx
            g, _ = sample_connected_gnp(n, 0.4, TrialSeed(13, idx))
            mat = profile_matrix(g)
            for node in range(n):
                for delta in (0.05, 0.37, 0.5, 0.81, 0.99):
                    naive = oracle_decay(g, node, delta)
                    assert decay_centrality(mat[node], delta) == pytest.approx(
                        naive, rel=1e-12
                    )

    def test_monotone_in_delta_and_limits(self):
        g, _ = sample_connected_gnp(9, 0.35, TrialSeed(13, 100))
        mat = profile_matrix(g)
        dc = decay_matrix(mat, DeltaGrid.uniform(30))
        assert (np.diff(dc, axis=1) > 0).all()
        for row in mat:
            assert decay_centrality(row, 1e-9) < 1e-7
            assert decay_centrality(row, 1 - 1e-9) == pytest.approx(g.n - 1, abs=1e-5)


class TestDecayCurve:
    """Rows of :func:`decay_matrix` as decay curves over a grid."""

    def test_p3_center_curve(self, p3):
        grid = DeltaGrid((0.25, 0.5, 0.75))
        dc = decay_matrix(profile_matrix(p3), grid)
        assert dc[1] == pytest.approx((0.5, 1.0, 1.5))

    def test_singleton_grid(self, star4):
        mat = profile_matrix(star4)
        dc = decay_matrix(mat, DeltaGrid((0.42,)))
        assert dc.shape == (4, 1)
        assert dc[2, 0] == decay_centrality(mat[2], 0.42)

    def test_matches_pointwise_recomputation(self):
        g, _ = sample_connected_gnp(10, 0.45, TrialSeed(14, 0))
        mat = profile_matrix(g)
        grid = DeltaGrid.uniform(25)
        dc = decay_matrix(mat, grid)
        for node in range(g.n):
            for k, delta in enumerate(grid.values):
                assert dc[node, k] == decay_centrality(mat[node], delta)

    def test_decay_matrix_bitwise_equals_scalar_horner(self):
        grid = DeltaGrid.uniform(99)
        for g in (
            sample_connected_gnp(30, 0.15, TrialSeed(14, 2))[0],
            build_graph(60, [(i, i + 1) for i in range(59)]),
        ):
            mat = profile_matrix(g)
            dc = decay_matrix(mat, grid)
            for node, row in enumerate(mat.tolist()):
                scalar = [decay_centrality(row, delta) for delta in grid.values]
                assert dc[node].tolist() == scalar

    def test_decay_matrix_agrees_with_curve(self):
        g, _ = sample_connected_gnp(12, 0.35, TrialSeed(14, 1))
        grid = DeltaGrid.uniform(19)
        dc = decay_matrix(profile_matrix(g), grid)
        for node in range(g.n):
            naive = [oracle_decay(g, node, delta) for delta in grid.values]
            assert dc[node] == pytest.approx(naive, rel=1e-12)


def horner_error_bound(dc, profiles):
    """A bound on the absolute error of ``dc = decay_matrix(profiles, grid)``:
    ``2*gamma_{2L+1}*dc + 2*(L+1)*eta`` with ``L`` live levels, unit
    roundoff ``u``, ``gamma_k = k*u / (1 - k*u)`` and subnormal spacing
    ``eta``.  Horner's scheme on nonnegative counts has relative error at
    most ``gamma_{2L-1}`` (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., sec. 5.1); each of its ``L`` multiplications can
    add one ``eta`` by underflow, and the factor 2 covers the roundings
    made in evaluating the bound."""
    levels = live_levels(profiles)
    ku = (2 * levels + 1) * UNIT_ROUNDOFF
    return 2.0 * ku / (1.0 - ku) * dc + 2 * (levels + 1) * SUBNORMAL_SPACING


class TestDecayErrorBound:
    """|decay_matrix - exact value| <= Horner's derived forward-error bound
    (:func:`horner_error_bound`), entry by entry: the decay values that
    reports print are accurate to a relative few ulps."""

    @staticmethod
    def exact_decay(row, delta: float) -> Fraction:
        frac = Fraction(delta)
        p, q = frac.numerator, frac.denominator
        levels = len(row)
        num = sum(int(c) * p**l * q ** (levels - l) for l, c in enumerate(row, 1) if c)
        return Fraction(num, q**levels)

    def assert_within_bound(self, profiles, deltas, nodes=None):
        grid = DeltaGrid(tuple(deltas))
        dc = decay_matrix(profiles, grid)
        err = horner_error_bound(dc, profiles)
        for node in range(len(profiles)) if nodes is None else nodes:
            row = profiles[node]
            for delta, value, bound in zip(grid.values, dc[node], err[node]):
                error = abs(Fraction(float(value)) - self.exact_decay(row, delta))
                assert error <= Fraction(float(bound)), (row.tolist(), delta)

    def test_sampled_graphs(self):
        deltas = (0.01, 0.1, 0.25, 0.5, 0.73, 0.9, 0.99)
        for g in sample_graphs(24, n_max=10, seed=3):
            self.assert_within_bound(profile_matrix(g), deltas)

    def test_path_200(self):
        path = build_graph(200, [(i, i + 1) for i in range(199)])
        nodes = [*range(0, 200, 9), 99, 100, 199]
        self.assert_within_bound(profile_matrix(path), (0.01, 0.5, 0.99), nodes)

    def test_complete_graph(self):
        k12 = build_graph(12, [(i, j) for i in range(12) for j in range(i + 1, 12)])
        self.assert_within_bound(profile_matrix(k12), DeltaGrid.uniform(99).values)

    def test_interior_and_leading_zero_rows(self):
        # 0.1**3 is inexact, so the interior zero row has a nonzero error;
        # at 1e-150 the last row's value 1e-450 underflows to 0 and only
        # the absolute term covers it
        rows = np.array([[11190, 0, 6740160], [0, 785916, 0], [0, 0, 1]], dtype=np.int64)
        self.assert_within_bound(rows, (1e-150, 1e-9, 0.1, 0.5, 0.9))
        dc = decay_matrix(rows, DeltaGrid((1e-150,)))
        assert dc[2, 0] == 0.0 < horner_error_bound(dc, rows)[2, 0]

    def test_bound_is_relative_to_the_value(self):
        # gamma_{2L+1} scale: far below any fixed absolute window on P_200
        path = profile_matrix(build_graph(200, [(i, i + 1) for i in range(199)]))
        dc = decay_matrix(path, DeltaGrid.uniform(99))
        assert (horner_error_bound(dc, path) <= 1e-13 * dc).all()


def coeffs(t, i, j):
    return dc_difference_coeffs(t.profile(i), t.profile(j), t.fvec(i), t.fvec(j))


class TestDifferenceCoeffs:
    def test_identical_profiles_all_zero(self, star4):
        t = centrality_table(star4)
        avec, bvec = coeffs(t, 1, 2)
        assert avec == (0, 0, 0)
        assert bvec == (0, 0, 0)

    def test_p3_hand_values(self, p3):
        t = centrality_table(p3)
        avec, bvec = coeffs(t, 1, 0)
        assert avec == (1, -1)
        assert bvec == (-1, 1)

    def test_sums_zero_on_random_pairs(self):
        for idx in range(5):
            g, _ = sample_connected_gnp(8 + idx, 0.4, TrialSeed(15, idx))
            t = centrality_table(g)
            for i in range(g.n):
                for j in range(i + 1, g.n):
                    avec, bvec = coeffs(t, i, j)
                    assert sum(avec) == 0
                    assert sum(bvec) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths"):
            dc_difference_coeffs((1, 1, 0), (2, 0), (2, -1, 0), (2, 0))


class TestExactSign:
    def test_matches_float_when_far_from_zero(self, crossing_graph):
        mat = profile_matrix(crossing_graph)
        i, j = 0, 4
        for delta in (0.05, 0.3, 0.7, 0.95):
            direct = decay_centrality(
                tuple(int(c) for c in mat[i]), delta
            ) - decay_centrality(tuple(int(c) for c in mat[j]), delta)
            assert dc_difference_sign(mat[i], mat[j], delta) == (
                1 if direct > 0 else -1
            )

    def test_identical_profiles_sign_zero(self, star4):
        mat = profile_matrix(star4)
        assert dc_difference_sign(mat[1], mat[2], 0.5) == 0

    def test_exact_tie_at_half(self):
        # difference polynomial delta - 3 delta^2 + 2 delta^3 vanishes at 1/2
        assert dc_difference_sign((2, 0, 2), (1, 3, 0), Fraction(1, 2)) == 0
        assert dc_difference_sign((2, 0, 2), (1, 3, 0), Fraction(49, 100)) == 1
        assert dc_difference_sign((2, 0, 2), (1, 3, 0), Fraction(51, 100)) == -1

    @given(
        counts=st.lists(st.integers(0, 5), min_size=2, max_size=8),
        shift=st.integers(0, 4),
        num=st.integers(1, 99),
    )
    @settings(max_examples=60, deadline=None)
    def test_sign_agrees_with_fraction_evaluation(self, counts, shift, num):
        other = counts[shift:] + counts[:shift]  # same multiset, same sum
        delta = Fraction(num, 100)
        exact = sum(
            (a - b) * delta**l
            for l, (a, b) in enumerate(zip(counts, other), start=1)
        )
        expected = (exact > 0) - (exact < 0)
        assert dc_difference_sign(counts, other, delta) == expected
