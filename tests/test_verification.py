"""The randomized property-check engine itself."""

import json
import re
from fractions import Fraction

import numpy as np
import pytest

from decaycent import cli, verification
from decaycent.centrality import (
    DeltaGrid,
    dc_difference_sign,
    decay_matrix,
    fvec_from_counts,
)
from decaycent.graph import build_graph, profile_matrix
from decaycent.ordering import (
    ComparisonVerdict,
    Relation,
    SufficiencyResult,
    decay_signs,
    lex_compare,
)
from decaycent.verification import (
    check_bfs_distances,
    check_difference_factorizations,
    check_dominance_checkers,
    check_dominance_partial_order,
    check_half_range_conditions,
    check_limit_orderings,
    check_reciprocal_reversal,
    floyd_warshall,
    run_all_checks,
    sample_graphs,
)


def test_all_properties_pass_on_default_batch():
    results = run_all_checks(n_max=10, graphs=32, seed=5)
    assert results
    for res in results:
        assert res.passed, (res.name, res.failures)
        assert res.cases > 0


@pytest.mark.parametrize("graphs", [0, -5])
def test_graphs_below_one_rejected(graphs):
    with pytest.raises(ValueError, match="graphs"):
        run_all_checks(graphs=graphs)


def test_mutated_comparator_is_caught_with_counterexample():
    graphs = sample_graphs(16, n_max=9, seed=6)

    def broken(fvec_i, fvec_j):
        # sign-flip mutant: compares the raw integers instead of their
        # reciprocal views
        for idx, (a, b) in enumerate(zip(fvec_i, fvec_j)):
            if a != b:
                rel = Relation.GREATER if a > b else Relation.LESS
                return ComparisonVerdict(relation=rel, rule="mutant", detail=idx)
        return ComparisonVerdict(relation=Relation.EQUAL, rule="mutant")

    res = check_reciprocal_reversal(graphs, compare_fn=broken)
    assert not res.passed
    failure = res.failures[0]
    assert "graph" in failure and "pair" in failure


def test_sample_graphs_deterministic():
    a = sample_graphs(6, n_max=8, seed=9)
    b = sample_graphs(6, n_max=8, seed=9)
    assert [g.edges.tolist() for g in a] == [g.edges.tolist() for g in b]
    assert all(2 <= g.n <= 8 for g in a)


def test_sample_graphs_needs_a_size():
    with pytest.raises(ValueError, match="n_max=3"):
        sample_graphs(4, n_max=3, seed=0)


def test_strict_order_uses_derived_intervals():
    # at 0.9 the float values put row 0 one ulp (3.6e-12) above row 1, but
    # exactly row 0 is below: a fixed 1e-12 window would certify the order,
    # while the order oracle of the checks gives the exact signs
    rows = np.array([[13126, 6054, 8289, 5564], [11371, 8004, 8289, 5564]])
    grid = DeltaGrid((0.9,))
    dc = decay_matrix(rows, grid)
    assert dc[0, 0] - dc[1, 0] > 1e-12
    assert dc_difference_sign(rows[0], rows[1], 0.9) < 0
    signs, _ = decay_signs(rows, np.array([0, 1]), np.array([1, 0]),
                           grid.values, grid.fractions())
    assert signs.tolist() == [[-1], [1]]


def _low_on_any_degree_surplus(ci, cj):
    return SufficiencyResult(applicable=ci[0] > cj[0], satisfied=frozenset({1}),
                             rule="mutant")


def _high_on_any_farness_deficit(fvec_i, fvec_j):
    return SufficiencyResult(applicable=fvec_i[0] < fvec_j[0],
                             satisfied=frozenset({1}), rule="mutant")


def _profile_greater_on_lex_lead(ci, cj):
    return lex_compare(ci, cj, rule="profile-dominance")


def _exact_decay(dist_row, node, delta):
    frac = Fraction(delta)
    return sum(frac ** int(d) for j, d in enumerate(dist_row) if j != node)


@pytest.mark.parametrize("target, mutant, check, keys, lo, hi", [
    ("check_low_delta_conditions", _low_on_any_degree_surplus,
     check_half_range_conditions, {"rule", "conditions"}, 0.0, 0.5),
    ("check_high_delta_conditions", _high_on_any_farness_deficit,
     check_half_range_conditions, {"rule", "conditions"}, 0.5, 1.0),
    ("check_profile_dominance", _profile_greater_on_lex_lead,
     check_dominance_checkers, {"rules"}, 0.0, 1.0),
])
def test_mutated_sufficient_condition_is_caught(monkeypatch, target, mutant,
                                                check, keys, lo, hi):
    graphs = sample_graphs(16, n_max=9, seed=6)
    assert check(graphs).passed
    monkeypatch.setattr(verification, target, mutant)
    res = check(graphs)
    assert not res.passed
    for failure in res.failures:
        assert {"graph", "pair", "delta", *keys} <= failure.keys()
        delta = failure["delta"]
        # grid values lie in (0, 1), and the claimed range is [lo, hi] there
        assert lo <= delta <= hi
        edges = failure["graph"]
        g = build_graph(1 + max(max(e) for e in edges), edges)
        i, j = failure["pair"]
        dist = floyd_warshall(g)
        assert _exact_decay(dist[i], i, delta) <= _exact_decay(dist[j], j, delta)
        # and it is the claim's first failing grid value
        for earlier in (d for d in DeltaGrid.uniform(999).values if lo <= d < delta):
            assert _exact_decay(dist[i], i, earlier) > _exact_decay(dist[j], j, earlier)


def _padded_to_n_minus_1(g):
    # the (n, n - 1) zero-filled layout, wider than the diameter
    pm = profile_matrix(g)
    return np.pad(pm, ((0, 0), (0, g.n - 1 - pm.shape[1])))


def _levels_reversed(g):
    return profile_matrix(g)[:, ::-1]


def _first_row_one_more_neighbour(g):
    pm = profile_matrix(g).copy()
    pm[0, 0] += 1
    return pm


def _fvec_unsigned(counts):
    return tuple(abs(f) for f in fvec_from_counts(counts))


def _fvec_entries_2_3_swapped(counts):
    # keeps every vector's sum, so only the identity itself can catch it
    fvec = list(fvec_from_counts(counts))
    fvec[1:3] = fvec[2:0:-1]
    return tuple(fvec)


def _raw_farness_key(fvec):
    # orders the farness integers themselves, not their reciprocals
    return tuple(fvec)


def _weak_dominance(a, b, rule="ud"):
    # prefix sums compared with >= only, so equal vectors come out greater
    sa, sb = np.cumsum(a), np.cumsum(b)
    if (sa >= sb).all():
        return ComparisonVerdict(relation=Relation.GREATER, rule=rule)
    if (sa <= sb).all():
        return ComparisonVerdict(relation=Relation.LESS, rule=rule)
    return ComparisonVerdict(relation=Relation.INCOMPARABLE, rule=rule)


@pytest.mark.parametrize("target, mutant, check, keys", [
    ("profile_matrix", _padded_to_n_minus_1, check_bfs_distances,
     {"problem", "width", "diameter"}),
    ("profile_matrix", _levels_reversed, check_bfs_distances,
     {"node", "expected", "batch"}),
    ("fvec_from_counts", _fvec_unsigned, check_difference_factorizations,
     {"pair", "problem"}),
    ("profile_matrix", _first_row_one_more_neighbour, check_difference_factorizations,
     {"pair", "problem"}),
    ("fvec_from_counts", _fvec_entries_2_3_swapped, check_difference_factorizations,
     {"pair", "direct", "avec", "eps_form"}),
    ("cvec_sort_key", _raw_farness_key, check_limit_orderings,
     {"delta", "lex_winners", "decay_winners"}),
    ("ud_compare", _weak_dominance, check_dominance_partial_order, {"node", "problem"}),
], ids=["bfs-width", "bfs-rows", "factorization-sums", "factorization-profile-sums",
        "factorization-values", "limit-orderings", "partial-order"])
def test_mutated_property_code_is_caught(monkeypatch, target, mutant, check, keys):
    graphs = sample_graphs(16, n_max=9, seed=6)
    assert check(graphs).passed
    monkeypatch.setattr(verification, target, mutant)
    res = check(graphs)
    assert not res.passed
    assert {"graph", *keys} <= res.failures[0].keys()


@pytest.mark.parametrize("n", [30, 40])
def test_factorizations_exact_on_long_paths(n):
    # the prefix sums Q_k of bvec grow like binomial sums, so the eps-side
    # form evaluated in floats cancels at low delta to errors from 1e-10 (P_30)
    # to 1e-7 (P_40): only the exact identities can pass on these paths
    g = build_graph(n, [(v, v + 1) for v in range(n - 1)])
    res = check_difference_factorizations([g])
    assert res.passed and res.cases == n * (n - 1) // 2


def test_failing_property_exits_3(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(verification, "check_low_delta_conditions",
                        _low_on_any_degree_surplus)
    out = tmp_path / "check.json"
    argv = ["check", "--graphs", "16", "--n-max", "9", "--seed", "6", "--out", str(out)]
    assert cli.main(argv) == 3
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("[FAIL] half-range-conditions-sound: ") for line in lines) == 1
    assert sum(line.startswith("[PASS] ") for line in lines) == 6
    shown = [json.loads(line.split("counterexample: ", 1)[1])
             for line in lines if line.startswith("    counterexample: {")]
    report = {p["name"]: p for p in json.loads(out.read_text())["properties"]}
    failed = report["half-range-conditions-sound"]
    assert failed["passed"] is False
    assert failed["failures"] and failed["failures"] == shown
    assert all(p["passed"] for p in report.values() if p is not failed)


def test_half_range_claims_on_a_one_sided_grid():
    # no grid value is at most 1/2, so the low-delta claims have no
    # columns to fail on; they still count as cases
    graphs = sample_graphs(16, n_max=9, seed=6)
    one_sided = check_half_range_conditions(graphs, DeltaGrid((0.7,)))
    assert one_sided.passed
    assert one_sided.cases == check_half_range_conditions(graphs, DeltaGrid((0.3, 0.7))).cases


def test_check_reports_seconds_on_stdout_only(tmp_path, capsys):
    out = tmp_path / "check.json"
    assert cli.main(["check", "--graphs", "8", "--n-max", "6", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7
    for line in lines:
        assert re.fullmatch(r"\[PASS\] [a-z-]+: \d+ cases, 0 failures \(\d+\.\d\d s\)", line), line
    for prop in json.loads(out.read_text())["properties"]:
        assert set(prop) == {"name", "passed", "cases", "failures"}
