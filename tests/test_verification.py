"""The randomized property-check engine itself."""

import numpy as np
import pytest

from decaycent.centrality import DeltaGrid, dc_difference_sign, decay_matrix
from decaycent.ordering import ComparisonVerdict, Relation
from decaycent.verification import (
    _certainly_greater,
    _strict_order_everywhere,
    check_reciprocal_reversal,
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
    # while the float difference lies within its derived bound both ways,
    # so the exact sign decides
    rows = np.array([[13126, 6054, 8289, 5564], [11371, 8004, 8289, 5564]])
    grid = DeltaGrid((0.9,))
    dc = decay_matrix(rows, grid)
    assert dc[0, 0] - dc[1, 0] > 1e-12
    assert dc_difference_sign(rows[0], rows[1], 0.9) < 0
    certain = _certainly_greater(rows, grid)
    assert not certain.any()
    i, j = rows.tolist()
    assert _strict_order_everywhere(i, j, grid.values, certain[0, 1]) == 0.9
    assert _strict_order_everywhere(j, i, grid.values, certain[1, 0]) is None
