"""The report writers against the stdlib encoder and per-field references.

:func:`decaycent.io.json_text` must equal ``json.dumps(x, indent=2,
sort_keys=True)``, and the CSV writers (``compute``'s table, ``simulate``'s
``records.csv`` and ``aggregate.csv``) must equal the rows built field by
field with :func:`decaycent.io.fmt_float` and ``csv.writer``.  ``compute``'s
writers work once per profile group, so they are also checked on graphs
with many repeated profiles against per-node references.  These
references live here as the oracles.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import io
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decaycent import centrality
from decaycent.centrality import DeltaGrid, centrality_table
from decaycent.generation import TrialSeed, sample_connected_gnp
from decaycent.graph import Graph, build_graph
from decaycent.io import (
    centrality_csv,
    centrality_payload,
    fmt_float,
    json_text,
    jsonable,
    with_envelope,
)
from decaycent.meta import conventions, version_string
from decaycent.ordering import maximizer_sets
from decaycent.simulation import (
    SimulationConfig,
    _aggregate_rows,
    _record_rows,
    aggregate,
    iter_trials,
)


def stdlib_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


#: Strings that a separator-based writer could confuse with its own layout.
AWKWARD = [',\n[]{}"', ",\n  ", ": ", "null", "", "\\", "\x00\x1f", " ",
           "δ ≈ ½, naïve", "日本語"]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
    st.sampled_from(AWKWARD),
)
trees = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=6)
    | st.dictionaries(st.text(max_size=6) | st.sampled_from(AWKWARD), kids, max_size=6),
    max_leaves=30,
)


class TestJsonText:
    @given(trees)
    @settings(max_examples=200, deadline=None)
    def test_matches_stdlib_indent_2(self, tree):
        assert json_text(tree) == stdlib_json(tree)

    @pytest.mark.parametrize(
        "obj",
        [
            {},
            [],
            [[]],
            {"a": {}, "b": [], "c": [{}], "d": [[], {}]},
            [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, sys.float_info.max],
            [10**40, -(10**40), True, False, None],
            {"z": [1, {"y": [], "x": [1.5, ",\n  x"]}], "a": "é", "m": None},
            [[1, [2, [3, [4, []]]]], {"k": {"k": {"k": {}}}}],
            (1, (2.5, "t"), []),
            "top-level string",
            -0.0,
        ],
    )
    def test_edge_cases(self, obj):
        assert json_text(obj) == stdlib_json(obj)

    # json_text reuses the text of a plain-scalar list it has written, keyed
    # by the list's id and its indent; a key on the id alone would give a
    # list met again at another depth the indentation of its first occurrence
    @pytest.mark.parametrize("case", ["one-depth", "two-depths", "shared-dict"])
    def test_shared_sub_objects(self, case):
        leaf = [0.5, 1, "x", None]
        if case == "one-depth":
            obj = [leaf, leaf, {"a": leaf}, [leaf]]
        elif case == "two-depths":
            obj = {"a": leaf, "b": [leaf, {"c": leaf}], "d": leaf}
        else:
            shared = {"k": leaf, "m": [1, 2]}
            obj = {"p": shared, "q": {"r": shared}, "s": [shared, leaf]}
        assert json_text(obj) == stdlib_json(obj)


class Colour(enum.Enum):
    RED = "red"


@dataclasses.dataclass
class Point:
    x: int
    y: float


class TestJsonable:
    def test_converts_package_types(self):
        obj = {
            "set": {3, 1, 2},
            "frozen": frozenset({5, 4}),
            "fraction": Fraction(3, 4),
            "enum": Colour.RED,
            "np_int": np.int64(7),
            "np_float": np.float32(0.25),
            "array": np.array([[1, 2], [3, 4]]),
            "tuple": (1, (2, 3)),
            "point": Point(1, 2.0),
            "mixed": [np.float32(0.5), 1.5, 2.5],
            3: "int key",
        }
        got = jsonable(obj)
        assert got == {
            "set": [1, 2, 3],
            "frozen": [4, 5],
            "fraction": {"num": 3, "den": 4},
            "enum": "red",
            "np_int": 7,
            "np_float": 0.25,
            "array": [[1, 2], [3, 4]],
            "tuple": [1, [2, 3]],
            "point": {"x": 1, "y": 2.0},
            "mixed": [0.5, 1.5, 2.5],
            "3": "int key",
        }
        assert type(got["mixed"][0]) is float
        assert type(got["np_int"]) is int
        assert json_text(got) == stdlib_json(got)

    def test_plain_scalar_list_is_returned_as_is(self):
        values = [1, 2.5, "a", None, True]
        assert jsonable(values) is values


def grid_graph(side: int) -> Graph:
    nodes = range(side * side)
    return build_graph(side * side, [(v, v + 1) for v in nodes if v % side < side - 1]
                       + [(v, v + side) for v in nodes if v < side * (side - 1)])


#: Graphs whose nodes share profiles: the writers work once per profile
#: group, and their output must equal the per-node references.  Only the
#: G(n, p) sample has (almost) no repeated profile.
REPEATED_PROFILES = {
    "p200": lambda: build_graph(200, [(i, i + 1) for i in range(199)]),
    "star41": lambda: build_graph(41, [(0, i) for i in range(1, 41)]),
    "k5_7": lambda: build_graph(12, [(i, j) for i in range(5) for j in range(5, 12)]),
    "grid12": lambda: grid_graph(12),
    "gnp400": lambda: sample_connected_gnp(400, 0.02, TrialSeed(3, 0))[0],
}


EDGE_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan,
    5e-324, -5e-324, 1e-310, 2.225073858507201e-308, 2.2250738585072014e-308,
    sys.float_info.max, -sys.float_info.max, 1.8e308,
    0.1, 1 / 3, 2 / 3, 123456789.5, 999999999.5, 1e16, 1e-5, 9.9999999949e-5,
]


class TestCentralityCsv:
    @pytest.mark.parametrize("x", EDGE_FLOATS, ids=repr)
    def test_percent_g9_spells_floats_as_fmt_float(self, x):
        assert "%.9g" % x == fmt_float(x)

    @given(st.floats(allow_nan=True, allow_infinity=True))
    @settings(max_examples=500, deadline=None)
    def test_percent_g9_on_any_float(self, x):
        assert "%.9g" % x == fmt_float(x)

    @staticmethod
    def per_field_csv(table, grid) -> str:
        # every node's own row of the decay matrix, not the table's
        # per-group values
        header = ["node", "degree", "farness", "closeness"] + [
            f"dc@{fmt_float(d)}" for d in grid.values
        ]
        lines = [",".join(header)]
        for i, dcs in enumerate(centrality.decay_matrix(table.counts, grid).tolist()):
            row = [
                str(i),
                str(table.degrees[i]),
                str(table.farness[i]),
                fmt_float(1.0 / table.farness[i]),
            ] + [fmt_float(v) for v in dcs]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("name", sorted(REPEATED_PROFILES))
    def test_matches_per_field_reference(self, name):
        table = centrality_table(REPEATED_PROFILES[name]())
        grid = DeltaGrid.uniform(99)
        want = self.per_field_csv(table, grid)
        assert centrality_csv(table, grid) == want

    def test_report_builds_one_decay_matrix(self, monkeypatch):
        # the CSV and the JSON payload of one report share the table's matrix
        g = build_graph(60, [(i, i + 1) for i in range(59)])
        table, grid = centrality_table(g), DeltaGrid.uniform(99)
        builds = []
        original = centrality.decay_matrix

        def counted(profiles, grid):
            builds.append(grid)
            return original(profiles, grid)

        monkeypatch.setattr(centrality, "decay_matrix", counted)
        csv_text = centrality_csv(table, grid)
        payload = centrality_payload(table, grid, maximizer_sets(g, grid, table=table))
        assert builds == [grid]
        dc = table.decay_values(grid)
        assert not dc.flags.writeable
        first, inverse, _ = table.groups
        assert dc.shape == (len(first), len(grid))
        assert [node["dc"] for node in payload["nodes"]] == dc[inverse].tolist()
        assert csv_text.splitlines()[1].endswith(",".join(fmt_float(v) for v in dc[inverse[0]]))


class TestCentralityPayload:
    @pytest.mark.parametrize("name", sorted(REPEATED_PROFILES))
    def test_matches_per_node_reference(self, name):
        g = REPEATED_PROFILES[name]()
        table, grid = centrality_table(g), DeltaGrid.uniform(99)
        full = name != "gnp400"
        payload = centrality_payload(table, grid, maximizer_sets(g, grid, table=table), full=full)
        nodes = payload["nodes"]
        assert [node["dc"] for node in nodes] == (
            centrality.decay_matrix(table.counts, grid).tolist())
        if full:
            for i, node in enumerate(nodes):
                fvec = centrality.fvec_from_counts(table.profile(i))
                assert (node["profile"], node["fvec"], node["cvec"]) == (
                    table.profile(i), list(fvec), list(centrality.cvec_from_fvec(fvec)))
        # one list object per profile group
        first, inverse, _ = table.groups
        assert all(node["dc"] is nodes[first[k]]["dc"]
                   for node, k in zip(nodes, inverse.tolist()))
        config = {"command": "compute", "full": full}
        want = stdlib_json({"config": config, "version": version_string(),
                            "conventions": conventions(), **payload})
        assert with_envelope(config, payload) == want + "\n"

    def test_full_report_builds_one_fvec_per_group(self, monkeypatch):
        g = REPEATED_PROFILES["star41"]()
        table, grid = centrality_table(g), DeltaGrid.uniform(9)
        calls = []
        original = centrality.fvec_from_counts

        def counted(counts):
            calls.append(tuple(counts))
            return original(counts)

        monkeypatch.setattr(centrality, "fvec_from_counts", counted)
        centrality_payload(table, grid, maximizer_sets(g, grid, table=table), full=True)
        # the centre's profile and the one leaf profile
        assert sorted(calls) == sorted(tuple(table.profile(f)) for f in table.groups[0])


def csv_text(rows) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def per_field_records(rec, grid) -> list[list[str]]:
    thr = "" if rec.threshold_index is None else str(rec.threshold_index)
    clean = "" if rec.transition_clean is None else str(int(rec.transition_clean))
    return [
        [str(rec.trial_index), str(rec.rejects), str(int(rec.intersects)), thr, clean,
         fmt_float(delta), str(int(rec.subset_deg[gi])), str(int(rec.subset_clos[gi])),
         str(int(rec.subset_core[gi])), str(int(rec.disjoint[gi])),
         str(rec.rank_deg_best[gi]), str(rec.rank_clos_best[gi]), str(rec.rank_rule[gi]),
         fmt_float(rec.rank_deg_avg[gi]), fmt_float(rec.rank_clos_avg[gi]),
         str(rec.rule_pick[gi])]
        for gi, delta in enumerate(grid.values)
    ]


def per_field_aggregate(agg) -> list[list[str]]:
    t, nn = agg.trials, agg.count_nonintersect
    rows = []
    for gi, delta in enumerate(agg.grid.values):
        row = [fmt_float(delta), str(t), fmt_float(agg.n_subset_deg[gi] / t),
               fmt_float(agg.n_subset_clos[gi] / t), fmt_float(agg.n_disjoint[gi] / t),
               str(nn)]
        row += [fmt_float(c[gi] / nn) if nn else "" for c in (
            agg.n_subset_deg_nonint, agg.n_subset_clos_nonint, agg.n_disjoint_nonint)]
        for fam in (agg.rank_deg_best, agg.rank_clos_best, agg.rank_rule,
                    agg.rank_deg_avg, agg.rank_clos_avg):
            row += [fmt_float(stat[gi]) for stat in (fam.mean, fam.p5, fam.p95)]
        rows.append(row)
    return rows


class TestSimulateCsv:
    # 6 grid points give deltas of 1/7, 2/7, ... with nine significant digits
    @pytest.mark.parametrize("n, p, trials, points", [(40, 0.1, 10, 6), (12, 1.0, 3, 99)],
                             ids=["nonintersecting", "all-intersecting"])
    def test_rows_match_per_field_reference(self, n, p, trials, points):
        config = SimulationConfig(n=n, p=p, trials=trials, seed=1, grid_points=points)
        grid = config.grid()
        records = [rec for _, rec in iter_trials(config)]
        # the optional fields in every state
        records += [dataclasses.replace(records[0], threshold_index=None,
                                        transition_clean=flag)
                    for flag in (None, False, True)]
        for rec in records:
            assert _record_rows(rec, grid) == csv_text(per_field_records(rec, grid))
        agg = aggregate(records, grid)
        assert (agg.count_nonintersect > 0) == (p < 1)
        assert _aggregate_rows(agg) == csv_text(per_field_aggregate(agg))
