"""Checked-in ``BENCH_*.json`` benchmark records carry what makes them
comparable: the machine they ran on, both sides' medians and quartiles, and
the claimed metric with its win count.  The benchmark tracer's lookup sites
still exist in the package."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from decaycent.centrality import DeltaGrid
from decaycent.graph import build_graph
from decaycent.ordering import maximizer_sets
from decaycent.simulation import run_trial

from conftest import CROSSING_EDGES

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def load_bench_module(name: str):
    """A ``perfbench`` module by file path (they import only the standard
    library), registered so that its dataclasses can resolve it."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def machine_keys() -> tuple[str, ...]:
    return load_bench_module("compare").MACHINE_KEYS


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_keys(path):
    data = json.loads(path.read_text())
    assert set(machine_keys()) <= set(data["machine"])
    claim = data["claim"]
    assert {"metric", "workload", "wins", "pairs"} <= set(claim)
    assert 0 <= claim["wins"] <= claim["pairs"]
    rows = data["results"]
    for row in rows:
        assert {"workload", "trace", "metric", "unit", "parent", "change"} <= set(row)
        for side in ("parent", "change"):
            assert {"runs", "median", "q1", "q3"} <= set(row[side])
    assert any(row["workload"] == claim["workload"] and row["metric"] == claim["metric"]
               for row in rows)


def test_tracer_lookup_sites_exist():
    # the tracer swaps each attribute in its owner's namespace; a refactor
    # that moves a function out of a module it is looked up through would
    # leave that layer untraced (or fail only in a traced benchmark run)
    tracing = load_bench_module("tracing")
    sites = [(path, attr) for path, attr, _ in tracing.TARGETS] + list(tracing.COUNTED)
    missing = [f"{path}.{attr}" for path, attr in sites
               if attr not in vars(tracing._resolve(path))]
    assert not missing


def test_tracer_counts_exact_signs():
    # the frozen n=7 graph whose two profiles tie exactly at delta = 1/2
    # needs the exact sign in both the trial and the maximizer sets; if
    # those calls moved to a lookup site the tracer does not count, the
    # benchmark's ordering.exact_sign_calls would read 0
    g = build_graph(7, [(0, 2), (1, 4), (2, 5), (2, 6), (3, 4), (4, 5)])
    grid = DeltaGrid.uniform(19)
    tracer = load_bench_module("tracing").Tracer()
    with tracer.installed():
        run_trial(g, grid)
        after_trial = tracer.exact_calls
        maximizer_sets(g, grid)
    assert 0 < after_trial < tracer.exact_calls


def test_tracer_spans_every_evaluation_layer():
    # K_8's dominance front is one profile group and the crossing graph's
    # holds several; either way the trial and the maximizer sets must reach
    # the traced profile, decay-matrix and argmax sites, or a traced
    # benchmark run has no span to average for that layer
    tracing = load_bench_module("tracing")
    grid = DeltaGrid.uniform(19)
    complete = build_graph(8, [(i, j) for i in range(8) for j in range(i + 1, 8)])
    for g in (complete, build_graph(8, CROSSING_EDGES)):
        for evaluate in (run_trial, maximizer_sets):
            tracer = tracing.Tracer()
            with tracer.installed():
                evaluate(g, grid)
            names = {span.name for span in tracer.spans}
            assert {"graph.profile", "centrality.decay_matrix", "ordering.argmax"} <= names
