"""Smoke tests of the benchmark harness at tiny sizes (under a minute).

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracle  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_runs_and_passes_its_checks(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--all", "--smoke", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    verdicts = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(verdicts) == len(workloads.WORKLOADS)
    for verdict in verdicts:
        assert verdict["correct"] and verdict["failed"] == 0
        assert verdict["attempted"] >= 1
        assert all(m["value"] == m["value"] for m in verdict["metrics"].values())


def test_report_check_catches_a_wrong_output(tmp_path):
    from decaycent.cli import main

    n, edges = 6, workloads.path_edges(6)
    graph = tmp_path / "g.txt"
    workloads.write_edgelist(graph, n, edges)
    assert main(["compute", "--graph", str(graph), "--out", str(tmp_path / "c.csv"),
                 "--json", str(tmp_path / "c.json")]) == 0
    ref = oracle.graph_ref(n, edges, oracle.grid_values(99))
    text = (tmp_path / "c.csv").read_text()
    report = json.loads((tmp_path / "c.json").read_text())
    assert oracle.check_compute(ref, text, report, str(graph)) == []

    wrong_dc = text.replace(",0.0101", ",0.0102", 1)
    assert wrong_dc != text
    assert oracle.check_compute(ref, wrong_dc, report, str(graph))
    report["maximizers"]["by_decay"]["0.5"] = [0]
    assert oracle.check_compute(ref, text, report, str(graph))


def test_record_check_catches_a_wrong_rank(tmp_path):
    from decaycent.cli import main
    from decaycent.generation import TrialSeed, sample_connected_gnp

    assert main(["simulate", "--n", "20", "--p", "0.3", "--trials", "2", "--seed", "5",
                 "--out-dir", str(tmp_path)]) == 0
    _, rows = oracle.read_csv(tmp_path / "records.csv")
    grid = oracle.grid_values(99)
    g, rejects = sample_connected_gnp(20, 0.3, TrialSeed(5, 1))
    want = oracle.record_rows(oracle.graph_ref(20, g.edges, grid), 1, rejects)
    got = [r for r in rows if r["trial"] == "1"]
    assert all(oracle.rows_match(a, b, oracle.RECORD_FLOATS) for a, b in zip(got, want))
    got[40]["rank_rule"] = str(int(got[40]["rank_rule"]) + 1)
    assert not oracle.rows_match(got[40], want[40], oracle.RECORD_FLOATS)
