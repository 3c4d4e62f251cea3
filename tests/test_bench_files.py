"""Checked-in ``BENCH_*.json`` benchmark records carry what makes them
comparable: the machine they ran on, both sides' medians and quartiles, and
the claimed metric with its win count."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def machine_keys() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("compare", ROOT / "perfbench" / "compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MACHINE_KEYS


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
