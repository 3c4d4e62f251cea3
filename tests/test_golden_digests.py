"""Pinned sha256 digests of the result files.

Refactors of the evaluation path must leave these bytes unchanged.  A
deliberate change of output (for example a new random-stream layout) re-pins
the digests here and says why in ``CHANGES.md``.

Report digests drop the ``version`` field (it carries the git description);
the graph files are written into the test's working directory and named by
a relative path, so the config echo is the same on every machine.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from decaycent.graph import build_graph
from decaycent.cli import main
from decaycent.io import write_edgelist

from conftest import CROSSING_EDGES, CROSSING_PAIR

SIMULATE = {
    # sparse: below the connectivity threshold ln(n)/n, so rejections show
    "sparse": ["--n", "24", "--p", "0.15", "--trials", "6", "--seed", "11"],
    # tie-heavy: K_n, every node in one profile group
    "ties": ["--n", "10", "--p", "1", "--trials", "3", "--seed", "2"],
}

PINNED_SIMULATE = {
    "sparse": {
        "records.csv": "32609bcdf6b74dceb8311b9c24198889e57e1f2b372fa6e311e05730d999a955",
        "aggregate.csv": "c26562e5f648c2a18b45d7ff772e2705d4ac33f85de9134e7f137ffc3f9fe519",
    },
    "ties": {
        "records.csv": "7e4922ca207d3f732efc337d31795bca403bfcca03d0e8ad8f2dc87abd9baac8",
        "aggregate.csv": "9641510e2c19bbc57346040ba703885b44efb18a748ca6ddb1e843f6aff3d496",
    },
}

GRAPHS = {
    "p40": (40, [(i, i + 1) for i in range(39)]),
    "crossing": (8, CROSSING_EDGES),
}

PINNED_COMPUTE = {
    "p40": {
        "csv": "751dafde4d66df15b6b0f173f58982632a3097fc036692110cfd5fb9851b4cfc",
        "json": "d8d6183bc39e2b66f9902e8f09470e35a53a4f4f0d5372918735ea44ddbde3a8",
        "json_full": "0b67f8fa976627430c332830581e6791a1c60a952523b3fbec4982e4e65347bb",
    },
    "crossing": {
        "csv": "5df3d7252cc25c9309e89aeb003cea4625fdde9c01d032c9800971d193e79937",
        "json": "e55a91241e39cb973a356a1aa12b2f8c4ecffcddcb4ce618c5c9afa15b73b89b",
        "json_full": "40741ae2f63df81378b1b009bb3ab9536a12bae16ec588054da74e139fc16492",
    },
}

COMPARE_PAIRS = {"p40": (0, 20), "crossing": CROSSING_PAIR}

PINNED_COMPARE = {
    "p40": "24c2651a7857f48dcfb9174c13ad8efcae10c940f61a71efef0706d847779b67",
    "crossing": "c2bfecbeef7704e96ec56db349fe02996d709d9b6036a43e7edfccb1fc83a194",
}


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_digest(path) -> str:
    """Digest of a JSON report without its ``version`` field."""
    report = json.loads(path.read_text())
    del report["version"]
    return sha256_bytes(json.dumps(report, indent=2, sort_keys=True).encode())


@pytest.fixture
def graph_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, (n, edges) in GRAPHS.items():
        write_edgelist(build_graph(n, edges), f"{name}.txt")
    return tmp_path


@pytest.mark.parametrize("name", sorted(SIMULATE))
def test_simulate_digests(name, tmp_path, capsys):
    out = tmp_path / name
    assert main(["simulate", *SIMULATE[name], "--out-dir", str(out)]) == 0
    got = {f: sha256_bytes((out / f).read_bytes()) for f in PINNED_SIMULATE[name]}
    assert got == PINNED_SIMULATE[name]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_compute_digests(name, graph_files):
    graph = f"{name}.txt"
    assert main(["compute", "--graph", graph, "--out", "t.csv", "--json", "r.json"]) == 0
    assert main(["compute", "--graph", graph, "--out", "t.csv", "--json", "full.json",
                 "--full"]) == 0
    got = {
        "csv": sha256_bytes((graph_files / "t.csv").read_bytes()),
        "json": report_digest(graph_files / "r.json"),
        "json_full": report_digest(graph_files / "full.json"),
    }
    assert got == PINNED_COMPUTE[name]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_compare_digests(name, graph_files):
    i, j = COMPARE_PAIRS[name]
    assert main(["compare", "--graph", f"{name}.txt", "-i", str(i), "-j", str(j),
                 "--out", "c.json"]) == 0
    assert report_digest(graph_files / "c.json") == PINNED_COMPARE[name]
