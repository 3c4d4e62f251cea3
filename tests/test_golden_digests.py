"""Pinned sha256 digests of the result files.

Refactors of the evaluation path must leave these bytes unchanged.  A
deliberate change of output (for example a new random-stream layout) re-pins
the digests here and says why in ``CHANGES.md``.

Every file is hashed as written, so the JSON layout (indentation, key
order, float spelling) is pinned byte for byte, not only the parsed values.
The ``version`` field of a report carries the git description, so the tests
patch :func:`decaycent.io.version_string` to a fixed string.  The graph files
are written into the test's working directory and named by a relative path,
so the config echo is the same on every machine.
"""

from __future__ import annotations

import hashlib

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
        "summary.json": "961f7ffdd5b58648d3faad615b4e80e90947da7a89e905047855e8c05e8bb035",
    },
    "ties": {
        "records.csv": "7e4922ca207d3f732efc337d31795bca403bfcca03d0e8ad8f2dc87abd9baac8",
        "aggregate.csv": "9641510e2c19bbc57346040ba703885b44efb18a748ca6ddb1e843f6aff3d496",
        "summary.json": "effee6019174398631cc0d1f91871b6f7d1d050178b1f9df565e4df437560aa1",
    },
}

GRAPHS = {
    "p40": (40, [(i, i + 1) for i in range(39)]),
    "crossing": (8, CROSSING_EDGES),
    # the path of the benchmark's report workload
    "p200": (200, [(i, i + 1) for i in range(199)]),
}

PINNED_COMPUTE = {
    "p40": {
        "csv": "751dafde4d66df15b6b0f173f58982632a3097fc036692110cfd5fb9851b4cfc",
        "json": "8ace4226922d6e8bdf744b3b6df63349651ac597bd8e1ee66e46eb44fea6dff3",
        "json_full": "70733150e7ecd9cfa4e487cb576153da2314ded5e9b0efd2bddcccceaf100155",
    },
    "crossing": {
        "csv": "5df3d7252cc25c9309e89aeb003cea4625fdde9c01d032c9800971d193e79937",
        "json": "6cdd00dc12df09fca06ba28e94dd6e0f7dba3b0dff692635301be88976a2a60f",
        "json_full": "fb8bc6fd3cf3d2aa0fb9d1eae152ca9e31a9ed464c2fc7ee58fdfb40b02e805c",
    },
    "p200": {
        "csv": "fdec08f2f60defb7acb041ac11b03d4ab743835d45c43ce6e41175d2e726721d",
        "json": "03a435963d7113ba960950ce80d4bf1170378f826173977d07bff49c2d8d78dc",
        "json_full": "cff45ce5da4886e565553cb70f0c263cb6e08300116b58874a20a73f08b9e3f0",
    },
}

COMPARE_PAIRS = {"p40": (0, 20), "crossing": CROSSING_PAIR, "p200": (1, 99)}

PINNED_COMPARE = {
    "p40": "952bb56565695a58fe5deab29dcf4d41dc92415ceef10659d7be9d23cac25900",
    "crossing": "ae558f4c4d2c4ebd57a79851c2fcba38cd48cb402f554083f13e1031ac9c8ea8",
    "p200": "536a91d586195b2b9a98e3f3d30faab0a935465412dc41691b3530f03547639a",
}

PINNED_VERSION = "0.0.0+pinned"


def file_digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(autouse=True)
def fixed_version(monkeypatch):
    monkeypatch.setattr("decaycent.io.version_string", lambda: PINNED_VERSION)


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
    got = {f: file_digest(out / f) for f in PINNED_SIMULATE[name]}
    assert got == PINNED_SIMULATE[name]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_compute_digests(name, graph_files):
    graph = f"{name}.txt"
    assert main(["compute", "--graph", graph, "--out", "t.csv", "--json", "r.json"]) == 0
    assert main(["compute", "--graph", graph, "--out", "t.csv", "--json", "full.json",
                 "--full"]) == 0
    got = {
        "csv": file_digest(graph_files / "t.csv"),
        "json": file_digest(graph_files / "r.json"),
        "json_full": file_digest(graph_files / "full.json"),
    }
    assert got == PINNED_COMPUTE[name]


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_compare_digests(name, graph_files):
    i, j = COMPARE_PAIRS[name]
    assert main(["compare", "--graph", f"{name}.txt", "-i", str(i), "-j", str(j),
                 "--out", "c.json"]) == 0
    assert file_digest(graph_files / "c.json") == PINNED_COMPARE[name]
