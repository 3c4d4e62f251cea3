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
import json
from pathlib import Path

import pytest

from decaycent.graph import build_graph
from decaycent.cli import main
from decaycent.io import write_edgelist
from decaycent.simulation import SimulationConfig, run_experiment

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
        "summary.json": "8e03155b194ba6a660387810e8b1b3b2d548fc18592317fc0adf4dac57b790fe",
    },
    "ties": {
        "records.csv": "7e4922ca207d3f732efc337d31795bca403bfcca03d0e8ad8f2dc87abd9baac8",
        "aggregate.csv": "9641510e2c19bbc57346040ba703885b44efb18a748ca6ddb1e843f6aff3d496",
        "summary.json": "d4367d1ab6716de7d4bb7937aa2c9aa53c48ad7643b4bd3fc860794081fd8917",
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
        "json": "8a8729e3a9fd141b14c9255a1f20812ab3ed25aa64a75aa44c5f6379529aa545",
        "json_full": "c803d757394e06fe5bebdb6eddc629fee4d3327ac331264544e0ddd54ed08aab",
    },
    "crossing": {
        "csv": "5df3d7252cc25c9309e89aeb003cea4625fdde9c01d032c9800971d193e79937",
        "json": "ffff76b95cc6e8cac6020fcc0746a25c7cbfff0354031d9b0a2d8b9054a22cb1",
        "json_full": "5faedbd94e6a19278f7f59c0dbdd5e38c884f65ad4681814c09aa14b5e0d1691",
    },
    "p200": {
        "csv": "fdec08f2f60defb7acb041ac11b03d4ab743835d45c43ce6e41175d2e726721d",
        "json": "a155175298e3f427f387a34e112ac8a685d320109232305eea7e74ac423dd1a5",
        "json_full": "e951db0af1b3ac43918ab9164073a25002aae1d6c9b2acf0d473dcdb89623fd7",
    },
}

COMPARE_PAIRS = {"p40": (0, 20), "crossing": CROSSING_PAIR, "p200": (1, 99)}

PINNED_COMPARE = {
    "p40": "adcc1242574e32d070d36573b0a8082b9a4fc65ad4cac17112e9252722ac6b8a",
    "crossing": "6d647bc21ae2127e256dacd87066774e6a60ddc2d213d63e3bd2b67bd7a19000",
    "p200": "77f1512c3b154f3c6821d4f732a1b37feb78a441629b4dab2ca680341e008eff",
}

PINNED_VERSION = "0.0.0+pinned"

#: The benchmark's pinned batches, keyed ``n:p:trials:seed`` (read, never
#: written here).  Master seeds 0 and 1000 are the first two batches of each
#: ``simulate`` workload, so its many-trial aggregates are checked by the
#: tests, not only inside a benchmark run.
BENCH_PINS = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "golden.json").read_text()
)
BENCH_REPLAY = sorted(key for key in BENCH_PINS if key.rsplit(":", 1)[1] in ("0", "1000"))


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


@pytest.mark.parametrize("key", BENCH_REPLAY)
def test_benchmark_pins_replay(key, tmp_path):
    n, p, trials, seed = key.split(":")
    run_experiment(SimulationConfig(int(n), float(p), int(trials), int(seed)), tmp_path)
    got = {name: file_digest(tmp_path / f"{name}.csv") for name in ("records", "aggregate")}
    assert got == BENCH_PINS[key]
