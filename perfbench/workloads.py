"""Workload definitions and the inputs the benchmark generates for them.

Why each workload exists is recorded next to it in ``BENCHMARK.json``.

A ``simulate`` workload repeats ``decaycent simulate`` batches of a fixed
trial count; batch ``b`` of a run with seed ``s`` uses master seed
``s * 1000 + b``, so every batch samples new graphs.  The ``report``
workload repeats a cycle of ``compute --out --json`` and ``compare`` on two
fixed graphs: a connected G(n, p) sampled here from the seed, and a path.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from oracle import profiles_of


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "simulate" or "report"
    n: int
    p: float
    trials: int = 0  # trials per simulate batch
    path_n: int = 0  # report: nodes of the path graph


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sim-sparse", "simulate", 50, 0.04, trials=50),
        Workload("sim-dense", "simulate", 200, 0.03, trials=20),
        Workload("sim-ties", "simulate", 200, 1.0, trials=5),
        Workload("report", "report", 400, 0.02, path_n=200),
    )
}

#: Tiny variants for the smoke run: same code paths, seconds in total.
SMOKE = {
    "sim-sparse": Workload("sim-sparse", "simulate", 20, 0.2, trials=3),
    "sim-dense": Workload("sim-dense", "simulate", 40, 0.15, trials=3),
    "sim-ties": Workload("sim-ties", "simulate", 20, 1.0, trials=2),
    "report": Workload("report", "report", 30, 0.2, path_n=20),
}

#: Config of the untimed workers=1 vs workers=2 determinism check.
DETERMINISM = {"n": 200, "p": 0.03, "trials": 6}
DETERMINISM_SMOKE = {"n": 30, "p": 0.3, "trials": 4}


def get(name: str, smoke: bool = False) -> Workload:
    return (SMOKE if smoke else WORKLOADS)[name]


def batch_seed(seed: int, batch: int) -> int:
    return seed * 1000 + batch


def golden_key(wl: Workload, seed_b: int) -> str:
    """Key of a simulate batch's pinned digests in ``golden.json``."""
    return f"{wl.n}:{wl.p}:{wl.trials}:{seed_b}"


def connected_gnp_edges(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    """A connected G(n, p) sample by rejection, from the benchmark's own
    stream (independent of the program's sampler)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(7,)))
    iu, ju = np.triu_indices(n, k=1)
    while True:
        keep = rng.random(len(iu)) < p
        edges = list(zip(iu[keep].tolist(), ju[keep].tolist()))
        try:
            profiles_of(n, edges)
        except ValueError:
            continue
        return edges


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def write_edgelist(path: Path, n: int, edges) -> None:
    lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    path.write_text("\n".join(lines) + "\n")
