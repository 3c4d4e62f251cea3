"""Seeded sampling of connected Erdős–Rényi graphs by rejection.

Every trial owns its random stream: stream state is a pure function of
``(master_seed, trial_index, batch_index)``, so any worker layout replays
the identical graph sequence.  Rejection sampling preserves the exact
G(n, p)-conditioned-on-connected law; alternatives such as patching in
bridge edges would distort it.

Per attempt the edge count is drawn first (``Binomial(n*(n-1)/2, p)``) and
the edge set is then a uniform subset of that size, which is exactly the
independent per-pair inclusion law.  Counts below the spanning-tree minimum
``n - 1`` are rejected without materializing a graph, which is what makes
very sparse settings (where tens of thousands of rejections per accepted
graph are normal) affordable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import count as _count

import numpy as np

from .graph import Graph, graph_from_pair_arrays

#: Attempt counts are drawn from the trial stream in blocks of this size;
#: it is part of the deterministic stream layout and must not change
#: between runs that are expected to compare equal.
BATCH_SIZE = 2048

DEFAULT_MAX_REJECTS = 100_000


class RejectionLimitError(RuntimeError):
    """Raised when the connected sampler exceeds its rejection budget
    (the link probability is too small for the requested size)."""

    def __init__(self, n: int, p: float, rejects: int):
        super().__init__(
            f"no connected G({n}, {p}) sample within {rejects} rejections"
        )
        self.n = n
        self.p = p
        self.rejects = rejects


@dataclass(frozen=True)
class TrialSeed:
    """Derivation point for one trial's random streams.

    Streams derive from ``(master_seed, trial_index)`` by seed-sequence
    hashing, never by splitting a shared sequential stream, so trials can
    run in any order on any number of workers.
    """

    master_seed: int
    trial_index: int

    def __post_init__(self) -> None:
        if self.master_seed < 0:
            raise ValueError("master seed must be nonnegative")
        if self.trial_index < 0:
            raise ValueError("trial index must be nonnegative")

    def stream(self, batch_index: int = 0) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(
                entropy=self.master_seed,
                spawn_key=(self.trial_index, batch_index),
            )
        )


@lru_cache(maxsize=32)
def _pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(n, k=1)


def validate_np(n: int, p: float) -> None:
    """Reject a node count or link probability that G(n, p) sampling
    cannot use."""
    if n < 2:
        raise ValueError(f"need at least two nodes, got {n}")
    if not (0.0 < p <= 1.0):
        raise ValueError(f"link probability must lie in (0, 1], got {p!r}")


def pairs_connected(n: int, us: np.ndarray, vs: np.ndarray) -> bool:
    """Whether the edges ``(us[k], vs[k])`` connect all ``n`` nodes.

    A sweep from node 0: each round marks the ``vs`` ends of edges whose
    ``us`` end is reached, then the ``us`` ends of edges whose ``vs`` end
    is reached.  A round that marks nothing new leaves the reached set
    closed under the edges, so it is node 0's component.
    """
    if len(us) < n - 1:
        return False
    # cheap kill: any isolated node rules connectivity out
    touched = np.zeros(n, dtype=bool)
    touched[us] = True
    touched[vs] = True
    if not touched.all():
        return False
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    count = 1
    while count < n:
        reached[vs[reached[us]]] = True
        reached[us[reached[vs]]] = True
        grown = int(np.count_nonzero(reached))
        if grown == count:
            return False
        count = grown
    return True


def _draw_edges(
    rng: np.random.Generator, n: int, k: int
) -> tuple[np.ndarray, np.ndarray]:
    iu, ju = _pair_index(n)
    sel = rng.choice(len(iu), size=k, replace=False)
    return iu[sel], ju[sel]


def sample_connected_gnp(
    n: int,
    p: float,
    seed: TrialSeed,
    max_rejects: int = DEFAULT_MAX_REJECTS,
) -> tuple[Graph, int]:
    """First connected G(n, p) sample from the trial's successive streams.

    Returns ``(graph, rejects)``.  Raises :class:`RejectionLimitError` once
    more than ``max_rejects`` attempts have been discarded; whether a given
    trial succeeds is itself deterministic in ``(seed, max_rejects)``.
    """
    validate_np(n, p)
    m_all = n * (n - 1) // 2
    min_edges = n - 1
    rejects = 0
    for batch_index in _count():
        rng = seed.stream(batch_index)
        counts = rng.binomial(m_all, p, size=BATCH_SIZE)
        for k in counts.tolist():
            if k >= min_edges:
                us, vs = _draw_edges(rng, n, k)
                if pairs_connected(n, us, vs):
                    return graph_from_pair_arrays(n, us, vs), rejects
            rejects += 1
            if rejects > max_rejects:
                raise RejectionLimitError(n, p, rejects)
