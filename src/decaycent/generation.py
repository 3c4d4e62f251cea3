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

Stream layout.  Batch ``b`` of a trial is the stream ``seed.stream(b)``: it
first draws :data:`BATCH_SIZE` edge counts, then, for each count ``k`` of
at least ``n - 1`` in order, the draws of numpy's
``Generator.choice(pop, k, replace=False)`` over the ``pop = n*(n-1)/2``
pairs.  That call has two branches:

* Floyd's algorithm (``pop <= 10000`` or ``k <= pop // 50``): ``k`` bounded
  draws ``val_t`` on ``[0, j_t]`` for ``j_t = pop-k+t``, where the pair
  chosen at step ``t`` is ``val_t``, or ``j_t`` when ``val_t`` was chosen
  before; then a shuffle of the ``k`` chosen pairs, drawing on ``[0, i]``
  for ``i = k-1 .. 1``.
* A partial tail shuffle of all ``pop`` indices otherwise.

Floyd attempts are replayed in chunks: one ``rng.integers(0, highs)``
call makes the bounded draws of many consecutive attempts.  numpy's
per-element bounded draw consumes the stream exactly as ``choice`` does;
``tests/test_generation.py`` checks this, set for set and draw for draw,
on the installed numpy.  The shuffle's draws are consumed but not applied,
because the order of an edge set does not change the graph.  A chunk may
draw past the attempt that is accepted, or past the rejection budget.
That is still exact: each batch's stream is thrown away once its batch
returns or runs out, so nothing reads those extra draws.  Tail-shuffle
attempts keep one ``choice`` call each.

Full draws.  An attempt whose count is ``pop`` chooses every pair,
whatever its draws are, and K_n is connected.  So the first such attempt
of a batch is accepted, if no earlier one is, without drawing anything:
nothing reads a batch's stream after its accepted attempt.  Its graph is
written directly (:func:`_complete_graph`), with no key sort.
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

#: Upper bound on the bounded draws one chunk of Floyd attempts makes in a
#: single call; it caps the chunk's arrays, not the stream layout.
CHUNK_DRAWS = 1 << 13


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


def _floyd_branch(pop: int, ks: np.ndarray) -> np.ndarray:
    """Whether ``choice(pop, k, replace=False)`` takes Floyd's branch, per
    ``k`` of ``ks`` (numpy's own rule)."""
    return (pop <= 10000) | (ks <= pop // 50)


def _floyd_vals(rng: np.random.Generator, pop: int, ks: np.ndarray) -> np.ndarray:
    """Floyd's vals of consecutive Floyd-branch ``choice(pop, k,
    replace=False)`` calls, one per ``k`` of ``ks``, concatenated.

    It makes every bounded draw those calls make, in one
    ``rng.integers(0, highs)`` call, so ``rng`` ends where they leave it.
    Per call, step ``t`` of its ``2k - 1`` draws has ``highs`` rising from
    ``pop - k + 1`` to ``pop`` while ``t < k`` (Floyd's draws on ``[0,
    j]``), then falling from ``k`` to 2 (the shuffle's draws on ``[0,
    i]``); a one-pair call does not shuffle.
    """
    lens = 2 * ks - 1
    ends = np.cumsum(lens)
    t = np.arange(ends[-1]) - np.repeat(ends - lens, lens)
    k = np.repeat(ks, lens)
    floyd = t < k
    return rng.integers(0, np.where(floyd, pop - k + 1 + t, 2 * k - t))[floyd]


def _floyd_set(pop: int, vals: np.ndarray) -> np.ndarray:
    """The indices Floyd's algorithm chooses from its draws ``vals``.

    Step ``t`` takes ``val_t``, or ``j_t = pop-k+t`` when ``val_t`` is in
    the set already; ``j_t`` is always new.  The set before step ``t`` is
    every earlier val plus the earlier ``j_s`` that were taken, so
    ``val_t`` collides when it repeats an earlier val, or when it equals an
    earlier ``j_s`` whose step collided.  That second rule only looks back,
    so growing the collisions from the repeats until nothing changes
    reaches the exact set.
    """
    k = len(vals)
    lo = pop - k
    ts = np.arange(k)
    # sorting val * k + t orders by val, then step: a repeat follows its
    # first step
    val_of, step_of = np.divmod(np.sort(vals * k + ts), k)
    collided = np.zeros(k, dtype=bool)
    collided[step_of[1:][val_of[1:] == val_of[:-1]]] = True
    back = vals - lo
    steps = np.flatnonzero(~collided & (back >= 0) & (back < ts))
    while steps.size:
        hit = collided[back[steps]]
        if not hit.any():
            break
        collided[steps[hit]] = True
        steps = steps[~hit]
    return np.where(collided, lo + ts, vals)


def _complete_graph(n: int) -> Graph:
    """K_n, its CSR written in order: row ``i`` lists every node but ``i``.
    The same arrays as :func:`graph_from_pair_arrays` gives for every pair,
    with no key sort, built by one broadcast."""
    cols = np.arange(n - 1)
    indices = (cols + (cols >= np.arange(n)[:, None])).ravel()
    return Graph(n=n, indptr=np.arange(n + 1) * (n - 1), indices=indices)


def _first_connected(
    rng: np.random.Generator, n: int, counts: np.ndarray
) -> tuple[int, tuple[np.ndarray, np.ndarray] | None] | None:
    """The first attempt of ``counts`` whose edge draw is connected, as
    ``(position, (us, vs))``, or ``None``.  Draws from ``rng`` what the
    attempts' ``choice`` calls would, in order, and possibly more.

    The attempts run up to ``end``, the first whose count is every pair.
    If none of them is connected, attempt ``end`` is accepted without
    drawing, as ``(position, None)``: its edge set is every pair.

    A tail-shuffle attempt is one ``choice`` call.  Runs of Floyd-branch
    attempts go in chunks whose size doubles from one attempt, cut at the
    next tail-shuffle attempt and at :data:`CHUNK_DRAWS` draws (a chunk
    always holds at least one attempt).  A chunk's isolated-vertex kill is
    vectorised: an attempt's set holds all its vals and lies within its
    vals plus its ``j``, the last ``k`` pairs, which touch every node from
    ``iu[pop - k]`` on.  So an attempt whose vals and ``j`` leave a node
    untouched is rejected exactly.  The others are rebuilt and swept in
    order.
    """
    iu, ju = _pair_index(n)
    pop = len(iu)
    drawn = np.flatnonzero(counts >= n - 1)
    full = np.flatnonzero(counts[drawn] == pop)
    end = int(full[0]) if len(full) else len(drawn)
    ks = counts[drawn[:end]]
    floyd = _floyd_branch(pop, ks)
    # each attempt's next tail-shuffle attempt, or the end
    tails = np.flatnonzero(~floyd)
    next_tail = np.append(tails, len(ks))
    nodes = np.arange(n)
    i, size = 0, 1
    while i < len(ks):
        if not floyd[i]:
            us, vs = _draw_edges(rng, n, int(ks[i]))
            if pairs_connected(n, us, vs):
                return int(drawn[i]), (us, vs)
            i += 1
            continue
        stop = min(i + size, int(next_tail[np.searchsorted(tails, i)]))
        drawn_to = np.cumsum(2 * ks[i:stop] - 1)
        stop = i + max(1, int(np.searchsorted(drawn_to, CHUNK_DRAWS, "right")))
        size *= 2
        run = ks[i:stop]
        vals = _floyd_vals(rng, pop, run)
        touched = nodes >= iu[pop - run][:, None]
        flat = touched.ravel()
        base = np.repeat(np.arange(0, len(run) * n, n), run)
        flat[base + iu[vals]] = True
        flat[base + ju[vals]] = True
        offs = np.cumsum(run) - run
        for a in np.flatnonzero(touched.all(axis=1)).tolist():
            sel = _floyd_set(pop, vals[offs[a]:offs[a] + run[a]])
            us, vs = iu[sel], ju[sel]
            if pairs_connected(n, us, vs):
                return int(drawn[i + a]), (us, vs)
        i = stop
    return (int(drawn[end]), None) if end < len(drawn) else None


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
    Only the first ``max_rejects + 1`` attempts are looked at, so the
    rejection point is the same as with one attempt at a time.
    """
    validate_np(n, p)
    m_all = n * (n - 1) // 2
    budget = max(max_rejects, 0) + 1
    tried = 0
    for batch_index in _count():
        rng = seed.stream(batch_index)
        counts = rng.binomial(m_all, p, size=BATCH_SIZE)
        live = min(BATCH_SIZE, budget - tried)
        hit = _first_connected(rng, n, counts[:live])
        if hit is not None:
            pos, edges = hit
            g = _complete_graph(n) if edges is None else graph_from_pair_arrays(n, *edges)
            return g, tried + pos
        tried += live
        if tried == budget:
            raise RejectionLimitError(n, p, tried)
