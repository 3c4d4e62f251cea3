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

Floyd attempts are replayed in chunks: :func:`_floyd_vals` makes the
bounded draws of many consecutive attempts at once, from PCG64's raw
64-bit words, without calling numpy's bounded draw.  So the replay
depends on three details of numpy's, which ``tests/test_generation.py``
checks, set for set and draw for draw, on the installed numpy: PCG64 cuts
a word into two 32-bit values, low half first, and buffers the high half
in its state (``has_uint32``, ``uinteger``) for the next 32-bit draw; a
draw on ``[0, b)`` is Lemire's multiply-shift, redrawn while the low half
of ``x * b`` is below ``(2**32 - b) % b``; and every bound fits in 32
bits, which holds while ``pop <= 2**32 - 1``.  Every replayed call has
``k < pop`` (a full call is never drawn; see "Full draws"), so every
bound is at least 2.  The shuffle's draws are consumed but not applied,
because the order of an edge set does not change the graph.  A chunk may
draw past the attempt that is accepted, or past the rejection budget.
That is still exact: each batch's stream is thrown away once its batch
returns or runs out, so nothing reads those extra draws.  So chunk sizes
are free: a stream's first chunk holds about the expected number of
attempts per connected graph (:func:`_first_chunk`), one attempt where
few are expected, and each later chunk twice as many, all cut at
:data:`CHUNK_DRAWS` draws.  Tail-shuffle attempts keep one ``choice``
call each.

Full draws.  An attempt whose count is ``pop`` chooses every pair,
whatever its draws are, and K_n is connected.  So the first such attempt
of a batch is accepted, if no earlier one is, without drawing anything:
nothing reads a batch's stream after its accepted attempt.  Its graph is
written directly (:func:`_complete_graph`), with no key sort.
"""

from __future__ import annotations

import math
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

#: Cap on the bounded draws a chunk of several Floyd attempts makes in one
#: call: a chunk stops before the attempt that would take it past this.  A
#: single attempt that draws more is a chunk of its own (G(141, .5) makes
#: up to 9,869 draws per attempt).  It caps the chunk's arrays, not the
#: stream layout.
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
    cannot use.  :func:`_floyd_vals` replays bounded draws on uint32
    bounds, so the pair count ``n (n - 1) / 2`` must stay below ``2**32``."""
    if n < 2:
        raise ValueError(f"need at least two nodes, got {n}")
    if n * (n - 1) // 2 > 2**32 - 1:
        raise ValueError(
            f"at most 92682 nodes (n (n - 1) / 2 pairs up to 2**32 - 1), got {n}"
        )
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


def _bounds(pop: int, k: int) -> np.ndarray:
    """The bounds ``b`` of the ``2k - 1`` draws on ``[0, b)`` that one
    Floyd-branch ``choice(pop, k, replace=False)`` call makes, as uint32:
    rising from ``pop - k + 1`` to ``pop`` (Floyd's draws on ``[0, j]``),
    then falling from ``k`` to 2 (the shuffle's draws on ``[0, i]``); a
    one-pair call does not shuffle.  Read-only, as it may be cached."""
    row = np.concatenate([np.arange(pop - k + 1, pop + 1),
                          np.arange(k, 1, -1)]).astype(np.uint32)
    row.flags.writeable = False
    return row


#: :func:`_bounds` of the calls that can share a chunk (``2k - 1 <=
#: CHUNK_DRAWS``), built once: at most 256 rows of at most ``CHUNK_DRAWS``
#: uint32 bounds, 8 MiB.  A larger call is a chunk of its own, and its row
#: is built per call.
_cached_bounds = lru_cache(maxsize=256)(_bounds)


def _lemire_draws(rng: np.random.Generator, bounds: np.ndarray) -> np.ndarray:
    """numpy's bounded draws on ``[0, b)``, one per ``b`` of ``bounds``
    (uint32, each at least 2), as int64; ``rng`` ends where those draws
    leave it.

    numpy draws on ``[0, b)`` by Lemire's multiply-shift (D. Lemire, "Fast
    Random Integer Generation in an Interval", ACM TOMACS 29(1), 2019): of
    the 64-bit product ``x * b`` of the next 32-bit value ``x`` and ``b``,
    the high half is the draw, unless the low half is below ``(2**32 - b)
    % b``; then ``x`` is discarded and the draw is made again with the next
    value.  PCG64 cuts each 64-bit word into two 32-bit values, low half
    first, and holds the high half in its state (``has_uint32``,
    ``uinteger``) for the next one.  Here the words come from
    ``random_raw``: a held half is used first, and the products are
    vectorised, each rejection shifting the rest of the values by one.
    Then the state is written back as numpy's draws leave it: a high half
    left over is held, and ``uinteger`` is the high half of the last word
    cut, held or not.
    """
    bitgen = rng.bit_generator
    state = bitgen.state
    held = state["has_uint32"]
    m = len(bounds)

    def values(count: int) -> np.ndarray:
        # the next 32-bit values, low half of each word first on any byte order
        return bitgen.random_raw((count + 1) // 2).astype("<u8", copy=False).view("<u4")

    xs = values(m - held)
    if held:
        xs = np.concatenate([np.array([state["uinteger"]], np.uint32), xs])
    out = np.empty(m, np.uint64)
    done = used = 0
    while done < m:
        need = m - done
        if used + need > len(xs):
            xs = np.concatenate([xs, values(used + need - len(xs))])
        prod = np.multiply(xs[used:used + need], bounds[done:], dtype=np.uint64)
        low = prod.astype(np.uint32)
        stop = need
        near = low < bounds[done:]  # every rejection is among these
        if near.any():
            at = np.flatnonzero(near)
            b = bounds[done:][at].astype(np.uint64)
            rejected = at[low[at] < (np.uint64(1 << 32) - b) % b]
            if rejected.size:
                stop = int(rejected[0])
                used += 1
        np.right_shift(prod[:stop], np.uint64(32), out=out[done:done + stop])
        done += stop
        used += stop
    if len(xs):  # else nothing was drawn or held
        state = bitgen.state
        state["has_uint32"] = int(used < len(xs))
        state["uinteger"] = int(xs[-1])
        bitgen.state = state
    return out.view(np.int64)  # every draw is below 2**32


def _floyd_vals(rng: np.random.Generator, pop: int, ks: np.ndarray) -> np.ndarray:
    """Floyd's vals of consecutive Floyd-branch ``choice(pop, k,
    replace=False)`` calls, one per ``k`` of ``ks``, concatenated.

    It makes every bounded draw those calls make, with the bounds of
    :func:`_bounds`, by :func:`_lemire_draws`, so ``rng`` ends where they
    leave it.  Every ``k`` is below ``pop`` (:func:`_first_connected`
    stops its runs before the first full count), so every bound is at
    least 2.  Valid while ``pop <= 2**32 - 1``, that is ``n <= 92682``
    nodes, the ceiling :func:`validate_np` enforces.
    """
    bounds = np.concatenate([
        _cached_bounds(pop, k) if 2 * k <= CHUNK_DRAWS else _bounds(pop, k)
        for k in ks.tolist()
    ])
    # each call's k Floyd draws, then its k - 1 shuffle draws
    steps = (ks[:, None] - [0, 1]).ravel()
    floyd = np.repeat(np.arange(len(steps)) % 2 == 0, steps)
    return _lemire_draws(rng, bounds)[floyd]


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


def _first_chunk(n: int, p: float) -> int:
    """Attempts in a stream's first chunk of Floyd attempts: the expected
    attempts per connected G(n, p) graph, rounded down, and at least 1.

    The estimate is ``exp(n (1 - p)**(n - 1))``, which is 1 / P(no
    isolated vertex) in the Poisson approximation.  A connected graph has
    no isolated vertex, so 1 / P(no isolated vertex) is at most 1 /
    P(connected), the expected attempts; the approximation can pass it
    only at a few nodes (G(2, .3): 4.06 against 3.33).  A chunk that is
    too large only draws past the accepted attempt, which changes no
    result.  A stream holds at most :data:`BATCH_SIZE` attempts, so the
    exponent is capped at ``log(BATCH_SIZE)``, also because ``math.exp``
    overflows above 709.
    """
    return max(1, int(math.exp(min(n * (1.0 - p) ** (n - 1), math.log(BATCH_SIZE)))))


def _first_connected(
    rng: np.random.Generator, n: int, counts: np.ndarray, first: int
) -> tuple[int, tuple[np.ndarray, np.ndarray] | None] | None:
    """The first attempt of ``counts`` whose edge draw is connected, as
    ``(position, (us, vs))``, or ``None``.  Draws from ``rng`` what the
    attempts' ``choice`` calls would, in order, and possibly more.

    The attempts run up to ``end``, the first whose count is every pair.
    If none of them is connected, attempt ``end`` is accepted without
    drawing, as ``(position, None)``: its edge set is every pair.

    A tail-shuffle attempt is one ``choice`` call.  Runs of Floyd-branch
    attempts go in chunks: the first holds ``first`` attempts
    (:func:`_first_chunk`) and each later one twice as many as the one
    before.  Every chunk is cut at the next tail-shuffle attempt and at
    :data:`CHUNK_DRAWS` draws (a chunk always holds at least one
    attempt).  Chunk sizes do not change the draws, only how many are
    made at once.  A chunk's isolated-vertex kill is vectorised: an
    attempt's set holds all its vals and lies within its vals plus its
    ``j``, the last ``k`` pairs, which touch every node from ``iu[pop -
    k]`` on.  So an attempt whose vals and ``j`` leave a node untouched is
    rejected exactly.  The others are rebuilt and swept in order.
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
    # draws made through each attempt: strictly rising, as every attempt draws
    drawn_to = np.cumsum(2 * ks - 1)
    nodes = np.arange(n)
    i, size = 0, first
    while i < len(ks):
        if not floyd[i]:
            us, vs = _draw_edges(rng, n, int(ks[i]))
            if pairs_connected(n, us, vs):
                return int(drawn[i]), (us, vs)
            i += 1
            continue
        cap = (int(drawn_to[i - 1]) if i else 0) + CHUNK_DRAWS
        stop = min(i + size, int(next_tail[np.searchsorted(tails, i)]),
                   int(np.searchsorted(drawn_to, cap, "right")))
        stop = max(i + 1, stop)
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
    first = _first_chunk(n, p)
    tried = 0
    for batch_index in _count():
        rng = seed.stream(batch_index)
        counts = rng.binomial(m_all, p, size=BATCH_SIZE)
        live = min(BATCH_SIZE, budget - tried)
        hit = _first_connected(rng, n, counts[:live], first)
        if hit is not None:
            pos, edges = hit
            g = _complete_graph(n) if edges is None else graph_from_pair_arrays(n, *edges)
            return g, tried + pos
        tried += live
        if tried == budget:
            raise RejectionLimitError(n, p, tried)
