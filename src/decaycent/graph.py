"""Undirected simple graphs as read-only CSR arrays, and geodesic
distance profiles.

Nodes are contiguous integers ``0..n-1``; external labels belong at the
I/O boundary.  Graphs cannot be written after construction and are safe to
share across workers.  A node's distance profile is one integer row of
:func:`profile_matrix`, counted from the all-sources BFS of
:func:`distance_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

#: Levels the bitset BFS of :func:`distance_matrix` sweeps before it hands
#: the graph to scipy's Dijkstra (the measured crossover is in its
#: docstring).  It also bounds the level counts, which are kept in uint8.
LEVEL_CUTOFF = 32


class DisconnectedGraphError(ValueError):
    """Raised when an operation needs finite geodesic distances everywhere."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph as a compressed sparse row adjacency.

    Node ``i``'s neighbours are ``indices[indptr[i]:indptr[i + 1]]``,
    ascending, and each edge is stored once in each direction, so
    iteration order is deterministic.  Both arrays are set read-only here:
    writing to them raises ``ValueError``.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False

    @property
    def num_edges(self) -> int:
        return len(self.indices) // 2

    @property
    def edges(self) -> np.ndarray:
        """Each edge once as a row ``(u, v)`` with ``u < v``, sorted; a
        read-only ``(num_edges, 2)`` int array."""
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        out = np.column_stack((rows, self.indices))[rows < self.indices]
        out.flags.writeable = False
        return out


def build_graph(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Build a canonical :class:`Graph`, collapsing duplicate edges.

    Raises ``ValueError`` for a non-positive node count, an out-of-range
    endpoint, or a self-loop.
    """
    if n < 1:
        raise ValueError(f"node count must be positive, got {n}")
    seen: set[tuple[int, int]] = set()
    for edge in edges:
        u, v = edge
        u, v = int(u), int(v)
        if not (0 <= u < n) or not (0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) is not allowed")
        seen.add((u, v) if u < v else (v, u))
    pairs = np.array(list(seen), dtype=np.int64).reshape(-1, 2)
    return graph_from_pair_arrays(n, pairs[:, 0], pairs[:, 1])


def graph_from_pair_arrays(n: int, us: np.ndarray, vs: np.ndarray) -> Graph:
    """The graph of the edges ``(us[k], vs[k])``: in range, no self-loops,
    no duplicate unordered pairs.  Each edge gives the keys ``row * n + col``
    of both directions, and one sort of the keys orders the CSR."""
    us, vs = np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)
    keys = np.concatenate((us * n + vs, vs * n + us))
    keys.sort()
    rows, indices = np.divmod(keys, n)
    indptr = np.searchsorted(rows, np.arange(n + 1))
    return Graph(n=n, indptr=indptr, indices=indices)


def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs geodesic distances as a fresh ``(n, n)`` int64 array, which
    the caller may write over.

    A level-synchronous BFS from every source at once on packed bitsets
    (Then et al., "The More the Merrier", VLDB 2014).  ``ball_l[i]`` is the
    set of nodes within distance ``l`` of node ``i``, held as ``ceil(n/64)``
    little-endian ``'<u8'`` words: node ``j`` is bit ``j % 64`` of word
    ``j // 64``, so a row's bytes unpack with ``bitorder="little"`` into
    nodes ``0..n-1``.  The recurrence is

        ball_0[i] = {i},    ball_{l+1}[i] = ball_l[i] | OR_{k ~ i} ball_l[k],

    one ``take`` of the neighbours' rows and one ``bitwise_or.reduceat``
    over the CSR row starts per level.  At the first level ``D`` where every
    ball is full, ``d(i, j) = D - #{l < D : j in ball_l[i]}``; a level that
    adds no bit before that means the graph is disconnected.

    The sweep costs O(D * (n + 2m) * ceil(n/64)) word operations, far below
    n heap-based single-source runs when the diameter ``D`` is small, and
    far above them on long paths.  So a graph whose balls are not all full
    after :data:`LEVEL_CUTOFF` = 32 levels goes to scipy's unweighted
    Dijkstra.  Measured on 2 cores at n=200, one level costs about 1/70 of
    a scipy all-pairs run on the path P_200 (0.027 against 1.9 ms) and
    about 1/100 on a G(200, .03) sample.  So every diameter up to the
    cut-off is cheaper by the sweep, and a longer one pays about half a
    Dijkstra run extra for the levels it tried.

    Cross-checked against Floyd-Warshall by the test suite and by
    ``decaycent check``.
    """
    n = g.n
    if n == 1:
        return np.zeros((1, 1), dtype=np.int64)
    if g.num_edges == 0:
        raise DisconnectedGraphError("graph is disconnected (no edges)")
    dist = _bitset_bfs(g)
    return _dijkstra_distances(g) if dist is None else dist


def _bitset_bfs(g: Graph) -> np.ndarray | None:
    """The sweep of :func:`distance_matrix`, or ``None`` when it has not
    finished after :data:`LEVEL_CUTOFF` levels."""
    n = g.n
    # reduceat needs every neighbour list non-empty
    if not np.diff(g.indptr).all():
        raise DisconnectedGraphError("graph is disconnected (unreachable pairs)")
    nodes = np.arange(n)
    words = (n + 63) // 64
    ball = np.zeros((n, words), dtype="<u8")
    ball[nodes, nodes // 64] = np.uint64(1) << (nodes % 64).astype(np.uint64)
    full = np.full(words, np.iinfo(np.uint64).max, dtype="<u8")
    full[-1] >>= np.uint64(64 * words - n)
    balls = [ball]
    for level in range(1, LEVEL_CUTOFF + 1):
        grown = np.bitwise_or.reduceat(np.take(ball, g.indices, axis=0), g.indptr[:-1], axis=0)
        grown |= ball
        if (grown == full).all():
            reached = np.zeros((n, n), dtype=np.uint8)
            for b in balls:
                reached += np.unpackbits(b.view(np.uint8), axis=1, count=n, bitorder="little")
            dist = np.full((n, n), level, dtype=np.int64)
            dist -= reached
            return dist
        if (grown == ball).all():
            raise DisconnectedGraphError("graph is disconnected (unreachable pairs)")
        ball = grown
        balls.append(ball)
    return None


def _dijkstra_distances(g: Graph) -> np.ndarray:
    """scipy's unweighted Dijkstra from every source, for graphs whose
    diameter exceeds :data:`LEVEL_CUTOFF`.  scipy is imported here only, so
    importing the package does not load it."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    data = np.ones(len(g.indices), dtype=np.int8)
    adj = csr_matrix((data, g.indices, g.indptr), shape=(g.n, g.n))
    dist = shortest_path(adj, method="D", directed=False, unweighted=True)
    if np.isinf(dist).any():
        raise DisconnectedGraphError("graph is disconnected (unreachable pairs)")
    return dist.astype(np.int64)


def profile_matrix(g: Graph) -> np.ndarray:
    """Distance-count matrix of shape ``(n, D)``, ``D`` the diameter; row
    ``i`` is node ``i``'s profile.  Column ``l - 1`` counts nodes at
    distance ``l``, so column 0 is the degree, each row sums to ``n - 1``,
    entries past the node's eccentricity are zero and the last column is
    not all zero.  This is the package's one two-node rule: fewer than two
    nodes raise ``ValueError``, so every caller gets ``D >= 1``.

    All levels are counted by one ``bincount`` over ``row * (D + 1) + dist``,
    so the work is O(n^2) whatever the diameter.  The keys are written over
    the fresh matrix :func:`distance_matrix` returns, so one ``(n, n)``
    array is allocated per call.
    """
    n = g.n
    if n < 2:
        raise ValueError(f"distance profiles need at least two nodes, got {n}")
    keys = distance_matrix(g)
    width = int(keys.max()) + 1
    keys += (np.arange(n, dtype=np.int64) * width)[:, None]
    counts = np.bincount(keys.ravel(), minlength=n * width).reshape(n, width)
    return counts[:, 1:]
