"""Undirected simple graphs and geodesic distance profiles.

Nodes are contiguous integers ``0..n-1``; external labels belong at the
I/O boundary.  Graphs are immutable after construction and safe to share
across workers.  A node's distance profile is one integer row of
:func:`profile_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path


class DisconnectedGraphError(ValueError):
    """Raised when an operation needs finite geodesic distances everywhere."""


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph.

    ``edges`` holds each edge once as ``(u, v)`` with ``u < v``, sorted;
    ``adjacency[i]`` is the ascending tuple of ``i``'s neighbors, so
    ``j in adjacency[i]`` iff ``i in adjacency[j]`` and iteration order is
    deterministic.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, node: int) -> int:
        return len(self.adjacency[node])


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
    return _finish_graph(n, sorted(seen))


def graph_from_pair_arrays(n: int, us: np.ndarray, vs: np.ndarray) -> Graph:
    """Fast constructor for pre-validated, duplicate-free edge endpoint arrays."""
    lo = np.minimum(us, vs)
    hi = np.maximum(us, vs)
    order = np.lexsort((hi, lo))
    pairs = list(zip(lo[order].tolist(), hi[order].tolist()))
    return _finish_graph(n, pairs)


def _finish_graph(n: int, pairs: list[tuple[int, int]]) -> Graph:
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        neighbors[u].append(v)
        neighbors[v].append(u)
    adjacency = tuple(tuple(sorted(nb)) for nb in neighbors)
    return Graph(n=n, edges=tuple(pairs), adjacency=adjacency)


def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs geodesic distances as an ``(n, n)`` int array.

    Runs one BFS per node through scipy's compiled shortest-path kernel;
    cross-checked against Floyd-Warshall by the test suite and by
    ``decaycent check``.
    """
    n = g.n
    if n == 1:
        return np.zeros((1, 1), dtype=np.int64)
    m = len(g.edges)
    if m == 0:
        raise DisconnectedGraphError("graph is disconnected (no edges)")
    e = np.asarray(g.edges, dtype=np.int64)
    rows = np.concatenate([e[:, 0], e[:, 1]])
    cols = np.concatenate([e[:, 1], e[:, 0]])
    data = np.ones(2 * m, dtype=np.int8)
    adj = csr_matrix((data, (rows, cols)), shape=(n, n))
    dist = shortest_path(adj, method="D", directed=False, unweighted=True)
    if np.isinf(dist).any():
        raise DisconnectedGraphError("graph is disconnected (unreachable pairs)")
    return dist.astype(np.int64)


def profile_matrix(g: Graph) -> np.ndarray:
    """Distance-count matrix of shape ``(n, n - 1)``; row ``i`` is node
    ``i``'s profile.  Column ``l - 1`` counts nodes at distance ``l``, so
    column 0 is the degree, each row sums to ``n - 1``, and entries past
    the node's eccentricity are zero.

    All levels are counted by one ``bincount`` over ``row * (D + 1) + dist``
    (``D`` the diameter), so the work is O(n^2) whatever the diameter.
    """
    n = g.n
    out = np.zeros((n, max(n - 1, 0)), dtype=np.int64)
    if n <= 1:
        return out
    dist = distance_matrix(g)
    width = int(dist.max()) + 1
    keys = dist + (np.arange(n, dtype=np.int64) * width)[:, None]
    counts = np.bincount(keys.ravel(), minlength=n * width).reshape(n, width)
    out[:, : width - 1] = counts[:, 1:]
    return out
