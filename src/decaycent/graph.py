"""Undirected simple graphs and geodesic distance profiles.

Nodes are contiguous integers ``0..n-1``; external labels belong at the
I/O boundary.  Graphs are immutable after construction and safe to share
across workers; every BFS uses per-call scratch memory.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path


class DisconnectedGraphError(ValueError):
    """Raised when an operation needs finite geodesic distances everywhere."""


@dataclass(frozen=True)
class DistanceProfile:
    """Counts of nodes at each geodesic distance from one node.

    ``counts[l - 1]`` is the number of nodes at distance exactly ``l``.
    The vector always has length ``n - 1``; trailing entries are zero when
    the node's eccentricity is smaller.  On a connected graph the counts
    sum to ``n - 1`` and ``counts[0]`` is the node's degree.
    """

    node: int
    counts: tuple[int, ...]

    @property
    def degree(self) -> int:
        return self.counts[0] if self.counts else 0


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


def distance_profile(g: Graph, node: int) -> DistanceProfile:
    """BFS-exact distance counts from ``node``.

    Raises :class:`DisconnectedGraphError` when some node is unreachable,
    since geodesic distances are undefined there.
    """
    if not (0 <= node < g.n):
        raise ValueError(f"node {node} outside 0..{g.n - 1}")
    dist = [-1] * g.n
    dist[node] = 0
    queue = deque([node])
    reached = 1
    counts = [0] * (g.n - 1)
    while queue:
        x = queue.popleft()
        dx = dist[x]
        for y in g.adjacency[x]:
            if dist[y] < 0:
                dist[y] = dx + 1
                counts[dx] += 1
                reached += 1
                queue.append(y)
    if reached != g.n:
        raise DisconnectedGraphError(
            f"graph is disconnected ({reached} of {g.n} nodes reachable from {node})"
        )
    return DistanceProfile(node=node, counts=tuple(counts))


def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs geodesic distances as an ``(n, n)`` int array.

    Runs one BFS per node through scipy's compiled shortest-path kernel;
    cross-checked against the per-node :func:`distance_profile` BFS by the
    test suite.
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
    ``i``'s profile.  Column ``l - 1`` counts nodes at distance ``l``.

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


def all_profiles(g: Graph) -> list[DistanceProfile]:
    """Profiles for nodes ``0..n-1``, identical to per-node BFS calls."""
    mat = profile_matrix(g)
    return [
        DistanceProfile(node=i, counts=tuple(int(c) for c in mat[i]))
        for i in range(g.n)
    ]
