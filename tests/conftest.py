"""Shared fixtures and independent brute-force oracles.

The oracles (Floyd-Warshall distances, naive per-pair decay sums) are the
ones in :mod:`decaycent.verification`; they deliberately do not reuse the
library's BFS or Horner code paths.
"""

from __future__ import annotations

import pytest

from decaycent.graph import Graph, build_graph
from decaycent.verification import floyd_warshall as oracle_distances
from decaycent.verification import naive_decay


@pytest.fixture
def p3() -> Graph:
    return build_graph(3, [(0, 1), (1, 2)])


@pytest.fixture
def star4() -> Graph:
    return build_graph(4, [(0, 1), (0, 2), (0, 3)])


@pytest.fixture
def cycle5() -> Graph:
    return build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


# graph with a pair of nodes whose decay curves cross (found by seeded
# search over small connected samples, then frozen): node 0 wins for small
# delta (degree 3 vs 2), node 4 wins near 1 (farness 13 vs 14)
CROSSING_EDGES = [(0, 2), (0, 4), (0, 7), (1, 5), (3, 5), (3, 4), (3, 6), (6, 7)]
CROSSING_PAIR = (0, 4)

# two profiles that tie exactly at delta = 1/2: (3,1,2,0,0,0) at the
# max-degree nodes 2 and 4 and (2,4,0,0,0,0) at the max-closeness node 5
# (difference -delta(1-delta)(1-2delta)); found by seeded search over
# G(7, 0.3) samples, then frozen
HALF_TIE_EDGES = [(0, 2), (1, 4), (2, 5), (2, 6), (3, 4), (4, 5)]


@pytest.fixture
def crossing_graph() -> Graph:
    return build_graph(8, CROSSING_EDGES)


def oracle_decay(g: Graph, node: int, delta: float) -> float:
    """Naive per-pair decay sum from oracle distances."""
    return naive_decay(oracle_distances(g)[node], node, delta)


def oracle_profile(g: Graph, node: int) -> tuple[int, ...]:
    """Distance counts straight from oracle distances."""
    dist = oracle_distances(g)
    return tuple(
        sum(1 for j in range(g.n) if dist[node][j] == level)
        for level in range(1, g.n)
    )
