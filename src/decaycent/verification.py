"""Randomized property checks with independent brute-force oracles.

Each check regenerates its ground truth from first principles (Floyd-
Warshall distances, naive per-pair decay sums, exhaustive prefix scans)
rather than reusing the production code paths it is checking.  The order
oracle is :func:`decaycent.ordering.decay_signs`, the package's one exact
decay comparison, which the tests check against ``Fraction`` brute force;
the order properties never reuse the sufficient-condition code they check.
Failures are report content with counterexample dumps, not exceptions, so
the CLI ``check`` command can emit a full pass/fail report and exit nonzero.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .centrality import (
    DeltaGrid,
    dc_difference_coeffs,
    dc_difference_factored,
    dc_difference_factored_eps,
    fvec_from_counts,
)
from .generation import TrialSeed, sample_connected_gnp
from .graph import Graph, profile_matrix
from .ordering import (
    RANK_BLOCK,
    ComparisonVerdict,
    Relation,
    check_farness_dominance,
    check_high_delta_conditions,
    check_low_delta_conditions,
    check_profile_dominance,
    decay_signs,
    lex_compare,
    lex_compare_cvec,
    ud_compare,
)

MAX_REPORTED_FAILURES = 5
#: Smallest graph the property checks sample.
MIN_CHECK_NODES = 4
#: Grid points and absolute tolerance of the factored-difference check.
FACTORIZATION_POINTS = 49
FACTORIZATION_TOL = 1e-10
#: Grid points of the order properties: 999 values, with 0.5 among them.
ORDER_POINTS = 999
#: The decay parameters near 0 and 1 where the limit orders must hold.
LIMIT_DELTAS = (1e-6, 1 - 1e-6)
#: Seed of the random triples of the transitivity check.
TRIPLE_SEED = 0


@dataclass
class PropertyResult:
    """Outcome of one property over a batch of random instances."""

    name: str
    cases: int
    failures: list[dict] = field(default_factory=list)
    #: Wall time of the property, for the console only.
    seconds: float = field(default=0.0, compare=False)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, **counterexample) -> None:
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(counterexample)
        else:
            self.failures[-1]["suppressed"] = (
                self.failures[-1].get("suppressed", 0) + 1
            )


def sample_graphs(count: int, n_max: int, seed: int) -> list[Graph]:
    """Deterministic batch of small connected graphs with varied size and
    density, from :data:`MIN_CHECK_NODES` to ``n_max`` nodes."""
    probs = (0.25, 0.4, 0.55, 0.7)
    graphs: list[Graph] = []
    sizes = list(range(MIN_CHECK_NODES, n_max + 1))
    if not sizes:
        raise ValueError(f"no graph size between {MIN_CHECK_NODES} and n_max={n_max}")
    for i in range(count):
        n = sizes[i % len(sizes)]
        p = probs[(i // len(sizes)) % len(probs)]
        g, _ = sample_connected_gnp(n, p, TrialSeed(seed, i), max_rejects=1_000_000)
        graphs.append(g)
    return graphs


def floyd_warshall(g: Graph) -> list[list[float]]:
    """Textbook all-pairs shortest paths; the distance oracle."""
    inf = float("inf")
    n = g.n
    dist = [[inf] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
    for u, v in g.edges:
        dist[u][v] = 1
        dist[v][u] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == inf:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def naive_decay(dist_row: Sequence[float], node: int, delta: float) -> float:
    """Per-pair decay sum straight from a distance row."""
    return sum(delta ** d for j, d in enumerate(dist_row) if j != node)


def _edge_dump(g: Graph) -> list[list[int]]:
    return g.edges.tolist()


def check_bfs_distances(graphs: Sequence[Graph]) -> PropertyResult:
    """Profile-matrix rows, padded to n - 1 levels, match Floyd-Warshall
    counts, and the matrix is as wide as the Floyd-Warshall diameter;
    distances are symmetric; profile counts sum to n - 1."""
    res = PropertyResult(name="bfs-distances", cases=0)
    for g in graphs:
        res.cases += 1
        dist = floyd_warshall(g)
        n = g.n
        sym_ok = all(dist[i][j] == dist[j][i] for i in range(n) for j in range(n))
        if not sym_ok:
            res.record(graph=_edge_dump(g), problem="asymmetric oracle distances")
            continue
        expected = [
            tuple(
                sum(1 for j in range(n) if dist[i][j] == l) for l in range(1, n)
            )
            for i in range(n)
        ]
        pm = profile_matrix(g)
        diameter = int(max(map(max, dist)))
        if pm.shape[1] != diameter:
            res.record(graph=_edge_dump(g), problem="profile width",
                       width=pm.shape[1], diameter=diameter)
            continue
        pad = (0,) * (n - 1 - diameter)
        batch = [tuple(row) + pad for row in pm.tolist()]
        for i in range(n):
            if batch[i] != expected[i]:
                res.record(
                    graph=_edge_dump(g),
                    node=i,
                    expected=list(expected[i]),
                    batch=list(batch[i]),
                )
                break
            if sum(batch[i]) != n - 1:
                res.record(graph=_edge_dump(g), node=i, problem="profile sum")
                break
    return res


def check_difference_factorizations(graphs: Sequence[Graph]) -> PropertyResult:
    """Both factored difference forms match the naive per-pair evaluation
    within :data:`FACTORIZATION_TOL` at every point of the
    :data:`FACTORIZATION_POINTS`-point grid, and the coefficient vectors
    sum to zero exactly."""
    grid = DeltaGrid.uniform(FACTORIZATION_POINTS)
    res = PropertyResult(name="difference-factorizations", cases=0)
    for g in graphs:
        dist = floyd_warshall(g)
        profiles = profile_matrix(g).tolist()
        fvecs = [fvec_from_counts(row) for row in profiles]
        n = g.n
        for i in range(n):
            for j in range(i + 1, n):
                res.cases += 1
                avec, bvec = dc_difference_coeffs(
                    profiles[i], profiles[j], fvecs[i], fvecs[j]
                )
                if sum(avec) != 0 or sum(bvec) != 0:
                    res.record(
                        graph=_edge_dump(g), pair=[i, j],
                        problem="coefficients do not sum to zero",
                    )
                    continue
                for delta in grid.values:
                    direct = naive_decay(dist[i], i, delta) - naive_decay(
                        dist[j], j, delta
                    )
                    fa = dc_difference_factored(avec, delta)
                    fb = dc_difference_factored_eps(bvec, delta)
                    if abs(fa - direct) > FACTORIZATION_TOL or abs(fb - direct) > FACTORIZATION_TOL:
                        res.record(
                            graph=_edge_dump(g), pair=[i, j], delta=delta,
                            direct=direct, factored=fa, factored_eps=fb,
                        )
                        break
    return res


def check_reciprocal_reversal(
    graphs: Sequence[Graph],
    compare_fn: Callable[[Sequence[int], Sequence[int]], ComparisonVerdict]
    | None = None,
) -> PropertyResult:
    """Lex order of the signed farness vectors is the exact reverse of the
    implemented lex order of their reciprocal views."""
    if compare_fn is None:
        compare_fn = lex_compare_cvec
    flipped = {
        Relation.GREATER: Relation.LESS,
        Relation.LESS: Relation.GREATER,
        Relation.EQUAL: Relation.EQUAL,
    }
    res = PropertyResult(name="reciprocal-lex-reversal", cases=0)
    for g in graphs:
        fvecs = [fvec_from_counts(row) for row in profile_matrix(g).tolist()]
        for i in range(g.n):
            for j in range(i + 1, g.n):
                res.cases += 1
                on_f = lex_compare(fvecs[i], fvecs[j]).relation
                on_c = compare_fn(fvecs[i], fvecs[j]).relation
                if flipped[on_f] != on_c:
                    res.record(
                        graph=_edge_dump(g), pair=[i, j],
                        fvec_relation=on_f.value, cvec_relation=on_c.value,
                    )
    return res


def _check_order_claims(
    res: PropertyResult,
    graphs: Sequence[Graph],
    grid: DeltaGrid,
    claims_of: Callable[..., list[tuple[np.ndarray, dict]]],
) -> PropertyResult:
    """Settle claims that ``DC_i > DC_j`` strictly, and record each failing
    claim at its first failing delta, in claim order.

    ``claims_of(ci, cj, fvec_i, fvec_j)`` lists the claims for the ordered
    node pair ``(i, j)`` as ``(grid columns, counterexample detail)``.  A
    graph's claims are grouped by their columns, and the exact signs come
    from :func:`decaycent.ordering.decay_signs` on those columns only, one
    call per block of at most ``RANK_BLOCK // len(columns)`` claims, so
    memory stays bounded on large graphs.
    """
    deltas, fracs = grid.array, grid.fraction_array()
    for g in graphs:
        pm = profile_matrix(g)
        rows = pm.tolist()
        fvecs = [fvec_from_counts(row) for row in rows]
        claims = [
            (i, j, cols, detail)
            for i in range(g.n)
            for j in range(g.n)
            if i != j
            for cols, detail in claims_of(rows[i], rows[j], fvecs[i], fvecs[j])
        ]
        res.cases += len(claims)
        by_cols: dict[bytes, list[int]] = {}
        for t, claim in enumerate(claims):
            by_cols.setdefault(claim[2].tobytes(), []).append(t)
        first_bad: dict[int, int] = {}
        for ts in by_cols.values():
            cols = claims[ts[0]][2]
            if not len(cols):
                continue  # a claim on no grid value cannot fail
            step = max(1, RANK_BLOCK // len(cols))
            for start in range(0, len(ts), step):
                block = ts[start:start + step]
                ks, hs = np.array([claims[t][:2] for t in block]).T
                signs, _ = decay_signs(pm, ks, hs, deltas[cols], fracs[cols])
                bad = signs <= 0
                for b in np.flatnonzero(bad.any(axis=1)).tolist():
                    first_bad[block[b]] = int(cols[bad[b].argmax()])
        for t in sorted(first_bad):
            i, j, _, detail = claims[t]
            res.record(graph=_edge_dump(g), pair=[i, j],
                       delta=float(deltas[first_bad[t]]), **detail)
    return res


def check_dominance_checkers(graphs: Sequence[Graph]) -> PropertyResult:
    """Whenever a full-range dominance check fires, the strict decay order
    holds at every point of the :data:`ORDER_POINTS`-point grid."""
    grid = DeltaGrid.uniform(ORDER_POINTS)
    every = np.arange(len(grid))

    def claims_of(ci, cj, fi, fj):
        rules = []
        if check_profile_dominance(ci, cj).relation is Relation.GREATER:
            rules.append("profile-dominance")
        if check_farness_dominance(fi, fj).relation is Relation.GREATER:
            rules.append("farness-dominance")
        return [(every, {"rules": rules})] if rules else []

    res = PropertyResult(name="dominance-checkers-sound", cases=0)
    return _check_order_claims(res, graphs, grid, claims_of)


def check_half_range_conditions(
    graphs: Sequence[Graph], grid: DeltaGrid | None = None
) -> PropertyResult:
    """Fired low-delta conditions imply strict order on (0, 0.5]; fired
    high-delta conditions imply strict order on [0.5, 1)."""
    if grid is None:
        grid = DeltaGrid.uniform(ORDER_POINTS)
    deltas = grid.array
    low_cols = np.flatnonzero(deltas <= 0.5)
    high_cols = np.flatnonzero(deltas >= 0.5)

    def claims_of(ci, cj, fi, fj):
        claims = []
        low = check_low_delta_conditions(ci, cj)
        if low.fires:
            claims.append((low_cols, {"rule": "low-delta",
                                      "conditions": sorted(low.satisfied)}))
        high = check_high_delta_conditions(fi, fj)
        if high.fires:
            claims.append((high_cols, {"rule": "high-delta",
                                       "conditions": sorted(high.satisfied)}))
        return claims

    res = PropertyResult(name="half-range-conditions-sound", cases=0)
    return _check_order_claims(res, graphs, grid, claims_of)


def cvec_sort_key(fvec: Sequence[int]) -> tuple:
    """Sort key realizing the reciprocal-view lex order on farness vectors."""
    return tuple(((f > 0) - (f < 0), -f) for f in fvec)


def exact_decay_argmax(profiles, delta: float | Fraction) -> frozenset[int]:
    """Brute-force argmax: every row's decay value as an exact fraction
    ``delta = p / q``, scaled by the common denominator ``q**L``."""
    frac = Fraction(delta)
    p, q = frac.numerator, frac.denominator
    rows = [[int(c) for c in row] for row in profiles]
    levels = len(rows[0])
    weights = [p**l * q ** (levels - l) for l in range(1, levels + 1)]
    scaled = [sum(c * w for c, w in zip(row, weights) if c) for row in rows]
    best = max(scaled)
    return frozenset(i for i, v in enumerate(scaled) if v == best)


def check_limit_orderings(graphs: Sequence[Graph]) -> PropertyResult:
    """Near the endpoints the exact decay argmax coincides with the
    lexicographic winners: by distance profile at the low end of
    :data:`LIMIT_DELTAS` and by the reciprocal farness view at the high end."""
    res = PropertyResult(name="limit-orderings", cases=0)
    for g in graphs:
        res.cases += 1
        pm = profile_matrix(g)
        rows = [tuple(row) for row in pm.tolist()]
        best_profile = max(rows)
        lexmax_low = {i for i, r in enumerate(rows) if r == best_profile}
        keys = [cvec_sort_key(fvec_from_counts(r)) for r in rows]
        best_key = max(keys)
        lexmax_high = {i for i, k in enumerate(keys) if k == best_key}
        for delta, lexmax in zip(LIMIT_DELTAS, (lexmax_low, lexmax_high)):
            argmax = exact_decay_argmax(pm, delta)
            if argmax != lexmax:
                res.record(graph=_edge_dump(g), delta=delta,
                           lex_winners=sorted(lexmax), decay_winners=sorted(argmax))
    return res


def check_dominance_partial_order(graphs: Sequence[Graph]) -> PropertyResult:
    """The dominance comparison behaves as a strict partial order on
    profile vectors: self-equal, antisymmetric, transitive on triples."""
    rng = np.random.default_rng(TRIPLE_SEED)
    res = PropertyResult(name="dominance-partial-order", cases=0)
    rel = {
        Relation.GREATER: 1,
        Relation.LESS: -1,
        Relation.EQUAL: 0,
        Relation.INCOMPARABLE: None,
    }
    for g in graphs:
        pm = profile_matrix(g)
        rows = [tuple(row) for row in pm.tolist()]
        n = len(rows)
        for i in range(n):
            res.cases += 1
            if ud_compare(rows[i], rows[i]).relation is not Relation.EQUAL:
                res.record(graph=_edge_dump(g), node=i, problem="not reflexive-equal")
        for i in range(n):
            for j in range(n):
                fwd = rel[ud_compare(rows[i], rows[j]).relation]
                bwd = rel[ud_compare(rows[j], rows[i]).relation]
                res.cases += 1
                if (fwd is None) != (bwd is None) or (
                    fwd is not None and fwd != -bwd
                ):
                    res.record(
                        graph=_edge_dump(g), pair=[i, j], problem="not antisymmetric"
                    )
        if n >= 3:
            for _ in range(min(20, n * 2)):
                i, j, k = (int(x) for x in rng.integers(0, n, size=3))
                ab = rel[ud_compare(rows[i], rows[j]).relation]
                bc = rel[ud_compare(rows[j], rows[k]).relation]
                if ab == 1 and bc == 1:
                    res.cases += 1
                    if rel[ud_compare(rows[i], rows[k]).relation] != 1:
                        res.record(
                            graph=_edge_dump(g), triple=[i, j, k],
                            problem="not transitive",
                        )
    return res


def run_all_checks(
    n_max: int = 12, graphs: int = 200, seed: int = 0
) -> list[PropertyResult]:
    """Run every property suite on one deterministic batch of graphs, and
    time each one (``PropertyResult.seconds``).

    Raises ``ValueError`` when ``graphs`` is below 1: an empty batch would
    pass every property without checking one.
    """
    if graphs < 1:
        raise ValueError(f"graphs must be at least 1, got {graphs}")
    batch = sample_graphs(graphs, n_max=n_max, seed=seed)
    small = batch[: max(1, len(batch) // 4)]
    runs = [
        lambda: check_bfs_distances(batch),
        lambda: check_difference_factorizations(small),
        lambda: check_reciprocal_reversal(batch),
        lambda: check_dominance_checkers(batch),
        lambda: check_half_range_conditions(batch),
        lambda: check_limit_orderings(batch),
        lambda: check_dominance_partial_order(small),
    ]
    results = []
    for run in runs:
        start = time.perf_counter()
        res = run()
        res.seconds = time.perf_counter() - start
        results.append(res)
    return results
