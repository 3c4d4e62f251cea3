"""Pairwise orderings on distance profiles and maximizer-set computation.

Two vector orders drive everything:

* lexicographic: decided at the first differing index; total on equal-length
  vectors, never ``incomparable``;
* unsorted dominance: all prefix sums weakly larger with at least one strict;
  a strict partial order, so ``incomparable`` is a first-class outcome.

Profile dominance (on distance counts) or reversed farness-vector dominance
each force the decay-centrality order at every value of the decay parameter.
The half-range checkers certify the order on (0, 1/2] from a degree surplus
and on [1/2, 1) from a farness deficit.  A checker that does not fire is
silent, not evidence that the curves cross; callers must not fall back to
numeric evaluation implicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

import numpy as np

from .centrality import (
    CentralityTable,
    DeltaGrid,
    dc_difference_float,
    dc_difference_sign,
    decay_matrix,
    farness_vector,
)
from .graph import Graph, profile_groups, profile_matrix

#: Element budget of one :func:`decay_ranks` block: groups x block members
#: x max(levels, grid) stays below it, which bounds the block's dominance
#: masks and its incomparable pairs' difference arrays (about 8 MB each).
RANK_BLOCK = 1 << 20


class Relation(str, Enum):
    GREATER = "greater"
    LESS = "less"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class ComparisonVerdict:
    """Outcome of one pairwise comparison.

    ``rule`` names the comparator or sufficient condition that produced the
    verdict; ``detail`` is the witness index (first differing or violating
    position), when one exists.
    """

    relation: Relation
    rule: str
    detail: int | None = None


def _require_same_length(a: Sequence, b: Sequence) -> None:
    if len(a) != len(b):
        raise ValueError(f"vector lengths differ: {len(a)} vs {len(b)}")


def lex_compare(a: Sequence[int], b: Sequence[int], rule: str = "lex") -> ComparisonVerdict:
    """Lexicographic comparison: decided at the first differing index."""
    _require_same_length(a, b)
    for idx, (x, y) in enumerate(zip(a, b)):
        if x != y:
            rel = Relation.GREATER if x > y else Relation.LESS
            return ComparisonVerdict(relation=rel, rule=rule, detail=idx)
    return ComparisonVerdict(relation=Relation.EQUAL, rule=rule)


def lex_compare_cvec(
    fvec_i: Sequence[int], fvec_j: Sequence[int]
) -> ComparisonVerdict:
    """Lexicographic order of the reciprocal (closeness-side) vectors,
    decided from the farness-side integers without any real division.

    Entry values order as ``1/f`` with the ``f == 0 -> 0`` convention:
    positive entries beat zero beat negative, and within one sign the
    smaller farness entry wins.
    """
    _require_same_length(fvec_i, fvec_j)
    for idx, (fi, fj) in enumerate(zip(fvec_i, fvec_j)):
        if fi == fj:
            continue
        cls_i = (fi > 0) - (fi < 0)
        cls_j = (fj > 0) - (fj < 0)
        if cls_i != cls_j:
            rel = Relation.GREATER if cls_i > cls_j else Relation.LESS
        else:
            rel = Relation.GREATER if fi < fj else Relation.LESS
        return ComparisonVerdict(relation=rel, rule="lex-cvec", detail=idx)
    return ComparisonVerdict(relation=Relation.EQUAL, rule="lex-cvec")


def ud_compare(a: Sequence[int], b: Sequence[int], rule: str = "ud") -> ComparisonVerdict:
    """Unsorted dominance: compare all prefix sums.

    ``greater`` iff every prefix sum of ``a`` is >= the matching prefix sum
    of ``b`` with at least one strict inequality; symmetric for ``less``;
    ``equal`` iff the vectors coincide; otherwise ``incomparable`` (witness:
    the index at which the second direction appears).
    """
    _require_same_length(a, b)
    sa = 0
    sb = 0
    direction = 0
    first_strict: int | None = None
    for idx, (x, y) in enumerate(zip(a, b)):
        sa += x
        sb += y
        if sa == sb:
            continue
        here = 1 if sa > sb else -1
        if direction == 0:
            direction = here
            first_strict = idx
        elif here != direction:
            return ComparisonVerdict(
                relation=Relation.INCOMPARABLE, rule=rule, detail=idx
            )
    if direction == 0:
        return ComparisonVerdict(relation=Relation.EQUAL, rule=rule)
    rel = Relation.GREATER if direction > 0 else Relation.LESS
    return ComparisonVerdict(relation=rel, rule=rule, detail=first_strict)


def check_profile_dominance(ci: Sequence[int], cj: Sequence[int]) -> ComparisonVerdict:
    """Dominance of distance profiles certifies the decay order for every
    decay parameter in (0, 1); ``incomparable`` means this test is silent."""
    return ud_compare(ci, cj, rule="profile-dominance")


def check_farness_dominance(
    fvec_i: Sequence[int], fvec_j: Sequence[int]
) -> ComparisonVerdict:
    """Reversed dominance of farness vectors: node ``i`` is greater when
    ``fvec_j`` dominates ``fvec_i`` (lower farness terms mean more
    centrality), again for every decay parameter."""
    # swapped arguments: dominance of j's vector means i wins, and the
    # ud relations then carry over to i-vs-j verbatim
    return ud_compare(fvec_j, fvec_i, rule="farness-dominance")


@dataclass(frozen=True)
class SufficiencyResult:
    """Which sufficient conditions fired for an ordered node pair.

    ``applicable`` is False when the precondition on the leading difference
    fails (the check then says nothing about either node).
    """

    applicable: bool
    satisfied: frozenset[int]
    rule: str

    @property
    def fires(self) -> bool:
        return self.applicable and bool(self.satisfied)


def _max_abs_prefix(diffs: Sequence[int]) -> int:
    """``max_k |d_1 + ... + d_k|`` over ``k = 2 .. len(diffs) - 1``; 0 when
    that range is empty."""
    sums = list(accumulate(diffs[:-1]))
    return max(map(abs, sums[1:]), default=0)


def check_low_delta_conditions(ci: Sequence[int], cj: Sequence[int]) -> SufficiencyResult:
    """Sufficient conditions for a strict decay-centrality advantage of
    ``i`` over ``j`` on the whole range (0, 1/2].

    Requires a strict degree surplus ``A1 = deg(i) - deg(j) > 0``.  With
    ``A_l`` the per-level profile differences and ``n`` the node count, the
    four conditions are:

    1. ``2*A1 >= (n-1) - deg(j)``
    2. ``4*A1 + 2*A2 >= (n-1) - (deg(j) + dist2(j))``
    3. ``A1 >= max_l |A_l|   (l >= 2)``
    4. ``A1 >= max_k |A_1 + ... + A_k|   (k = 2 .. n-2)``

    Empty ranges (tiny graphs) make the max zero, so the condition reduces
    to the precondition.  ``n - 1`` is the total of ``j``'s profile (every
    other node), so no verdict depends on how far the rows are padded.
    """
    _require_same_length(ci, cj)
    rule = "low-delta-conditions"
    diffs = [int(a) - int(b) for a, b in zip(ci, cj)]
    a1 = diffs[0]
    if a1 <= 0:
        return SufficiencyResult(applicable=False, satisfied=frozenset(), rule=rule)
    others = sum(int(c) for c in cj)  # n - 1
    deg_j = int(cj[0])
    dist2_j = int(cj[1]) if len(cj) >= 2 else 0
    a2 = diffs[1] if len(diffs) >= 2 else 0
    satisfied: set[int] = set()
    if 2 * a1 >= others - deg_j:
        satisfied.add(1)
    if 4 * a1 + 2 * a2 >= others - (deg_j + dist2_j):
        satisfied.add(2)
    tail_max = max((abs(d) for d in diffs[1:]), default=0)
    if a1 >= tail_max:
        satisfied.add(3)
    if a1 >= _max_abs_prefix(diffs):
        satisfied.add(4)
    return SufficiencyResult(applicable=True, satisfied=frozenset(satisfied), rule=rule)


def check_high_delta_conditions(
    fvec_i: Sequence[int], fvec_j: Sequence[int]
) -> SufficiencyResult:
    """Sufficient conditions for a strict decay-centrality advantage of
    ``i`` over ``j`` on the whole range [1/2, 1).

    Requires a strict farness deficit ``B1 = farness(i) - farness(j) < 0``.
    With ``B_l`` the farness-vector differences:

    1. ``|B1| >= max_l |B_l|   (l >= 2)``
    2. ``|B1| >= max_k |B_1 + ... + B_k|   (k = 2 .. n-2)``
    """
    _require_same_length(fvec_i, fvec_j)
    rule = "high-delta-conditions"
    diffs = [int(a) - int(b) for a, b in zip(fvec_i, fvec_j)]
    b1 = diffs[0]
    if b1 >= 0:
        return SufficiencyResult(applicable=False, satisfied=frozenset(), rule=rule)
    satisfied: set[int] = set()
    tail_max = max((abs(d) for d in diffs[1:]), default=0)
    if -b1 >= tail_max:
        satisfied.add(1)
    if -b1 >= _max_abs_prefix(diffs):
        satisfied.add(2)
    return SufficiencyResult(applicable=True, satisfied=frozenset(satisfied), rule=rule)


@dataclass(frozen=True)
class MaximizerSets:
    """Argmax node sets: by degree, by closeness (exact farness ties), and
    by decay centrality at each grid point."""

    by_degree: frozenset[int]
    by_closeness: frozenset[int]
    by_decay: tuple[frozenset[int], ...]


def dominance_front(rows: np.ndarray) -> np.ndarray:
    """Ids, ascending, of the profile rows that no row strictly dominates.

    Row ``k`` strictly dominates row ``h`` when its cumulative profile is
    ``>=`` at every level and ``>`` at one.  With ``P_l`` the prefix sums
    of ``rows[k] - rows[h]`` over ``L`` levels,
    ``DC_k - DC_h = P_L delta**L + (1 - delta) sum_{l<L} P_l delta**l``,
    so a strictly dominated row is below at every delta in (0, 1) and is
    never a decay maximizer.  Equal rows do not dominate each other: they
    stay and tie.  The rows are sorted lexicographically descending on
    their cumulative profiles, where no row can dominate one before it;
    the first live row joins the front and drops every row it dominates.
    Dominance is transitive, so each row is compared with front rows only.
    """
    cum = np.cumsum(rows, axis=1)
    live = np.lexsort(cum.T[::-1])[::-1]
    in_front = np.zeros(len(rows), dtype=bool)
    while len(live):
        top, live = live[0], live[1:]
        in_front[top] = True
        rest = cum[live]
        dominated = (cum[top] >= rest).all(axis=1) & (cum[top] > rest).any(axis=1)
        live = live[~dominated]
    return np.flatnonzero(in_front)


def decay_signs(
    rows: np.ndarray,
    ks: np.ndarray,
    hs: np.ndarray | int,
    deltas: Sequence[float],
    fracs: Sequence[Fraction],
) -> tuple[np.ndarray, np.ndarray]:
    """Exact signs of ``DC_k - DC_h`` for the profile rows ``ks`` against
    the rows ``hs`` (one row, or one per ``k``) at every grid value, with
    the float differences; both have shape ``(len(ks), len(deltas))``.

    ``fracs`` are the exact :class:`Fraction` values of ``deltas``.  Each
    difference polynomial is evaluated in floats with a certified error
    bound (:func:`dc_difference_float`); a value within its bound of zero
    gets the exact rational sign (:func:`dc_difference_sign`), so exact
    ties stay exact.  Signs are -1, 0 or 1.
    """
    diff, bound = dc_difference_float(rows[ks] - rows[hs], deltas)
    signs = np.sign(diff).astype(np.int64)
    hs = np.full(len(ks), hs)
    for t, g in zip(*(np.abs(diff) <= bound).nonzero()):
        signs[t, g] = dc_difference_sign(rows[ks[t]], rows[hs[t]], fracs[g])
    return signs, diff


def decay_argmax_sets(rows: np.ndarray, grid: DeltaGrid) -> tuple[frozenset[int], ...]:
    """Decay argmax set of the profile rows at every grid point, decided
    exactly; the sets hold row ids.

    ``rows`` are normally the distinct profiles of one graph (its profile
    groups, :func:`profile_groups`); rows that repeat are allowed and tie
    exactly.  Only the rows of the :func:`dominance_front` can win.  Each
    column's float leader among them is compared with the other front rows
    exactly (:func:`decay_signs`, one call per leader over its columns);
    where all are below, the leader wins alone.  Otherwise, while some
    candidates are above the leader, only they stay, and the leader moves
    to the one with the largest float difference (the float values
    themselves cannot order a long path's centre rows).  The set is the
    leader and the candidates that tie with it.
    """
    deltas, fracs = grid.array, grid.fractions()
    front = dominance_front(rows)
    leaders = front[decay_matrix(rows[front], grid).argmax(axis=0)]
    out = [frozenset((lead,)) for lead in leaders.tolist()]
    for lead in set(leaders.tolist()):
        others = front[front != lead]
        if not len(others):
            continue
        cols = np.flatnonzero(leaders == lead)
        signs, diff = decay_signs(rows, others, lead, deltas[cols], fracs[cols])
        for j in np.flatnonzero((signs >= 0).any(axis=0)).tolist():
            g, cand, best, s, d = cols[j], others, lead, signs[:, j], diff[:, j]
            while (s > 0).any():
                cand = cand[s > 0]
                best = cand[np.argmax(d[s > 0])]
                cand = cand[cand != best]
                s, d = decay_signs(rows, cand, best, deltas[g:g + 1], fracs[g:g + 1])
                s, d = s[:, 0], d[:, 0]
            out[g] = frozenset((int(best), *cand[s == 0].tolist()))
    return tuple(out)


def decay_ranks(
    rows: np.ndarray,
    sizes: np.ndarray,
    grid: DeltaGrid,
    members: Sequence[int],
) -> np.ndarray:
    """Competition ranks ``1 + #{u : DC_u > DC_v}`` of the nodes ``v`` of
    each member group at every grid point, shape
    ``(len(members), len(grid))``.

    ``rows`` are a graph's distinct profiles (its profile groups, with
    ``sizes[k]`` nodes in group ``k``) and ``members`` are group ids.
    Nodes of one group tie exactly, so a greater group counts with its
    size.  A group whose cumulative profile strictly dominates the member
    group's is greater at every delta, and a dominated one never is
    (:func:`dominance_front`); the incomparable pairs are compared
    exactly, in one :func:`decay_signs` call per block of members.  Blocks
    are sized by :data:`RANK_BLOCK`, so memory stays bounded when many
    groups are members; one block usually covers them all.
    """
    members = np.asarray(members, dtype=np.intp)
    cum = np.cumsum(rows, axis=1)
    ranks = np.empty((len(members), len(grid)), dtype=np.int64)
    step = max(1, RANK_BLOCK // (len(rows) * max(rows.shape[1], len(grid))))
    for start in range(0, len(members), step):
        block = members[start:start + step]
        ge = (cum[:, None] >= cum[block]).all(axis=2)
        le = (cum[:, None] <= cum[block]).all(axis=2)
        out = ranks[start:start + step]
        out[:] = 1 + (sizes @ (ge & ~le))[:, None]
        ks, at = (~ge & ~le).nonzero()
        if len(ks):
            signs, _ = decay_signs(rows, ks, block[at], grid.array, grid.fractions())
            out += np.where(np.arange(len(block))[:, None] == at, sizes[ks], 0) @ (signs > 0)
    return ranks


def degree_closeness_winners(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the profile rows with the largest degree and of those with
    the smallest farness (closeness ties are exact farness ties)."""
    degrees = rows[:, 0]
    farness = farness_vector(rows)
    return degrees == degrees.max(), farness == farness.min()


def maximizer_sets(
    g: Graph,
    grid: DeltaGrid,
    table: CentralityTable | None = None,
) -> MaximizerSets:
    """Compute all three maximizer families for a connected graph.

    Every family is found on the graph's distinct profiles, each winning
    profile standing for all of its nodes.  Degree and closeness winners
    come from exact integer comparisons (:func:`degree_closeness_winners`);
    the per-delta decay winners use the exact-confirmation path of
    :func:`decay_argmax_sets`.  ``table`` is the graph's
    :class:`CentralityTable` when the caller has it already (``compute``
    passes its own), and the groups are then read from it; otherwise the
    profiles are built here, which raises as :func:`profile_matrix` does
    for fewer than two nodes.
    """
    if table is None:
        profiles = profile_matrix(g)
        first, inverse, _ = profile_groups(profiles)
    else:
        profiles = table.counts
        first, inverse, _ = table.groups
    rows = profiles[first]
    in_deg, in_clos = degree_closeness_winners(rows)
    by_decay = decay_argmax_sets(rows, grid)
    nodes = {s: frozenset(np.flatnonzero(np.isin(inverse, list(s))).tolist())
             for s in set(by_decay)}
    return MaximizerSets(
        by_degree=frozenset(np.flatnonzero(in_deg[inverse]).tolist()),
        by_closeness=frozenset(np.flatnonzero(in_clos[inverse]).tolist()),
        by_decay=tuple(nodes[s] for s in by_decay),
    )
