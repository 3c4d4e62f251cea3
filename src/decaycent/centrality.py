"""Centrality quantities on connected graphs.

Degree, farness, closeness, and decay centrality, plus the signed
higher-order farness vectors and their reciprocal views that drive the
near-limit orderings.  Integer quantities (degrees, farness, the signed
vectors, difference coefficients) are computed exactly; only decay values
are floating point.

Decay centrality of node ``i`` at ``delta`` in (0, 1) is
``sum_l delta**l * counts[l-1]``, the per-pair sum of ``delta**d(i,j)``.
The difference of two decay polynomials factors as
``delta * (1 - delta) * sum_k P_k delta**(k-1)`` where ``P_k`` are prefix
sums of the profile differences (and symmetrically in ``eps = 1 - delta``
with farness-vector differences); both factored forms are exposed here and
pinned to the direct evaluation by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .graph import Graph, profile_matrix

#: Unit roundoff of IEEE double precision.
UNIT_ROUNDOFF = 2.0**-53
#: Spacing of the subnormal doubles: the largest absolute error of one
#: rounded multiplication whose result underflows.
SUBNORMAL_SPACING = 2.0**-1074


@dataclass(frozen=True)
class DeltaGrid:
    """Strictly increasing decay-parameter values inside (0, 1)."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("delta grid must be nonempty")
        prev = 0.0
        for v in self.values:
            if not (0.0 < v < 1.0):
                raise ValueError(f"grid value {v!r} outside the open interval (0, 1)")
            if v <= prev:
                raise ValueError("grid values must be strictly increasing")
            prev = v

    @classmethod
    @lru_cache(maxsize=8)
    def uniform(cls, points: int = 99) -> "DeltaGrid":
        """``points`` evenly spaced values ``i / (points + 1)``; the default
        99-point grid is ``0.01, 0.02, ..., 0.99``.  Cached, so every trial
        of a batch shares one grid and its :meth:`fractions`."""
        if points < 1:
            raise ValueError("grid needs at least one point")
        return cls(tuple(i / (points + 1) for i in range(1, points + 1)))

    def __len__(self) -> int:
        return len(self.values)

    @cached_property
    def array(self) -> np.ndarray:
        """The grid values as a read-only float64 array, built once per grid."""
        out = np.array(self.values, dtype=np.float64)
        out.flags.writeable = False
        return out

    def fractions(self) -> tuple[Fraction, ...]:
        """Exact rational values of the grid floats, built once per grid
        together with :meth:`fraction_array`."""
        cached = self.__dict__.get("_fractions")
        if cached is None:
            cached = tuple(Fraction(v) for v in self.values)
            exact = np.array(cached, dtype=object)
            exact.flags.writeable = False
            object.__setattr__(self, "_fractions", cached)
            object.__setattr__(self, "_fraction_array", exact)
        return cached

    def fraction_array(self) -> np.ndarray:
        """:meth:`fractions` as a read-only object array, for indexing by
        grid columns.  Every read goes through :meth:`fractions`, which
        builds it, so the benchmark's ``centrality.fractions`` span still
        counts each use."""
        self.fractions()
        return self.__dict__["_fraction_array"]


def decay_centrality(counts: Sequence[int], delta: float) -> float:
    """Decay centrality of one profile row at one ``delta``, by Horner's
    scheme from the highest power; the scalar oracle for
    :func:`decay_matrix`."""
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    acc = 0.0
    for c in reversed(counts):
        acc = acc * delta + c
    return acc * delta


def live_levels(profiles: np.ndarray) -> int:
    """Number of leading columns that hold every nonzero entry of some rows
    of a profile matrix, or of their differences; later columns are zero."""
    live = np.flatnonzero(profiles.any(axis=0))
    return int(live[-1]) + 1 if len(live) else 0


def decay_matrix(profiles: np.ndarray, grid: DeltaGrid) -> np.ndarray:
    """Batch decay evaluation: ``(n, len(grid))`` array from a profile matrix.

    Runs Horner's scheme on the whole array at once, from the largest live
    level down.  Each entry goes through the same float operations, in the
    same order, as :func:`decay_centrality` on that row and grid value (the
    skipped all-zero levels leave its accumulator at exactly 0.0), so
    ``decay_matrix(P, grid)[i, g] == decay_centrality(P[i], grid.values[g])``
    holds bit for bit, and reports built from either agree byte for byte.
    """
    deltas = grid.array
    top = live_levels(profiles)
    counts = profiles[:, :top].astype(np.float64)
    acc = np.zeros((profiles.shape[0], len(deltas)), dtype=np.float64)
    for level in range(top - 1, -1, -1):
        acc *= deltas
        acc += counts[:, level, None]
    return acc * deltas


def farness_vector(profiles: np.ndarray) -> np.ndarray:
    """Farness of every row of a profile matrix (exact int64 dot product)."""
    return profiles @ np.arange(1, profiles.shape[1] + 1, dtype=np.int64)


def fvec_from_counts(counts: Sequence[int]) -> tuple[int, ...]:
    """Signed higher-order farness vector.

    Entry ``k`` (1-based) is ``(-1)**(k-1) * sum_{l>=k} C(l, k) * counts[l-1]``,
    computed in exact integer arithmetic; entry 1 is the farness.  The sign
    alternates (or the entry is zero) because every summand is nonnegative.

    ``sum_{l>=k} C(l, k) * counts[l-1]`` is the ``x**k`` coefficient of
    ``sum_l counts[l-1] * (1 + x)**l``, expanded here by Horner's scheme in
    ``1 + x`` (each step a shift-and-add of integer coefficients).  Entries
    past the node's eccentricity are zero, so the work is O(ecc**2).
    """
    n1 = len(counts)
    ecc = n1
    while ecc and not counts[ecc - 1]:
        ecc -= 1
    poly = [0]  # ascending coefficients in x
    for l in range(ecc, 0, -1):
        poly[0] += int(counts[l - 1])
        poly = [a + b for a, b in zip(poly + [0], [0] + poly)]
    signed = [c if k % 2 == 1 else -c for k, c in enumerate(poly[1:], start=1)]
    return tuple(signed) + (0,) * (n1 - ecc)


def cvec_from_fvec(fvec: Sequence[int]) -> tuple[float, ...]:
    """Reciprocal view: ``1 / f`` per entry, with ``0`` where ``f == 0``."""
    return tuple(0.0 if f == 0 else float(Fraction(1, f)) for f in fvec)


@dataclass(frozen=True, eq=False)
class CentralityTable:
    """All per-node centrality quantities for one connected graph.

    Built from one profile matrix (:attr:`counts`, shape ``(n, D)``, ``D``
    the diameter); :meth:`profile` pads a row to the ``n - 1`` entries that
    reports spell out.  Degree and farness are exact integers, so closeness
    (``1/farness``) ties stay exact.  The signed vectors are built on first
    use only; :meth:`fvec` builds one node's vector.  The table owns the
    report's decay matrix: :meth:`decay_values` builds it once per grid.
    """

    graph: Graph
    counts: np.ndarray
    degrees: tuple[int, ...]
    farness: tuple[int, ...]
    _decay: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n(self) -> int:
        return self.graph.n

    def profile(self, node: int) -> list[int]:
        """The node's profile, padded with zeros to ``n - 1`` levels."""
        row = self.counts[node].tolist()
        return row + [0] * (self.n - 1 - len(row))

    def fvec(self, node: int) -> tuple[int, ...]:
        return fvec_from_counts(self.profile(node))

    @cached_property
    def fvecs(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.fvec(i) for i in range(self.n))

    def decay_values(self, grid: DeltaGrid) -> np.ndarray:
        """The ``(n, len(grid))`` :func:`decay_matrix` of the profiles,
        built on the first call for ``grid`` and returned read-only, so
        every writer of one report shares it."""
        dc = self._decay.get(grid)
        if dc is None:
            dc = self._decay[grid] = decay_matrix(self.counts, grid)
            dc.flags.writeable = False
        return dc


def centrality_table(g: Graph) -> CentralityTable:
    """Populate every quantity of a connected graph; :func:`profile_matrix`
    raises for a disconnected graph and for one with fewer than two nodes."""
    profiles = profile_matrix(g)
    return CentralityTable(
        graph=g,
        counts=profiles,
        degrees=tuple(profiles[:, 0].tolist()),
        farness=tuple(farness_vector(profiles).tolist()),
    )


def dc_difference_coeffs(
    ci: Sequence[int], cj: Sequence[int], fi: Sequence[int], fj: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-level profile differences and farness-vector differences of two
    nodes, from their profiles ``ci``, ``cj`` and signed farness vectors
    ``fi``, ``fj`` (:func:`fvec_from_counts`, which callers already hold).

    Both vectors sum to zero exactly on profiles drawn from one connected
    graph (profile counts each total ``n - 1``, and the alternating
    binomial sums telescope to the same constant).
    """
    if len(ci) != len(cj):
        raise ValueError(f"profile lengths differ: {len(ci)} vs {len(cj)}")
    avec = tuple(int(a) - int(b) for a, b in zip(ci, cj))
    if sum(avec) != 0:
        raise ValueError(
            "profiles do not come from the same connected graph (level counts "
            f"sum to {sum(ci)} vs {sum(cj)})"
        )
    bvec = tuple(a - b for a, b in zip(fi, fj))
    return avec, bvec


def _prefix_sums(vec: Sequence[int]) -> list[int]:
    out: list[int] = []
    acc = 0
    for v in vec[:-1]:
        acc += v
        out.append(acc)
    return out


def dc_difference_factored(avec: Sequence[int], delta: float) -> float:
    """Evaluate the factored decay difference
    ``delta * (1 - delta) * [P_1 + P_2*delta + ... + P_{n-2}*delta**(n-3)]``
    where ``P_k`` is the k-th prefix sum of ``avec``; requires the
    coefficients to sum to zero (they always do for same-graph profiles).
    """
    if sum(avec) != 0:
        raise ValueError("difference coefficients must sum to zero")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    prefixes = _prefix_sums(avec)
    acc = 0.0
    for p in reversed(prefixes):
        acc = acc * delta + p
    return delta * (1.0 - delta) * acc


def dc_difference_factored_eps(bvec: Sequence[int], delta: float) -> float:
    """The mirrored factored form in ``eps = 1 - delta`` built on
    farness-vector differences:
    ``-eps * (1 - eps) * [Q_1 + Q_2*eps + ... + Q_{n-2}*eps**(n-3)]``
    with ``Q_k`` the prefix sums of ``bvec``."""
    if sum(bvec) != 0:
        raise ValueError("difference coefficients must sum to zero")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    eps = 1.0 - delta
    prefixes = _prefix_sums(bvec)
    acc = 0.0
    for q in reversed(prefixes):
        acc = acc * eps + q
    return -eps * (1.0 - eps) * acc


def dc_difference_sign(
    counts_i: Sequence[int],
    counts_j: Sequence[int],
    delta: float | Fraction,
) -> int:
    """Exact sign of ``DC_i(delta) - DC_j(delta)`` at a rational point.

    The float ``delta`` is taken at its exact binary value; the sign is
    decided in integer arithmetic, so grid points that sit exactly on a
    crossing (possible at e.g. 0.5) resolve as true ties.
    Returns -1, 0, or 1.
    """
    if len(counts_i) != len(counts_j):
        raise ValueError("profile lengths differ")
    diffs = [int(a) - int(b) for a, b in zip(counts_i, counts_j)]
    while diffs and diffs[-1] == 0:
        diffs.pop()
    if not diffs:
        return 0
    frac = delta if isinstance(delta, Fraction) else Fraction(delta)
    if not (0 < frac < 1):
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    num, den = frac.numerator, frac.denominator
    # sign(sum_l diffs[l-1] * delta**l) == sign(sum_l diffs[l-1] * num**(l-1) * den**(L-l))
    acc = 0
    den_pow = 1
    for l in range(len(diffs), 0, -1):
        acc = acc * num + diffs[l - 1] * den_pow
        den_pow *= den
    return (acc > 0) - (acc < 0)


def dc_difference_float(
    diffs: np.ndarray, deltas: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Float values of ``sum_l diffs[r, l-1] * delta**l`` for every row ``r``
    of an integer array and every ``delta`` of ``deltas``, with a bound on
    each value's absolute error; both have shape ``(rows, len(deltas))``.

    ``L`` is the number of levels up to the last nonzero column.  The
    powers of each ``delta`` come from repeated multiplication and the
    sums from one matrix product.  A value above its bound is certainly
    positive, one below minus its bound certainly negative.

    The bound is a derived forward-error bound, for each ``delta`` on its
    own.  With unit roundoff ``u = 2**-53``, ``gamma_k = k*u / (1 - k*u)``,
    subnormal spacing ``eta = 2**-1074`` and ``d`` one row, floating-point
    multiplication obeys ``fl(x*y) = x*y*(1 + e) + t`` with ``|e| <= u`` and
    ``|t| <= eta`` (gradual underflow; additions whose result is subnormal
    are exact, so they add no ``t``):

    1. Powers: ``P_1 = delta`` is exact and ``P_l = fl(P_{l-1} * delta)``,
       so by induction ``P_l = delta**l * (1 + th_l) + E_l`` with
       ``|th_l| <= gamma_{l-1}`` and ``|E_l| <= (l-1)*eta`` (``delta < 1``
       keeps old underflow errors from growing).  This is the error of the
       powers; no library ``pow`` is involved.
    2. Sum: the computed ``fl(sum_l d_l P_l)``, in any summation order and
       with or without fused multiply-adds, is within
       ``gamma_L * M + L*eta*(1 + gamma_L)`` of ``sum_l d_l P_l``, where
       ``M = sum_l |d_l| P_l`` (Higham, *Accuracy and Stability of
       Numerical Algorithms*, 2nd ed., sec. 3.1, with the underflow term of
       his eq. (2.8)).  The integers ``d_l`` are exact in double.
    3. Replacing the powers: ``|sum_l d_l (P_l - delta**l)| <=
       gamma_{L-1}/(1 - gamma_{L-1}) * (M + |d|_1 (L-1) eta) +
       |d|_1 (L-1) eta``.
    4. ``M`` itself is computed as ``M^ = fl(sum_l |d_l| P_l)``, so
       ``M <= (M^ + L*eta*(1 + gamma_L)) / (1 - gamma_L)``.

    For ``gamma_L <= 1/100`` (``L`` below 10**13) the relative terms sum to
    at most ``2.05 * gamma_L * M^`` and the absolute ones to at most
    ``2*L*(|d|_1 + 1)*eta``.  The returned bound is
    ``4 * gamma_L * M^ + 2*L*(|d|_1 + 1)*eta``: the spare factor covers the
    three roundings made while evaluating it, and the absolute term is an
    exact multiple of ``eta``.  The absolute term matters because powers
    underflow: ``0.01**l`` is 0 for ``l`` past about 161, so on a long path
    two central nodes whose profiles first differ that deep get a float
    difference of 0 and a zero relative term.  Such a difference stays
    uncertified, and the exact sign (:func:`dc_difference_sign`) decides it.
    """
    levels = live_levels(diffs)
    d = diffs[:, :levels].astype(np.float64)
    powers = np.cumprod(np.full((levels, len(deltas)), deltas, dtype=np.float64), axis=0)
    values = d @ powers
    magnitude = np.abs(d) @ powers
    lu = levels * UNIT_ROUNDOFF
    gamma = lu / (1.0 - lu)
    underflow = (2 * levels) * (np.abs(diffs).sum(axis=1) + 1) * SUBNORMAL_SPACING
    return values, 4.0 * gamma * magnitude + underflow[:, None]
