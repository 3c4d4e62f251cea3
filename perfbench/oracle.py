"""Independent reference for the outputs the benchmark checks.

Nothing here calls into ``decaycent``: distances come from an all-sources
BFS written with numpy, decay values are compared in exact integer
arithmetic, and the simulation records and aggregates are rebuilt from
their documented definitions.  Integers, flags and node sets must match
the program exactly; floats must agree within :data:`REL_TOL`.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

#: Relative tolerance for every float the benchmark checks.  Result files
#: print floats with 9 significant digits (relative rounding <= 5e-9), so
#: this is the tightest bound those files can meet.
REL_TOL = 1e-8


def grid_values(points: int) -> list[float]:
    return [i / (points + 1) for i in range(1, points + 1)]


def fmt_float(x: float) -> str:
    return format(float(x), ".9g")


def close(got: float, want: float, scale: float | None = None) -> bool:
    """``got`` agrees with ``want`` within REL_TOL of ``scale`` (default
    ``|want|``)."""
    ref = abs(want) if scale is None else scale
    return abs(got - want) <= REL_TOL * max(ref, 1e-300)


def profiles_of(n: int, edges) -> np.ndarray:
    """Distance-count matrix ``(n, n - 1)`` by a level-synchronous BFS from
    every source at once; raises ``ValueError`` on a disconnected graph."""
    adj = np.zeros((n, n), dtype=np.float32)
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1.0
    reach = np.eye(n, dtype=bool)
    frontier = reach.copy()
    levels = []
    while True:
        nxt = (frontier.astype(np.float32) @ adj > 0) & ~reach
        if not nxt.any():
            break
        levels.append(nxt.sum(axis=1))
        reach |= nxt
        frontier = nxt
    if not reach.all():
        raise ValueError("graph is disconnected")
    out = np.zeros((n, max(n - 1, 0)), dtype=np.int64)
    if levels:
        out[:, : len(levels)] = np.stack(levels, axis=1)
    return out


@dataclass
class GraphRef:
    """Exact per-node quantities of one connected graph on one grid.

    ``keys[g][t]`` is the decay value of profile group ``g`` at grid point
    ``t`` scaled by a positive factor common to all groups at that point,
    as an exact integer; ``dc[i][t]`` is node ``i``'s decay value rounded
    once from the exact rational.
    """

    n: int
    grid: list[float]
    profiles: np.ndarray
    degrees: list[int]
    farness: list[int]
    group: np.ndarray
    group_sizes: list[int]
    keys: list[list[int]]
    dc: np.ndarray

    def argmax(self, t: int) -> frozenset[int]:
        col = [k[t] for k in self.keys]
        best = max(col)
        return frozenset(int(i) for i in np.flatnonzero(
            np.asarray([col[g] == best for g in self.group])))

    def ranks(self, t: int) -> list[int]:
        """Competition rank of every node: 1 + #nodes strictly greater."""
        col = [k[t] for k in self.keys]
        order = sorted(range(len(col)), key=lambda g: -col[g])
        above = 0
        rank_of_group = [0] * len(col)
        k = 0
        while k < len(order):
            j = k
            while j < len(order) and col[order[j]] == col[order[k]]:
                j += 1
            for g in order[k:j]:
                rank_of_group[g] = above + 1
            above += sum(self.group_sizes[g] for g in order[k:j])
            k = j
        return [rank_of_group[g] for g in self.group]


def graph_ref(n: int, edges, grid: list[float]) -> GraphRef:
    prof = profiles_of(n, edges)
    uniq, group = np.unique(prof, axis=0, return_inverse=True)
    group = group.reshape(-1)
    sizes = np.bincount(group, minlength=len(uniq)).tolist()
    nz = np.flatnonzero(uniq.any(axis=0))
    depth = int(nz[-1]) + 1 if len(nz) else 0
    rows = [[int(c) for c in row[:depth]] for row in uniq]
    keys: list[list[int]] = [[0] * len(grid) for _ in rows]
    values: list[list[float]] = [[0.0] * len(grid) for _ in rows]
    for t, d in enumerate(grid):
        frac = Fraction(d)
        num, den = frac.numerator, frac.denominator
        den_pow = [den**e for e in range(depth)]
        scale = den**depth
        for g, counts in enumerate(rows):
            # sum_l c_l num^(l-1) den^(depth-l), by Horner from the top level
            acc = 0
            for level in range(depth, 0, -1):
                acc = acc * num + counts[level - 1] * den_pow[depth - level]
            keys[g][t] = acc
            values[g][t] = (acc * num) / scale
    weights = np.arange(1, prof.shape[1] + 1, dtype=np.int64)
    return GraphRef(
        n=n,
        grid=list(grid),
        profiles=prof,
        degrees=prof[:, 0].tolist() if n > 1 else [0],
        farness=(prof @ weights).tolist(),
        group=group,
        group_sizes=sizes,
        keys=keys,
        dc=np.asarray(values, dtype=np.float64)[group],
    )


# ---------------------------------------------------------------------------
# simulate: records.csv and aggregate.csv

RECORD_FLOATS = {"delta", "rank_deg_avg", "rank_clos_avg"}


def _argset(values, pick) -> frozenset[int]:
    best = pick(values)
    return frozenset(i for i, v in enumerate(values) if v == best)


def record_rows(ref: GraphRef, trial: int, rejects: int) -> list[dict[str, str]]:
    """The records.csv rows of one trial, rebuilt from their definitions."""
    deg_set = _argset(ref.degrees, max)
    clos_set = _argset(ref.farness, min)
    core, union = deg_set & clos_set, deg_set | clos_set
    intersects = bool(core)
    rows = []
    sub_deg, sub_clos = [], []
    for t, d in enumerate(ref.grid):
        dset = ref.argmax(t)
        ranks = ref.ranks(t)
        deg_r = [ranks[v] for v in sorted(deg_set)]
        clos_r = [ranks[v] for v in sorted(clos_set)]
        cands = sorted(deg_set if d < 0.5 else clos_set if d > 0.5 else union)
        pick = min(cands, key=lambda v: (ranks[v], v))
        sub_deg.append(dset <= deg_set)
        sub_clos.append(dset <= clos_set)
        rows.append({
            "trial": str(trial),
            "rejects": str(rejects),
            "intersects": str(int(intersects)),
            "delta": fmt_float(d),
            "subset_deg": str(int(dset <= deg_set)),
            "subset_clos": str(int(dset <= clos_set)),
            "subset_core": str(int(intersects and dset <= core)),
            "disjoint": str(int(not (dset & union))),
            "rank_deg_best": str(min(deg_r)),
            "rank_clos_best": str(min(clos_r)),
            "rank_rule": str(ranks[pick]),
            "rank_deg_avg": fmt_float(sum(deg_r) / len(deg_r)),
            "rank_clos_avg": fmt_float(sum(clos_r) / len(clos_r)),
            "rule_pick": str(pick),
        })
    threshold, clean = "", ""
    if sub_clos[-1]:
        start = len(sub_clos) - 1
        while start > 0 and sub_clos[start - 1]:
            start -= 1
        threshold = str(start)
        if not intersects:
            s = 0
            while s < start and sub_deg[s]:
                s += 1
            clean = str(int(all(not sub_deg[i] and not sub_clos[i]
                                for i in range(s, start))))
    for row in rows:
        row["threshold_index"] = threshold
        row["transition_clean"] = clean
    return rows


def rows_match(got: dict[str, str], want: dict[str, str], floats) -> bool:
    for key, value in want.items():
        other = got.get(key)
        if other is None:
            return False
        if key in floats and value and other:
            if not close(float(other), float(value)):
                return False
        elif other != value:
            return False
    return True


def read_csv(path) -> tuple[list[str], list[dict[str, str]]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)


FAMILIES = ("deg_best", "clos_best", "rule", "deg_avg", "clos_avg")


def _nearest_rank(sorted_vals: list[float], q: float) -> float:
    # same float expression as the documented nearest-rank convention
    return sorted_vals[max(1, math.ceil(q * len(sorted_vals))) - 1]


def aggregate_rows(records: list[dict[str, str]], grid: list[float]) -> list[dict[str, str]]:
    """aggregate.csv rebuilt from the records.csv rows (trial order)."""
    by_delta: list[list[dict[str, str]]] = [[] for _ in grid]
    npts = len(grid)
    for k, row in enumerate(records):
        by_delta[k % npts].append(row)
    out = []
    for t, d in enumerate(grid):
        rows = by_delta[t]
        trials = len(rows)
        nonint = [r for r in rows if r["intersects"] == "0"]
        nn = len(nonint)

        def freq(rs, field, base):
            return fmt_float(sum(int(r[field]) for r in rs) / base) if base else ""

        agg = {
            "delta": fmt_float(d),
            "n_trials": str(trials),
            "freq_subset_deg": freq(rows, "subset_deg", trials),
            "freq_subset_clos": freq(rows, "subset_clos", trials),
            "freq_disjoint": freq(rows, "disjoint", trials),
            "n_nonintersect": str(nn),
            "freq_subset_deg_nonint": freq(nonint, "subset_deg", nn),
            "freq_subset_clos_nonint": freq(nonint, "subset_clos", nn),
            "freq_disjoint_nonint": freq(nonint, "disjoint", nn),
        }
        for fam in FAMILIES:
            vals = sorted(float(r[f"rank_{fam}"]) for r in rows)
            agg[f"rank_{fam}_mean"] = fmt_float(sum(vals) / trials)
            agg[f"rank_{fam}_p5"] = fmt_float(_nearest_rank(vals, 0.05))
            agg[f"rank_{fam}_p95"] = fmt_float(_nearest_rank(vals, 0.95))
        out.append(agg)
    return out


AGGREGATE_INTS = {"n_trials", "n_nonintersect"}


def aggregate_floats(header: list[str]) -> set[str]:
    return {h for h in header if h not in AGGREGATE_INTS}


# ---------------------------------------------------------------------------
# compute and compare reports


def fvec(counts: list[int]) -> list[int]:
    """Signed higher-order farness vector (entry 1 is the farness)."""
    top = max((l for l, c in enumerate(counts, start=1) if c), default=0)
    out = []
    for k in range(1, len(counts) + 1):
        total = sum(math.comb(l, k) * counts[l - 1] for l in range(k, top + 1))
        out.append(total if k % 2 == 1 else -total)
    return out


def _lex(a, b, rule):
    for idx, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return {"relation": "greater" if x > y else "less", "rule": rule,
                    "detail": idx}
    return {"relation": "equal", "rule": rule, "detail": None}


def _lex_cvec(fa, fb):
    def cls(f):
        return (f > 0) - (f < 0)
    for idx, (x, y) in enumerate(zip(fa, fb)):
        if x == y:
            continue
        gt = cls(x) > cls(y) if cls(x) != cls(y) else x < y
        return {"relation": "greater" if gt else "less", "rule": "lex-cvec",
                "detail": idx}
    return {"relation": "equal", "rule": "lex-cvec", "detail": None}


def _dominance(a, b, rule):
    sa = sb = 0
    direction, first = 0, None
    for idx, (x, y) in enumerate(zip(a, b)):
        sa, sb = sa + x, sb + y
        if sa == sb:
            continue
        here = 1 if sa > sb else -1
        if direction == 0:
            direction, first = here, idx
        elif here != direction:
            return {"relation": "incomparable", "rule": rule, "detail": idx}
    if direction == 0:
        return {"relation": "equal", "rule": rule, "detail": None}
    return {"relation": "greater" if direction > 0 else "less", "rule": rule,
            "detail": first}


def _prefix_abs_max(diffs: list[int]) -> int:
    """max_k |d_1 + ... + d_k| over k = 2 .. len(diffs) - 1."""
    acc, best = 0, 0
    for k, d in enumerate(diffs[:-1], start=1):
        acc += d
        if k >= 2:
            best = max(best, abs(acc))
    return best


def _low_delta(ci: list[int], cj: list[int]) -> dict:
    diffs = [a - b for a, b in zip(ci, cj)]
    a1 = diffs[0]
    if a1 <= 0:
        return {"applicable": False, "satisfied": []}
    n1 = len(ci)
    a2 = diffs[1] if len(diffs) > 1 else 0
    dist2_j = cj[1] if len(cj) > 1 else 0
    sat = []
    if 2 * a1 >= n1 - cj[0]:
        sat.append(1)
    if 4 * a1 + 2 * a2 >= n1 - (cj[0] + dist2_j):
        sat.append(2)
    if a1 >= max((abs(d) for d in diffs[1:]), default=0):
        sat.append(3)
    if a1 >= _prefix_abs_max(diffs):
        sat.append(4)
    return {"applicable": True, "satisfied": sat}


def _high_delta(fi: list[int], fj: list[int]) -> dict:
    diffs = [a - b for a, b in zip(fi, fj)]
    b1 = diffs[0]
    if b1 >= 0:
        return {"applicable": False, "satisfied": []}
    sat = []
    if -b1 >= max((abs(d) for d in diffs[1:]), default=0):
        sat.append(1)
    if -b1 >= _prefix_abs_max(diffs):
        sat.append(2)
    return {"applicable": True, "satisfied": sat}


def compare_pair(ref: GraphRef) -> tuple[int, int]:
    """The node pair the benchmark compares: the lowest-id max-degree node
    against the lowest-id other node of least farness."""
    i = ref.degrees.index(max(ref.degrees))
    others = [(f, v) for v, f in enumerate(ref.farness) if v != i]
    return i, min(others)[1]


def check_compute(ref: GraphRef, csv_text: str, report: dict, graph_name: str) -> list[str]:
    """Problems found in one ``compute --out --json`` result (empty: ok)."""
    problems: list[str] = []
    grid = ref.grid
    lines = list(csv.reader(io.StringIO(csv_text)))
    header = ["node", "degree", "farness", "closeness"] + [f"dc@{fmt_float(d)}" for d in grid]
    if not lines or lines[0] != header:
        problems.append("compute csv: header differs")
        return problems
    if len(lines) != ref.n + 1:
        problems.append(f"compute csv: {len(lines) - 1} rows, want {ref.n}")
        return problems
    for i, row in enumerate(lines[1:]):
        ok = (row[0] == str(i) and row[1] == str(ref.degrees[i])
              and row[2] == str(ref.farness[i])
              and close(float(row[3]), 1.0 / ref.farness[i])
              and all(close(float(x), float(w)) for x, w in zip(row[4:], ref.dc[i]))
              and len(row) == len(header))
        if not ok:
            problems.append(f"compute csv: row of node {i} differs")
            break
    want_config = {"command": "compute", "graph": graph_name,
                   "grid_points": len(grid), "full": False}
    if report.get("config") != want_config:
        problems.append("compute json: config echo differs")
    if not all(close(g, w) for g, w in zip(report.get("grid", []), grid)) \
            or len(report.get("grid", [])) != len(grid):
        problems.append("compute json: grid differs")
    nodes = report.get("nodes", [])
    if len(nodes) != ref.n:
        problems.append("compute json: node count differs")
    else:
        for i, entry in enumerate(nodes):
            ok = (entry.get("node") == i and entry.get("degree") == ref.degrees[i]
                  and entry.get("farness") == ref.farness[i]
                  and close(entry.get("closeness", 0.0), 1.0 / ref.farness[i])
                  and len(entry.get("dc", [])) == len(grid)
                  and all(close(x, float(w)) for x, w in zip(entry["dc"], ref.dc[i])))
            if not ok:
                problems.append(f"compute json: node {i} differs")
                break
    want_max = {
        "by_degree": sorted(_argset(ref.degrees, max)),
        "by_closeness": sorted(_argset(ref.farness, min)),
        "by_decay": {fmt_float(d): sorted(ref.argmax(t)) for t, d in enumerate(grid)},
    }
    if report.get("maximizers") != want_max:
        problems.append("compute json: maximizer sets differ")
    return problems


def check_compare(ref: GraphRef, report: dict, graph_name: str, i: int, j: int) -> list[str]:
    """Problems found in one ``compare`` result (empty: ok)."""
    problems: list[str] = []
    ci = ref.profiles[i].tolist()
    cj = ref.profiles[j].tolist()
    fi, fj = fvec(ci), fvec(cj)
    want = {
        "config": {"command": "compare", "graph": graph_name, "i": i, "j": j,
                   "grid_points": len(ref.grid)},
        "nodes": {"i": i, "j": j},
        "profiles": {"i": ci, "j": cj},
        "fvecs": {"i": fi, "j": fj},
        "verdicts": {
            "lex_profile": _lex(ci, cj, "lex"),
            "lex_cvec": _lex_cvec(fi, fj),
            "profile_dominance": _dominance(ci, cj, "profile-dominance"),
            "farness_dominance": _dominance(fj, fi, "farness-dominance"),
        },
        "sufficient_conditions": {"low_delta": _low_delta(ci, cj),
                                  "high_delta": _high_delta(fi, fj)},
        "difference_coeffs": {"avec": [a - b for a, b in zip(ci, cj)],
                              "bvec": [a - b for a, b in zip(fi, fj)]},
    }
    for key, value in want.items():
        if report.get(key) != value:
            problems.append(f"compare json: {key} differs")
    curve = report.get("dc_difference_curve", {})
    deltas, diffs = curve.get("delta", []), curve.get("difference", [])
    if len(deltas) != len(ref.grid) or len(diffs) != len(ref.grid):
        problems.append("compare json: curve length differs")
        return problems
    for t, d in enumerate(ref.grid):
        a, b = float(ref.dc[i][t]), float(ref.dc[j][t])
        if not close(deltas[t], d) or not close(diffs[t], a - b, scale=max(a, b)):
            problems.append(f"compare json: curve differs at delta={d}")
            break
    return problems


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
