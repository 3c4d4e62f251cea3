"""Monte-Carlo harness: maximizer-set relations across a decay-parameter grid.

One trial samples a connected G(n, p) graph and records, at every grid
value, how the decay-centrality maximizer set relates to the max-degree and
max-closeness sets, together with decay ranks of three selection policies
(best max-degree node, best max-closeness node, and the 0.5-threshold rule
of thumb).  Aggregation produces per-delta frequencies over all trials and
over the subpopulation where the degree and closeness sets are disjoint,
plus mean / 5th / 95th-percentile rank curves.

Trials are pure functions of ``(config, trial_index)``; running them on any
number of workers yields byte-identical output files.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from functools import partial
from itertools import repeat
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

# dc_difference_sign and decay_matrix are unused: perfbench/tracing.py lookup sites
from .centrality import DeltaGrid, dc_difference_sign, decay_matrix
from .generation import (
    DEFAULT_MAX_REJECTS,
    RejectionLimitError,
    TrialSeed,
    sample_connected_gnp,
    validate_np,
)
from .graph import Graph, profile_groups, profile_matrix
from .io import with_envelope
from .ordering import decay_argmax_sets, decay_ranks, degree_closeness_winners


class AllTrialsFailedError(RuntimeError):
    """Raised by :func:`run_experiment` when every trial exhausted its
    rejection budget.  ``records.csv`` is then left holding its header row
    only; ``aggregate.csv`` and ``summary.json`` are not written."""


@dataclass(frozen=True)
class TrialRecord:
    """Everything recorded about one simulated graph.

    The per-delta tuples are aligned with the grid.  ``subset_core`` tracks
    containment in the *intersection* of the degree and closeness sets;
    ``disjoint`` means the decay maximizers avoid their union entirely.
    ``threshold_index`` is the first grid index from which containment in
    the closeness set persists to the end of the grid (absent when it does
    not); ``transition_clean`` reports, for trials whose degree and
    closeness sets are disjoint, whether the flag pattern along the grid is
    exactly degree-prefix, neither-zone, closeness-tail.
    """

    trial_index: int
    rejects: int
    intersects: bool
    subset_deg: tuple[bool, ...]
    subset_clos: tuple[bool, ...]
    subset_core: tuple[bool, ...]
    disjoint: tuple[bool, ...]
    rank_deg_best: tuple[int, ...]
    rank_clos_best: tuple[int, ...]
    rank_rule: tuple[int, ...]
    rank_deg_avg: tuple[float, ...]
    rank_clos_avg: tuple[float, ...]
    rule_pick: tuple[int, ...]
    threshold_index: int | None
    transition_clean: bool | None

    @property
    def escapes_core(self) -> bool:
        """True when the sets intersect yet some grid value pushes the decay
        maximizers outside the intersection."""
        return self.intersects and not all(self.subset_core)

    @property
    def disjoint_somewhere(self) -> bool:
        """True when some grid value's decay maximizers avoid both sets."""
        return any(self.disjoint)


#: ``records.csv``'s per-delta columns after ``delta``, in file order: the
#: grid-aligned :class:`TrialRecord` fields, each with its ``%`` format
#: (``"%.9g" % x`` spells a float as :func:`decaycent.io.fmt_float` does).
RECORD_COLUMNS = (
    ("subset_deg", "%d"), ("subset_clos", "%d"), ("subset_core", "%d"), ("disjoint", "%d"),
    ("rank_deg_best", "%d"), ("rank_clos_best", "%d"), ("rank_rule", "%d"),
    ("rank_deg_avg", "%.9g"), ("rank_clos_avg", "%.9g"), ("rule_pick", "%d"),
)

#: The 0/1 flags whose per-delta counts ``aggregate.csv`` reports as
#: frequencies, over all trials and over the non-intersecting ones (the
#: :class:`AggregateStats` fields ``n_<flag>`` and ``n_<flag>_nonint``).
FLAG_COLUMNS = ("subset_deg", "subset_clos", "disjoint")

#: The ranks whose per-delta mean and nearest-rank 5th / 95th percentiles
#: ``aggregate.csv`` reports, in file order (one :class:`RankStats` field of
#: :class:`AggregateStats` each).
RANK_COLUMNS = ("rank_deg_best", "rank_clos_best", "rank_rule", "rank_deg_avg",
                "rank_clos_avg")


def _detect_threshold(
    subset_deg: Sequence[bool], subset_clos: Sequence[bool], intersects: bool
) -> tuple[int | None, bool | None]:
    """Persistence start of the closeness containment, plus pattern
    cleanliness for disjoint-set trials (None when not applicable)."""
    npts = len(subset_clos)
    if not subset_clos[-1]:
        return None, None
    t = npts - 1
    while t > 0 and subset_clos[t - 1]:
        t -= 1
    if intersects:
        return t, None
    s = 0
    while s < t and subset_deg[s]:
        s += 1
    clean = all(
        not subset_deg[i] and not subset_clos[i] for i in range(s, t)
    )
    return t, clean


def run_trial(
    g: Graph,
    grid: DeltaGrid,
    *,
    trial_index: int = 0,
    rejects: int = 0,
) -> TrialRecord:
    """Evaluate one connected graph over the whole grid.

    Nodes with one distance profile share their degree, farness and decay
    value at every delta, so every set, flag and rank is worked out on the
    graph's profile groups (:func:`profile_groups`): the argmax sets and
    ranks cover the ``K`` distinct rows.
    """
    profiles = profile_matrix(g)
    first, _, sizes = profile_groups(profiles)
    rows = profiles[first]
    in_deg, in_clos = degree_closeness_winners(rows)
    deg_groups = frozenset(np.flatnonzero(in_deg).tolist())
    clos_groups = frozenset(np.flatnonzero(in_clos).tolist())
    core = deg_groups & clos_groups
    union = deg_groups | clos_groups
    intersects = bool(core)

    dc_sets = decay_argmax_sets(rows, grid)

    subset_deg = [s <= deg_groups for s in dc_sets]
    subset_clos = [s <= clos_groups for s in dc_sets]
    subset_core = [intersects and s <= core for s in dc_sets]
    disjoint = [not (s & union) for s in dc_sets]

    members = np.array(sorted(union))
    ranks = decay_ranks(rows, sizes, grid, members)
    in_deg, in_clos, weight = in_deg[members], in_clos[members], sizes[members]
    deg_rows = ranks[in_deg]
    clos_rows = ranks[in_clos]
    rank_deg_best = deg_rows.min(axis=0).tolist()
    rank_clos_best = clos_rows.min(axis=0).tolist()
    # node means: integer sums below 2**53, so equal to a mean over nodes
    rank_deg_avg = (weight[in_deg] @ deg_rows / weight[in_deg].sum()).tolist()
    rank_clos_avg = (weight[in_clos] @ clos_rows / weight[in_clos].sum()).tolist()

    # rule of thumb: the max-degree set below 1/2, the max-closeness set
    # above, their union at 1/2.  Candidates share a rank only when their
    # decay values tie exactly; the pick is then the lowest node id.
    deltas = grid.array
    candidate = (
        in_deg[:, None] & (deltas <= 0.5) | in_clos[:, None] & (deltas >= 0.5)
    )
    candidate_ranks = np.where(candidate, ranks, g.n + 1)
    rank_rule = candidate_ranks.min(axis=0)
    at_best = candidate_ranks == rank_rule
    rule_pick = np.where(at_best, first[members][:, None], g.n).min(axis=0).tolist()
    rank_rule = rank_rule.tolist()

    threshold_index, transition_clean = _detect_threshold(
        subset_deg, subset_clos, intersects
    )
    return TrialRecord(
        trial_index=trial_index,
        rejects=rejects,
        intersects=intersects,
        subset_deg=tuple(subset_deg),
        subset_clos=tuple(subset_clos),
        subset_core=tuple(subset_core),
        disjoint=tuple(disjoint),
        rank_deg_best=tuple(rank_deg_best),
        rank_clos_best=tuple(rank_clos_best),
        rank_rule=tuple(rank_rule),
        rank_deg_avg=tuple(rank_deg_avg),
        rank_clos_avg=tuple(rank_clos_avg),
        rule_pick=tuple(rule_pick),
        threshold_index=threshold_index,
        transition_clean=transition_clean,
    )


@dataclass(frozen=True)
class RankStats:
    """Per-delta mean and nearest-rank 5th / 95th percentiles."""

    mean: tuple[float, ...]
    p5: tuple[float, ...]
    p95: tuple[float, ...]


@dataclass(frozen=True)
class AggregateStats:
    """Aggregated frequencies and rank statistics for one (n, p) batch."""

    trials: int
    grid: DeltaGrid
    count_intersect: int
    count_intersect_dc_escapes: int
    count_nonintersect: int
    count_disjoint_any_delta: int
    count_threshold: int
    count_transition_clean: int
    count_transition_violations: int
    n_subset_deg: tuple[int, ...]
    n_subset_clos: tuple[int, ...]
    n_disjoint: tuple[int, ...]
    n_subset_deg_nonint: tuple[int, ...]
    n_subset_clos_nonint: tuple[int, ...]
    n_disjoint_nonint: tuple[int, ...]
    rank_deg_best: RankStats
    rank_clos_best: RankStats
    rank_rule: RankStats
    rank_deg_avg: RankStats
    rank_clos_avg: RankStats


def nearest_rank_percentile(sorted_vals: np.ndarray, q: float) -> np.ndarray:
    """Nearest-rank percentile per column of a pre-sorted sample matrix."""
    idx = max(1, math.ceil(q * sorted_vals.shape[0]))
    return sorted_vals[idx - 1]


def _stack(records: Sequence[TrialRecord], columns: Sequence[str], dtype) -> np.ndarray:
    """The named per-delta fields as one (trials, columns, grid) array."""
    return np.array([[getattr(rec, c) for c in columns] for rec in records], dtype=dtype)


def aggregate(records: Sequence[TrialRecord], grid: DeltaGrid) -> AggregateStats:
    """Fold trial records (in trial order) into frequency and rank curves."""
    if not records:
        raise ValueError("cannot aggregate an empty record list")
    flags = _stack(records, FLAG_COLUMNS, np.int64)
    if flags.shape[2] != len(grid):
        raise ValueError("record grid length does not match the grid")

    nonint = [not rec.intersects for rec in records]
    counts = flags.sum(axis=0).tolist()
    counts_nonint = flags[nonint].sum(axis=0).tolist()
    ranks = _stack(records, RANK_COLUMNS, np.float64)
    means = ranks.mean(axis=0).tolist()
    ranks.sort(axis=0)
    p5 = nearest_rank_percentile(ranks, 0.05).tolist()
    p95 = nearest_rank_percentile(ranks, 0.95).tolist()
    clean = [rec.transition_clean for rec in records if not rec.intersects]

    return AggregateStats(
        trials=len(records),
        grid=grid,
        count_intersect=nonint.count(False),
        count_intersect_dc_escapes=sum(1 for rec in records if rec.escapes_core),
        count_nonintersect=len(clean),
        count_disjoint_any_delta=sum(1 for rec in records if rec.disjoint_somewhere),
        count_threshold=sum(1 for rec in records if rec.threshold_index is not None),
        count_transition_clean=clean.count(True),
        count_transition_violations=clean.count(False),
        **{f"n_{c}": tuple(row) for c, row in zip(FLAG_COLUMNS, counts)},
        **{f"n_{c}_nonint": tuple(row) for c, row in zip(FLAG_COLUMNS, counts_nonint)},
        **{c: RankStats(tuple(m), tuple(lo), tuple(hi))
           for c, m, lo, hi in zip(RANK_COLUMNS, means, p5, p95)},
    )


@dataclass(frozen=True)
class SimulationConfig:
    """Inputs of one experiment batch; results are a pure function of it."""

    n: int
    p: float
    trials: int
    seed: int
    grid_points: int = 99
    workers: int = 1
    max_rejects: int = DEFAULT_MAX_REJECTS

    def __post_init__(self) -> None:
        # checked here, before run_experiment creates any file, by the
        # sampler's, the seed's and the grid's own rules
        validate_np(self.n, self.p)
        TrialSeed(self.seed, 0)
        self.grid()
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.workers < 1:
            raise ValueError("need at least one worker")
        if self.max_rejects < 0:
            raise ValueError(f"max_rejects must be non-negative, got {self.max_rejects}")

    def grid(self) -> DeltaGrid:
        return DeltaGrid.uniform(self.grid_points)


def _run_single(config: SimulationConfig, trial_index: int):
    seed = TrialSeed(config.seed, trial_index)
    try:
        graph, rejects = sample_connected_gnp(
            config.n, config.p, seed, config.max_rejects
        )
    except RejectionLimitError:
        return trial_index, None
    return trial_index, run_trial(
        graph, config.grid(), trial_index=trial_index, rejects=rejects
    )


def iter_trials(config: SimulationConfig) -> Iterator[tuple[int, TrialRecord | None]]:
    """Yield ``(trial_index, record-or-None)`` in trial order.

    ``None`` marks a trial whose generation exhausted the rejection budget.
    Worker count affects scheduling only, never content or order.
    """
    workers = min(config.workers, config.trials)
    if workers == 1:
        for ti in range(config.trials):
            yield _run_single(config, ti)
        return
    # imported here only, so a serial run and the CLI's start-up skip it
    import multiprocessing

    chunk = max(1, min(64, config.trials // (workers * 4) or 1))
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=workers) as pool:
        yield from pool.imap(
            partial(_run_single, config), range(config.trials), chunksize=chunk
        )


RECORDS_HEADER = ["trial", "rejects", "intersects", "threshold_index", "transition_clean",
                  "delta", *(name for name, _ in RECORD_COLUMNS)]

#: The fields of a ``records.csv`` line after the trial's own five.
_RECORD_ROW = "%.9g," + ",".join(fmt for _, fmt in RECORD_COLUMNS) + "\n"


def _record_rows(rec: TrialRecord, grid: DeltaGrid) -> str:
    """The trial's ``records.csv`` lines, one per grid point."""
    thr = "" if rec.threshold_index is None else str(rec.threshold_index)
    clean = "" if rec.transition_clean is None else str(int(rec.transition_clean))
    head = f"{rec.trial_index},{rec.rejects},{int(rec.intersects)},{thr},{clean},"
    columns = (getattr(rec, name) for name, _ in RECORD_COLUMNS)
    return "".join(head + _RECORD_ROW % values for values in zip(grid.values, *columns))


AGGREGATE_HEADER = [
    "delta", "n_trials", *(f"freq_{c}" for c in FLAG_COLUMNS),
    "n_nonintersect", *(f"freq_{c}_nonint" for c in FLAG_COLUMNS),
    *(f"{c}_{stat.name}" for c in RANK_COLUMNS for stat in fields(RankStats)),
]


def _aggregate_rows(agg: AggregateStats) -> str:
    """The ``aggregate.csv`` lines, one per grid point; the
    non-intersecting frequencies are empty when no trial had disjoint
    degree and closeness sets."""
    t, nn = agg.trials, agg.count_nonintersect
    freqs = [[c / t for c in getattr(agg, f"n_{f}")] for f in FLAG_COLUMNS]
    freqs_nonint = [[c / nn for c in getattr(agg, f"n_{f}_nonint")]
                    for f in FLAG_COLUMNS if nn]
    stats = [getattr(getattr(agg, c), stat.name)
             for c in RANK_COLUMNS for stat in fields(RankStats)]
    row = ("%.9g,%d" + ",%.9g" * len(freqs) + ",%d"
           + (",%.9g" if nn else ",") * len(freqs) + ",%.9g" * len(stats) + "\n")
    return "".join(row % values for values in zip(
        agg.grid.values, repeat(t), *freqs, repeat(nn), *freqs_nonint, *stats))


@dataclass(frozen=True)
class ExperimentResult:
    aggregate: AggregateStats
    failed_trials: tuple[int, ...]
    records_path: Path
    aggregate_path: Path
    summary_path: Path


def run_experiment(config: SimulationConfig, out_dir: str | Path) -> ExperimentResult:
    """Run the batch, streaming records to disk, then write the aggregate
    and summary.  Identical configs produce byte-identical CSV files at any
    worker count.  Raises :class:`AllTrialsFailedError` when no trial
    succeeded."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = config.grid()
    records_path = out / "records.csv"
    aggregate_path = out / "aggregate.csv"
    summary_path = out / "summary.json"

    records: list[TrialRecord] = []
    failed: list[int] = []
    with records_path.open("w", newline="") as fh:
        fh.write(",".join(RECORDS_HEADER) + "\n")
        for ti, rec in iter_trials(config):
            if rec is None:
                failed.append(ti)
                continue
            records.append(rec)
            fh.write(_record_rows(rec, grid))

    if not records:
        raise AllTrialsFailedError(
            f"all {config.trials} trials found no connected G({config.n}, "
            f"{config.p}) sample within max_rejects={config.max_rejects}; raise "
            f"the budget or the link probability ({records_path} holds only "
            "its header)"
        )

    agg = aggregate(records, grid)
    with aggregate_path.open("w", newline="") as fh:
        fh.write(",".join(AGGREGATE_HEADER) + "\n" + _aggregate_rows(agg))

    summary_path.write_text(with_envelope(asdict(config), {
        "results": {
            "trials_requested": config.trials,
            "trials_succeeded": agg.trials,
            "failed_trials": failed,
            **{f.name: getattr(agg, f.name) for f in fields(AggregateStats)
               if f.name.startswith("count_")},
        },
    }))
    return ExperimentResult(
        aggregate=agg,
        failed_trials=tuple(failed),
        records_path=records_path,
        aggregate_path=aggregate_path,
        summary_path=summary_path,
    )
