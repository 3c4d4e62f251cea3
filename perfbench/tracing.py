"""Spans around the calls into each ``decaycent`` layer, recorded from the
benchmark's side.

:class:`Tracer` swaps the public functions named in :data:`TARGETS` for
wrappers at the module attributes where callers look them up, records one
span per call in memory, and puts the originals back on exit.  The exact
decay comparison (``dc_difference_sign``) is only counted, since it can
run thousands of times per graph.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: (module, attribute, span name).  One function can be looked up through
#: several modules; each lookup site gets its own wrapper.
TARGETS = (
    ("decaycent.cli", "run_experiment", "simulation.run_experiment"),
    ("decaycent.simulation", "sample_connected_gnp", "generation.sample"),
    ("decaycent.simulation", "run_trial", "simulation.trial"),
    ("decaycent.simulation", "aggregate", "simulation.aggregate"),
    ("decaycent.simulation", "profile_matrix", "graph.profile"),
    ("decaycent.ordering", "profile_matrix", "graph.profile"),
    ("decaycent.graph", "profile_matrix", "graph.profile"),
    ("decaycent.graph", "distance_matrix", "graph.distance"),
    ("decaycent.simulation", "decay_matrix", "centrality.decay_matrix"),
    ("decaycent.ordering", "decay_matrix", "centrality.decay_matrix"),
    ("decaycent.simulation", "decay_argmax_sets", "ordering.argmax"),
    ("decaycent.ordering", "decay_argmax_sets", "ordering.argmax"),
    ("decaycent.centrality.DeltaGrid", "fractions", "centrality.fractions"),
    ("decaycent.cli", "centrality_table", "centrality.table"),
    ("decaycent.cli", "maximizer_sets", "ordering.maximizer_sets"),
    ("decaycent.cli", "read_graph", "io.read_graph"),
    ("decaycent.cli", "centrality_csv", "io.centrality_csv"),
    ("decaycent.cli", "centrality_payload", "io.payload"),
)

COUNTED = (
    ("decaycent.ordering", "dc_difference_sign"),
    ("decaycent.simulation", "dc_difference_sign"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    root: int
    exact_calls: int = 0
    rejects: int | None = None
    children: list[int] = field(default_factory=list)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def _resolve(path: str):
    """Module or class object for a dotted path."""
    head, _, tail = path.rpartition(".")
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        return getattr(importlib.import_module(head), tail)


class Tracer:
    """Spans and counts of one run; the first ``keep_graphs`` sampled
    graphs are kept for the replay."""

    def __init__(self, keep_graphs: int = 0) -> None:
        self.spans: list[Span] = []
        self.exact_calls = 0
        self._stack: list[int] = []
        self.graphs: list = []
        self.keep_graphs = keep_graphs

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        root = sid if parent is None else self.spans[parent].root
        span = Span(name, time.perf_counter(), 0.0, parent, root, self.exact_calls)
        self.spans.append(span)
        if parent is not None:
            self.spans[parent].children.append(sid)
        self._stack.append(sid)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()
            span.exact_calls = self.exact_calls - span.exact_calls

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name) as span:
                out = fn(*args, **kwargs)
            if name == "generation.sample":
                span.rejects = out[1]
                if len(self.graphs) < self.keep_graphs:
                    self.graphs.append(out[0])
            return out
        return traced

    def _count(self, fn):
        def counted(*args, **kwargs):
            self.exact_calls += 1
            return fn(*args, **kwargs)
        return counted

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for path, attr, name in TARGETS:
                owner = _resolve(path)
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, self._wrap(getattr(owner, attr), name))
            for path, attr in COUNTED:
                owner = _resolve(path)
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, self._count(getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def by_name(self, *names: str) -> list[Span]:
        """Spans of these names: those under a traced CLI call when there
        are any, else those of the replay."""
        spans = [s for s in self.spans if s.name in names]
        cli = [s for s in spans if self.spans[s.root].name.startswith("cli.")]
        return cli or spans

    def self_ms(self, span: Span) -> float:
        return span.ms - sum(self.spans[c].ms for c in span.children)

    def child_ms(self, span: Span, names: set[str]) -> float:
        return sum(self.spans[c].ms for c in span.children
                   if self.spans[c].name in names)

    def dump(self) -> list[dict]:
        t0 = self.spans[0].start if self.spans else 0.0
        return [
            {"id": k, "name": s.name, "start_ms": (s.start - t0) * 1e3,
             "end_ms": (s.end - t0) * 1e3, "parent": s.parent,
             **({"exact_calls": s.exact_calls} if s.exact_calls else {}),
             **({"rejects": s.rejects} if s.rejects is not None else {})}
            for k, s in enumerate(self.spans)
        ]
