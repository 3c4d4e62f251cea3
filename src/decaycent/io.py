"""Graph file ingestion and report serialization.

Two graph formats:

* edge-list text: first line ``n m``, then ``m`` lines ``u v`` with
  0-based whitespace-separated endpoints;
* JSON: ``{"n": int, "edges": [[u, v], ...]}``.

Every JSON report is written through :func:`with_envelope`, which adds
the config echo, version string, and conventions block.
"""

from __future__ import annotations

import json
from enum import Enum
from fractions import Fraction
from itertools import chain
from pathlib import Path
from typing import Any

import numpy as np

from .centrality import CentralityTable, DeltaGrid, cvec_from_fvec
from .graph import Graph, build_graph
from .meta import conventions, version_string
from .ordering import MaximizerSets


class GraphParseError(ValueError):
    """Malformed graph file; the message names file and line."""


def parse_edgelist(text: str, name: str = "<edgelist>") -> Graph:
    lines = text.splitlines()
    header_at = None
    for lineno, raw in enumerate(lines, start=1):
        if raw.strip():
            header_at = lineno
            break
    if header_at is None:
        raise GraphParseError(f"{name}:1: empty file, expected a 'n m' header")
    parts = lines[header_at - 1].split()
    if len(parts) != 2:
        raise GraphParseError(
            f"{name}:{header_at}: expected header 'n m', got {lines[header_at - 1]!r}"
        )
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphParseError(
            f"{name}:{header_at}: header values must be integers"
        ) from None
    edges: list[tuple[int, int]] = []
    lineno = header_at
    for raw in lines[header_at:]:
        lineno += 1
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 2:
            raise GraphParseError(
                f"{name}:{lineno}: expected two node ids, got {raw!r}"
            )
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(
                f"{name}:{lineno}: expected two integers, got {raw!r}"
            ) from None
        edges.append((u, v))
    if len(edges) != m:
        raise GraphParseError(
            f"{name}:{lineno}: header promised {m} edges, found {len(edges)}"
        )
    try:
        return build_graph(n, edges)
    except ValueError as exc:
        raise GraphParseError(f"{name}: {exc}") from None


def edgelist_text(g: Graph) -> str:
    lines = [f"{g.n} {g.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in g.edges.tolist())
    return "\n".join(lines) + "\n"


def graph_to_json_dict(g: Graph) -> dict[str, Any]:
    return {"n": g.n, "edges": g.edges.tolist()}


def graph_from_json_dict(data: Any, name: str = "<json>") -> Graph:
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise GraphParseError(f"{name}: expected an object with 'n' and 'edges'")
    try:
        edges = [tuple(e) for e in data["edges"]]
        for value in (data["n"], *chain.from_iterable(edges)):
            # int() would truncate 1.9 to 1, and a bool is an int subclass
            if type(value) is not int:
                raise TypeError(
                    f"node count and endpoints must be JSON integers, got {value!r}"
                )
        return build_graph(data["n"], edges)
    except (TypeError, ValueError) as exc:
        raise GraphParseError(f"{name}: {exc}") from None


def read_graph(path: str | Path, fmt: str = "auto") -> Graph:
    """Load a graph file; ``fmt`` is ``edgelist``, ``json``, or ``auto``
    (extension, then a leading ``{`` sniff)."""
    path = Path(path)
    text = path.read_text()
    if fmt == "auto":
        if path.suffix.lower() == ".json" or text.lstrip().startswith("{"):
            fmt = "json"
        else:
            fmt = "edgelist"
    if fmt == "json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphParseError(f"{path}: invalid JSON: {exc}") from None
        return graph_from_json_dict(data, name=str(path))
    if fmt == "edgelist":
        return parse_edgelist(text, name=str(path))
    raise ValueError(f"unknown graph format {fmt!r}")


def write_edgelist(g: Graph, path: str | Path) -> None:
    Path(path).write_text(edgelist_text(g))


def write_graph_json(g: Graph, path: str | Path) -> None:
    Path(path).write_text(json.dumps(graph_to_json_dict(g), indent=2) + "\n")


def fmt_float(x: float) -> str:
    return format(float(x), ".9g")


_PLAIN_TYPES = frozenset((str, int, float, bool, type(None)))


def jsonable(obj: Any) -> Any:
    """Recursively convert package types to JSON-encodable values."""
    if type(obj) in _PLAIN_TYPES:
        return obj
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    if isinstance(obj, (frozenset, set)):
        return sorted(jsonable(v) for v in obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if hasattr(obj, "__dataclass_fields__"):
        return {
            k: jsonable(getattr(obj, k)) for k in obj.__dataclass_fields__
        }
    return obj


def with_envelope(config_echo: dict[str, Any], payload: dict[str, Any]) -> str:
    """JSON text of a report: the payload under the standard metadata block,
    indented and key-sorted, with a final newline."""
    out = {
        "config": jsonable(config_echo),
        "version": version_string(),
        "conventions": conventions(),
    }
    out.update(jsonable(payload))
    return json.dumps(out, indent=2, sort_keys=True) + "\n"


def centrality_csv(table: CentralityTable, grid: DeltaGrid) -> str:
    """CSV rows ``node,degree,farness,closeness,dc@...`` for every node."""
    header = ["node", "degree", "farness", "closeness"] + [
        f"dc@{fmt_float(d)}" for d in grid.values
    ]
    lines = [",".join(header)]
    for i, dcs in enumerate(table.decay_values(grid).tolist()):
        row = [
            str(i),
            str(table.degrees[i]),
            str(table.farness[i]),
            fmt_float(1.0 / table.farness[i]),
        ] + [fmt_float(v) for v in dcs]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def centrality_payload(
    table: CentralityTable,
    grid: DeltaGrid,
    maximizers: MaximizerSets,
    full: bool = False,
) -> dict[str, Any]:
    """JSON payload for the centrality report; ``full`` adds the profile and
    signed-farness / reciprocal vectors per node."""
    nodes = []
    for i, dcs in enumerate(table.decay_values(grid).tolist()):
        entry: dict[str, Any] = {
            "node": i,
            "degree": table.degrees[i],
            "farness": table.farness[i],
            "closeness": 1.0 / table.farness[i],
            "dc": dcs,
        }
        if full:
            entry["profile"] = table.counts[i].tolist()
            entry["fvec"] = list(table.fvecs[i])
            entry["cvec"] = list(cvec_from_fvec(table.fvecs[i]))
        nodes.append(entry)
    return {
        "grid": list(grid.values),
        "nodes": nodes,
        "maximizers": {
            "by_degree": sorted(maximizers.by_degree),
            "by_closeness": sorted(maximizers.by_closeness),
            "by_decay": {
                fmt_float(d): sorted(s)
                for d, s in zip(grid.values, maximizers.by_decay)
            },
        },
    }
