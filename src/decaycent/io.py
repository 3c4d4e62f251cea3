"""Graph file ingestion and report serialization.

Two graph formats:

* edge-list text: first line ``n m``, then ``m`` lines ``u v`` with
  0-based whitespace-separated endpoints;
* JSON: ``{"n": int, "edges": [[u, v], ...]}``.

Every JSON report is written through :func:`with_envelope`, which adds
the config echo, version string, and conventions block.

The report text is byte-identical to ``json.dumps(obj, indent=2,
sort_keys=True)``, but does not come from it: with ``indent`` set, the
stdlib drops to its pure-Python encoder, which visits every float of a
99-point decay row one at a time.  :func:`json_text` walks the containers
itself and hands the scalar items of each container to the C encoder in
one call, with the indented item separator ``",\n" + indent``.  Only
scalars may go there: the C encoder knows no indentation, so a nested
container would come out on one line.  A nested item is therefore sent
as ``null`` and its line is completed with the item's own text.  The
encoder escapes every control character inside strings, so a raw newline
in its output can only come from the separator, and the items can be
split apart again.
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
    except (ValueError, MemoryError, OverflowError) as exc:
        # the last two: a node count too large for the CSR arrays
        raise GraphParseError(f"{name}: {exc}") from None


def edgelist_text(g: Graph) -> str:
    lines = [f"{g.n} {g.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in g.edges.tolist())
    return "\n".join(lines) + "\n"


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
    except (TypeError, ValueError, MemoryError, OverflowError) as exc:
        raise GraphParseError(f"{name}: {exc}") from None


def read_graph(path: str | Path, fmt: str = "auto") -> Graph:
    """Load a graph file; ``fmt`` is ``edgelist``, ``json``, or ``auto``
    (extension, then a leading ``{`` sniff)."""
    path = Path(path)
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise GraphParseError(f"{path}: not UTF-8 text: {exc}") from None
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


def fmt_float(x: float) -> str:
    return format(float(x), ".9g")


_PLAIN_TYPES = frozenset((str, int, float, bool, type(None)))


def _all_plain(items) -> bool:
    return _PLAIN_TYPES.issuperset(map(type, items))


def jsonable(obj: Any) -> Any:
    """Recursively convert package types to JSON-encodable values.  A list
    of plain scalars is returned as it is, not copied."""
    if type(obj) in _PLAIN_TYPES:
        return obj
    if type(obj) is list and _all_plain(obj):
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


def json_text(obj: Any, indent: str = "") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` of a :func:`jsonable`
    value (dict keys are strings), with every line after the first shifted
    right by ``indent``."""
    if isinstance(obj, dict):
        keys = sorted(obj)
        values = [obj[k] for k in keys]
    elif isinstance(obj, (list, tuple)):
        keys = None
        values = obj
    else:
        return json.dumps(obj)
    if not values:
        return "{}" if keys is not None else "[]"
    inner = indent + "  "
    sep = ",\n" + inner
    nested = [] if _all_plain(values) else [
        i for i, v in enumerate(values) if isinstance(v, (dict, list, tuple))
    ]
    if nested:
        values = list(values)
        for i in nested:
            values[i] = None
    body = json.dumps(values if keys is None else dict(zip(keys, values)),
                      separators=(sep, ": "))
    opening, body, closing = body[0], body[1:-1], body[-1]
    if nested:
        items = body.split(sep)
        for i in nested:
            items[i] = items[i][:-4] + json_text(obj[i if keys is None else keys[i]], inner)
        body = sep.join(items)
    return f"{opening}\n{inner}{body}\n{indent}{closing}"


def with_envelope(config_echo: dict[str, Any], payload: dict[str, Any]) -> str:
    """JSON text of a report: the payload under the standard metadata block,
    indented and key-sorted, with a final newline."""
    out = {
        "config": jsonable(config_echo),
        "version": version_string(),
        "conventions": conventions(),
    }
    out.update(jsonable(payload))
    return json_text(out) + "\n"


def centrality_csv(table: CentralityTable, grid: DeltaGrid) -> str:
    """CSV rows ``node,degree,farness,closeness,dc@...`` for every node,
    with the decay values of ``table.decay_values(grid)``, which a later
    :func:`centrality_payload` on the same table and grid reuses.

    Each row is one ``%`` template: ``"%.9g" % x`` spells every float,
    special values included, as :func:`fmt_float` does."""
    header = ["node", "degree", "farness", "closeness"] + [
        f"dc@{fmt_float(d)}" for d in grid.values
    ]
    row = "%d,%d,%d" + ",%.9g" * (len(grid.values) + 1)
    lines = [",".join(header)]
    lines.extend(
        row % (i, degree, far, 1.0 / far, *dcs)
        for i, (degree, far, dcs) in enumerate(
            zip(table.degrees, table.farness, table.decay_values(grid).tolist()))
    )
    return "\n".join(lines) + "\n"


def centrality_payload(table: CentralityTable, grid: DeltaGrid, maximizers: MaximizerSets,
                       full: bool = False) -> dict[str, Any]:
    """JSON payload for the centrality report; ``full`` adds the profile and
    signed-farness / reciprocal vectors per node.  The decay values come
    from ``table.decay_values(grid)``, so a :func:`centrality_csv` of the
    same table and grid has already built them."""
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
            entry["profile"] = table.profile(i)
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
