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
split apart again.  The encoder of each separator is made once.

``compute``'s writers spell each value once per profile group
(:attr:`CentralityTable.groups`), since the nodes of one group share their
degree, farness and decay row.  :func:`centrality_csv` formats one
``degree,farness,closeness,dc...`` tail per group and prefixes each node's
id, and the nodes of one group in :func:`centrality_payload` share one
``dc`` list (and, in the full report, one profile, ``fvec`` and ``cvec``
list), as the grid points with one decay maximizer set share its sorted
list.  :func:`json_text` writes such a shared list once per indentation:
it keeps the text of every list of plain scalars it has written, keyed by
the list's ``id`` and its indent, and reuses it for the same list at the
same indent.  An ``id`` is a valid key because the value being written
holds every object it contains until the call returns.  Only such leaf
lists are kept: keeping the text of every container would hold most of
the report twice.
"""

from __future__ import annotations

import json
from enum import Enum
from fractions import Fraction
from functools import lru_cache
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
    numbered = [(lineno, raw) for lineno, raw in enumerate(lines, start=1) if raw.strip()]
    if not numbered:
        raise GraphParseError(f"{name}:1: empty file, expected a 'n m' header")
    (header_at, header), *rows = numbered
    parts = header.split()
    if len(parts) != 2:
        raise GraphParseError(f"{name}:{header_at}: expected header 'n m', got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphParseError(
            f"{name}:{header_at}: header values must be integers"
        ) from None
    edges: list[tuple[int, int]] = []
    for lineno, raw in rows:
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
            f"{name}:{len(lines)}: header promised {m} edges, found {len(edges)}"
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


@lru_cache(maxsize=64)
def _encoder(sep: str):
    """The C encoder's ``encode`` with item separator ``sep``, one per
    indentation level.  It sees one container level at a time, so it needs
    no check for cycles."""
    return json.JSONEncoder(separators=(sep, ": "), check_circular=False).encode


def json_text(obj: Any, indent: str = "") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` of a :func:`jsonable`
    value (dict keys are strings), with every line after the first shifted
    right by ``indent``."""
    return _json_text(obj, indent, {})


def _json_text(obj: Any, indent: str, leaves: dict[tuple[int, str], str]) -> str:
    """:func:`json_text`; ``leaves`` holds the text of each list of plain
    scalars written so far, keyed by ``(id(list), indent)``."""
    if isinstance(obj, dict):
        keys = sorted(obj)
        values = [obj[k] for k in keys]
    elif isinstance(obj, (list, tuple)):
        text = leaves.get((id(obj), indent))
        if text is not None:
            return text
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
    body = _encoder(sep)(values if keys is None else dict(zip(keys, values)))
    opening, body, closing = body[0], body[1:-1], body[-1]
    if nested:
        items = body.split(sep)
        for i in nested:
            value = obj[i if keys is None else keys[i]]
            items[i] = items[i][:-4] + _json_text(value, inner, leaves)
        body = sep.join(items)
    text = f"{opening}\n{inner}{body}\n{indent}{closing}"
    if keys is None and not nested:
        leaves[id(obj), indent] = text
    return text


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

    Each profile group's ``,degree,farness,closeness,dc...`` tail is one
    ``%`` template: ``"%.9g" % x`` spells every float, special values
    included, as :func:`fmt_float` does.  A node's row is its id and its
    group's tail."""
    header = ["node", "degree", "farness", "closeness"] + [
        f"dc@{fmt_float(d)}" for d in grid.values
    ]
    tail = ",%d,%d" + ",%.9g" * (len(grid.values) + 1)
    first, inverse, _ = table.groups
    tails = [
        tail % (table.degrees[f], table.farness[f], 1.0 / table.farness[f], *dcs)
        for f, dcs in zip(first.tolist(), table.decay_values(grid).tolist())
    ]
    lines = [",".join(header)]
    lines.extend(f"{i}{tails[k]}" for i, k in enumerate(inverse.tolist()))
    return "\n".join(lines) + "\n"


def centrality_payload(table: CentralityTable, grid: DeltaGrid, maximizers: MaximizerSets,
                       full: bool = False) -> dict[str, Any]:
    """JSON payload for the centrality report; ``full`` adds the profile and
    signed-farness / reciprocal vectors per node.  The decay values come
    from ``table.decay_values(grid)``, so a :func:`centrality_csv` of the
    same table and grid has already built them.  Each group's entry is
    built once, and each of its nodes' entries is its id followed by the
    group's, so the nodes of a group share every list."""
    first, inverse, _ = table.groups
    groups = []
    for f, dcs in zip(first.tolist(), table.decay_values(grid).tolist()):
        entry = {"degree": table.degrees[f], "farness": table.farness[f],
                 "closeness": 1.0 / table.farness[f], "dc": dcs}
        if full:
            fvec = table.fvecs[f]
            entry.update(profile=table.profile(f), fvec=list(fvec),
                         cvec=list(cvec_from_fvec(fvec)))
        groups.append(entry)
    nodes = [{"node": i, **groups[k]} for i, k in enumerate(inverse.tolist())]
    # one list per distinct decay maximizer set, shared like the dc lists
    decay_sets = {s: sorted(s) for s in set(maximizers.by_decay)}
    return {
        "grid": list(grid.values),
        "nodes": nodes,
        "maximizers": {
            "by_degree": sorted(maximizers.by_degree),
            "by_closeness": sorted(maximizers.by_closeness),
            "by_decay": {
                fmt_float(d): decay_sets[s]
                for d, s in zip(grid.values, maximizers.by_decay)
            },
        },
    }
