"""Command-line surface.

Subcommands: ``compute`` (centrality report for a graph file), ``compare``
(pairwise ordering report), ``simulate`` (the Monte-Carlo experiment), and
``check`` (randomized property verification).

Exit codes: 0 success, 1 usage error, 2 data error, 3 property-check
failure.  ``simulate`` refuses to run without an explicit seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path
from typing import get_type_hints

from .centrality import DeltaGrid, centrality_table, dc_difference_coeffs, decay_matrix
from .generation import RejectionLimitError
from .graph import DisconnectedGraphError
from .io import (
    GraphParseError,
    centrality_csv,
    centrality_payload,
    jsonable,
    read_graph,
    with_envelope,
)
from .ordering import (
    check_farness_dominance,
    check_high_delta_conditions,
    check_low_delta_conditions,
    check_profile_dominance,
    lex_compare,
    lex_compare_cvec,
    maximizer_sets,
)
from .simulation import AllTrialsFailedError, SimulationConfig, run_experiment

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECK = 3


#: ``simulate``'s settings and their types, one flag and config-file key each.
_SIM_KEYS = {**get_type_hints(SimulationConfig), "out_dir": str}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exit code 1."""

    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(message)


@cache
def _build_parser() -> _Parser:
    """The whole argument tree, built once per process, on the first
    :func:`main` call; importing this module does not build it."""
    parser = _Parser(prog="decaycent", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="centrality table for a graph file")
    p_compute.add_argument("--graph", required=True, help="edge-list or JSON graph file")
    p_compute.add_argument("--format", default="auto", choices=["auto", "edgelist", "json"])
    p_compute.add_argument("--grid-points", type=int, default=99)
    p_compute.add_argument("--out", help="CSV output path (default: stdout)")
    p_compute.add_argument("--json", dest="json_out", help="JSON report path")
    p_compute.add_argument("--full", action="store_true",
                           help="include profiles and signed vectors in the JSON report")

    p_compare = sub.add_parser("compare", help="pairwise ordering report")
    p_compare.add_argument("--graph", required=True)
    p_compare.add_argument("--format", default="auto", choices=["auto", "edgelist", "json"])
    p_compare.add_argument("-i", type=int, required=True)
    p_compare.add_argument("-j", type=int, required=True)
    p_compare.add_argument("--grid-points", type=int, default=99)
    p_compare.add_argument("--out", help="JSON output path (default: stdout)")

    p_sim = sub.add_parser("simulate", help="connected G(n,p) maximizer study")
    p_sim.add_argument("--config", help="key=value config file; flags override")
    for key, kind in _SIM_KEYS.items():
        p_sim.add_argument(f"--{key.replace('_', '-')}", type=kind)

    p_check = sub.add_parser("check", help="randomized property verification")
    p_check.add_argument("--n-max", type=int, default=12)
    p_check.add_argument("--graphs", type=int, default=200)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--out", help="JSON report path")

    return parser


def _load_config_file(path: str) -> dict:
    """Typed settings of a ``key = value`` file.  A malformed line, an
    unknown key or a value of the wrong type is a usage error naming
    ``path:line``, as the same mistake in a flag is."""
    out: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _SIM_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        kind = _SIM_KEYS[key]
        try:
            out[key] = kind(value)
        except ValueError:
            raise UsageError(
                f"{path}:{lineno}: {key}: invalid {kind.__name__} value: {value!r}"
            ) from None
    return out


def _resolve_sim_settings(args) -> tuple[SimulationConfig, str]:
    settings = _load_config_file(args.config) if args.config else {}
    for key in _SIM_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    for required in ("n", "p", "trials", "out_dir"):
        if required not in settings:
            raise UsageError(f"simulate needs --{required.replace('_', '-')} "
                             "(flag or config file)")
    if "seed" not in settings:
        raise UsageError("simulate requires an explicit --seed; "
                         "implicit nondeterminism is not allowed")
    out_dir = settings.pop("out_dir")
    return SimulationConfig(**settings), out_dir


def _connected_table(g, name: str):
    """Centrality table of a graph file's graph; a disconnected graph is a
    data error that names the file."""
    try:
        return centrality_table(g)
    except DisconnectedGraphError as exc:
        raise DisconnectedGraphError(
            f"{name}: {exc}; centrality needs a connected graph"
        ) from None


def _check_out_paths(*paths: str | None, graph: str | None = None) -> None:
    """Every output path must name a file in an existing directory, and no
    two of the outputs and the input ``graph`` may resolve to the same
    file.  Checked before any file is read or written, so a bad path
    leaves no partial output and never replaces the input."""
    seen = {Path(graph).resolve(): graph} if graph else {}
    for path in filter(None, paths):
        target = Path(path)
        if not target.parent.is_dir():
            raise FileNotFoundError(
                f"{path}: output directory {target.parent} does not exist"
            )
        if target.is_dir():
            raise IsADirectoryError(f"{path}: is a directory, expected a file path")
        key = target.resolve()
        if key in seen:
            raise ValueError(f"{path}: names the same file as {seen[key]}")
        seen[key] = path


def _cmd_compute(args) -> int:
    _check_out_paths(args.out, args.json_out, graph=args.graph)
    g = read_graph(args.graph, fmt=args.format)
    grid = DeltaGrid.uniform(args.grid_points)
    table = _connected_table(g, args.graph)
    sets = maximizer_sets(g, grid, profiles=table.counts)
    csv_text = centrality_csv(table, grid)
    if args.out:
        Path(args.out).write_text(csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.json_out:
        payload = centrality_payload(table, grid, sets, full=args.full)
        report = with_envelope(
            {"command": "compute", "graph": str(args.graph),
             "grid_points": args.grid_points, "full": bool(args.full)},
            payload,
        )
        Path(args.json_out).write_text(report)
    return EXIT_OK


def _cmd_compare(args) -> int:
    _check_out_paths(args.out, graph=args.graph)
    g = read_graph(args.graph, fmt=args.format)
    i, j = args.i, args.j
    for node in (i, j):
        if not (0 <= node < g.n):
            raise ValueError(f"unknown node id {node} (graph has nodes 0..{g.n - 1})")
    if i == j:
        raise ValueError("compare needs two distinct nodes")
    grid = DeltaGrid.uniform(args.grid_points)
    table = _connected_table(g, args.graph)
    pi, pj = table.profile(i), table.profile(j)
    fi, fj = table.fvec(i), table.fvec(j)
    avec, bvec = dc_difference_coeffs(pi, pj, fi, fj)
    dc = decay_matrix(table.counts[[i, j]], grid)
    curve = (dc[0] - dc[1]).tolist()
    low = check_low_delta_conditions(pi, pj)
    high = check_high_delta_conditions(fi, fj)
    payload = {
        "nodes": {"i": i, "j": j},
        "profiles": {"i": pi, "j": pj},
        "fvecs": {"i": list(fi), "j": list(fj)},
        "verdicts": {
            "lex_profile": lex_compare(pi, pj),
            "lex_cvec": lex_compare_cvec(fi, fj),
            "profile_dominance": check_profile_dominance(pi, pj),
            "farness_dominance": check_farness_dominance(fi, fj),
        },
        "sufficient_conditions": {
            "low_delta": {"applicable": low.applicable,
                          "satisfied": sorted(low.satisfied)},
            "high_delta": {"applicable": high.applicable,
                           "satisfied": sorted(high.satisfied)},
        },
        "difference_coeffs": {"avec": list(avec), "bvec": list(bvec)},
        "dc_difference_curve": {
            "delta": [float(d) for d in grid.values],
            "difference": curve,
        },
    }
    report = with_envelope(
        {"command": "compare", "graph": str(args.graph), "i": i, "j": j,
         "grid_points": args.grid_points},
        payload,
    )
    if args.out:
        Path(args.out).write_text(report)
    else:
        sys.stdout.write(report)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config, out_dir = _resolve_sim_settings(args)
    result = run_experiment(config, out_dir)
    agg = result.aggregate
    print(f"trials: {agg.trials} succeeded, {len(result.failed_trials)} failed")
    print(f"deg/clos sets intersect: {agg.count_intersect}")
    print(f"decay escapes the intersection somewhere: "
          f"{agg.count_intersect_dc_escapes}")
    print(f"outputs: {result.records_path}, {result.aggregate_path}, "
          f"{result.summary_path}")
    return EXIT_OK


def _cmd_check(args) -> int:
    # imported here only, so the other commands start without it
    from .verification import MIN_CHECK_NODES, run_all_checks

    if args.n_max < MIN_CHECK_NODES:
        raise UsageError(f"check needs --n-max >= {MIN_CHECK_NODES}, got {args.n_max}")
    if args.graphs < 1:
        raise UsageError(f"check needs --graphs >= 1, got {args.graphs}")
    _check_out_paths(args.out)
    results = run_all_checks(n_max=args.n_max, graphs=args.graphs, seed=args.seed)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: {res.cases} cases, "
              f"{len(res.failures)} failures ({res.seconds:.2f} s)")
        for failure in res.failures:
            print(f"    counterexample: {json.dumps(jsonable(failure), sort_keys=True)}")
    if args.out:
        report = with_envelope(
            {"command": "check", "n_max": args.n_max, "graphs": args.graphs,
             "seed": args.seed},
            {"properties": [
                {"name": r.name, "passed": r.passed, "cases": r.cases,
                 "failures": r.failures}
                for r in results
            ]},
        )
        Path(args.out).write_text(report)
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK


#: One handler per subcommand; argparse admits no other command name.
_COMMANDS = {"compute": _cmd_compute, "compare": _cmd_compare,
             "simulate": _cmd_simulate, "check": _cmd_check}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GraphParseError, DisconnectedGraphError, RejectionLimitError,
            AllTrialsFailedError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
