"""One workload run, in a fresh process started by ``run.py``.

It times the import of ``decaycent.cli``, generates the inputs, drives the
CLI through ``main()`` for the requested seconds, reads its peak resident
memory, and only then checks every output (untimed).  With ``--trace 1``
the timed units alternate untraced and traced (a whole report cycle at a
time), and a replay afterwards pushes the workload's graphs through the
public functions its CLI path does not reach, so every layer has spans on
every workload.  The result is one JSON document written to ``--result``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

_t0 = time.perf_counter()
import decaycent.cli  # noqa: E402  (timed: this is the program's set-up)
SETUP_S = time.perf_counter() - _t0

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

GRID_POINTS = 99
#: Graphs kept from the traced sampling for the replay and the computed counts.
KEEP_GRAPHS = 40
REPLAY_GRAPHS = 3
REPLAY_TRIALS = 3
#: Trials per run that the reference rebuilds (see oracle_trials).
ORACLE_FIRST = 10
ORACLE_SPREAD = 5


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def quiet_main(argv: list[str], tracer: Tracer | None = None) -> int:
    """``decaycent.cli.main`` with its stdout discarded; traced calls get a
    root span named after the subcommand.  An exception escaping ``main``
    is reported and counted as exit code -1, a failed operation."""
    try:
        with redirect_stdout(io.StringIO()):
            if tracer is None:
                return decaycent.cli.main(argv)
            with tracer.span(f"cli.{argv[0]}"):
                return decaycent.cli.main(argv)
    except Exception:  # the run goes on; the checks count the failure
        traceback.print_exc()
        return -1


# ---------------------------------------------------------------------------
# timed units


def sim_batch(wl, seed: int, b: int, work: Path, tracer: Tracer | None) -> dict:
    out = work / f"b{b}"
    seed_b = workloads.batch_seed(seed, b)
    argv = ["simulate", "--n", str(wl.n), "--p", str(wl.p), "--trials", str(wl.trials),
            "--seed", str(seed_b), "--out-dir", str(out), "--workers", "1"]
    t0 = time.perf_counter()
    rc = quiet_main(argv, tracer)
    return {"kind": "simulate", "seconds": time.perf_counter() - t0, "rc": rc,
            "ops": wl.trials, "seed": seed_b, "out": str(out)}


REPORT_CALLS = (("compute", "gnp"), ("compare", "gnp"), ("compute", "path"), ("compare", "path"))


def report_call(inputs: dict, k: int, work: Path, tracer: Tracer | None) -> dict:
    """Call ``k`` of the report sequence, which cycles through REPORT_CALLS."""
    cmd, label = REPORT_CALLS[k % len(REPORT_CALLS)]
    out = work / f"c{k // len(REPORT_CALLS)}"
    out.mkdir(parents=True, exist_ok=True)
    graph = inputs[label]
    if cmd == "compute":
        argv = ["compute", "--graph", graph["name"], "--out", str(out / f"{label}.csv"),
                "--json", str(out / f"{label}.json")]
    else:
        i, j = graph["pair"]
        argv = ["compare", "--graph", graph["name"], "-i", str(i), "-j", str(j),
                "--out", str(out / f"{label}-compare.json")]
    t0 = time.perf_counter()
    rc = quiet_main(argv, tracer)
    return {"kind": f"{cmd}_{label}", "seconds": time.perf_counter() - t0, "rc": rc,
            "ops": 1, "out": str(out)}


def prepare_report(wl, seed: int, work: Path) -> dict:
    grid = oracle.grid_values(GRID_POINTS)
    inputs = {}
    for label, n, edges in (
        ("gnp", wl.n, workloads.connected_gnp_edges(wl.n, wl.p, seed)),
        ("path", wl.path_n, workloads.path_edges(wl.path_n)),
    ):
        path = work / f"{label}.txt"
        workloads.write_edgelist(path, n, edges)
        ref = oracle.graph_ref(n, edges, grid)
        inputs[label] = {"name": str(path), "ref": ref, "pair": oracle.compare_pair(ref)}
    return inputs


# ---------------------------------------------------------------------------
# output checks (untimed)


def load_golden() -> dict:
    path = Path(__file__).with_name("golden.json")
    return json.loads(path.read_text()) if path.exists() else {}


def oracle_trials(wl, b: int, batches: int) -> range:
    """Trials of batch ``b`` rebuilt by the reference: the first
    ORACLE_FIRST of batch 0 and trial 0 of ORACLE_SPREAD evenly spaced
    later batches."""
    if b == 0:
        return range(min(wl.trials, ORACLE_FIRST))
    step = max(1, (batches - 1) // ORACLE_SPREAD)
    return range(1) if b % step == 0 and b // step <= ORACLE_SPREAD else range(0)


def check_sim(wl, batches: list[dict], problems: list[str]) -> int:
    """Failed trials across all batches; problems are appended."""
    golden = load_golden()
    failed = 0
    for b, batch in enumerate(batches):
        try:
            failed += check_batch(wl, b, batch, len(batches), golden, problems)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"batch {b}: unreadable output ({exc!r})")
            failed += wl.trials
    return failed


def check_batch(wl, b: int, batch: dict, batches: int, golden: dict,
                problems: list[str]) -> int:
    """Failed trials of one simulate batch; problems are appended."""
    from decaycent.generation import TrialSeed, sample_connected_gnp

    if batch["rc"] != 0:
        problems.append(f"batch {b}: simulate exited {batch['rc']}")
        return wl.trials
    grid = oracle.grid_values(GRID_POINTS)
    out = Path(batch["out"])
    summary = oracle.load_json(out / "summary.json")
    bad_trials = set(summary["results"]["failed_trials"])
    _, rows = oracle.read_csv(out / "records.csv")
    agg_header, agg_rows = oracle.read_csv(out / "aggregate.csv")
    want_agg = oracle.aggregate_rows(rows, grid)
    floats = oracle.aggregate_floats(agg_header)
    if len(want_agg) != len(agg_rows) or not all(
        oracle.rows_match(got, want, floats) for got, want in zip(agg_rows, want_agg)
    ):
        problems.append(f"batch {b}: aggregate.csv disagrees with records.csv")
        return wl.trials
    pin = golden.get(workloads.golden_key(wl, batch["seed"]))
    if pin and (pin["records"] != sha256(out / "records.csv")
                or pin["aggregate"] != sha256(out / "aggregate.csv")):
        problems.append(f"batch {b}: result digests differ from the pinned ones")
        return wl.trials
    for ti in oracle_trials(wl, b, batches):
        if ti in bad_trials:
            continue
        g, rejects = sample_connected_gnp(wl.n, wl.p, TrialSeed(batch["seed"], ti))
        want = oracle.record_rows(oracle.graph_ref(wl.n, g.edges, grid), ti, rejects)
        got = [r for r in rows if r["trial"] == str(ti)]
        if len(got) != len(want) or not all(
            oracle.rows_match(gr, wr, oracle.RECORD_FLOATS) for gr, wr in zip(got, want)
        ):
            problems.append(f"batch {b}: trial {ti} disagrees with the reference")
            bad_trials.add(ti)
    return len(bad_trials)


def check_report(inputs: dict, calls: list[dict], problems: list[str]) -> int:
    """Failed calls; problems are appended."""
    failed = 0
    for k, call in enumerate(calls):
        out = Path(call["out"])
        cmd, label = call["kind"].split("_")
        graph = inputs[label]
        try:
            if call["rc"] != 0:
                found = [f"{cmd} exited {call['rc']}"]
            elif cmd == "compute":
                found = oracle.check_compute(
                    graph["ref"], (out / f"{label}.csv").read_text(),
                    oracle.load_json(out / f"{label}.json"), graph["name"])
            else:
                found = oracle.check_compare(
                    graph["ref"], oracle.load_json(out / f"{label}-compare.json"),
                    graph["name"], *graph["pair"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            found = [f"unreadable output ({exc!r})"]
        if found:
            failed += 1
            problems.extend(f"call {k} ({call['kind']}): {msg}" for msg in found)
    return failed


def determinism_check(seed: int, smoke: bool, work: Path) -> bool:
    """Same small config at workers=1 and workers=2 gives identical bytes."""
    from decaycent.simulation import SimulationConfig, run_experiment

    cfg = workloads.DETERMINISM_SMOKE if smoke else workloads.DETERMINISM
    digests = []
    for workers in (1, 2):
        out = work / f"determinism-w{workers}"
        with redirect_stdout(io.StringIO()):
            run_experiment(SimulationConfig(seed=seed, workers=workers, **cfg), out)
        digests.append((sha256(out / "records.csv"), sha256(out / "aggregate.csv")))
    return digests[0] == digests[1]


# ---------------------------------------------------------------------------
# traced replay and per-layer metrics


def replay(wl, seed: int, tracer: Tracer, inputs: dict | None, work: Path, smoke: bool) -> None:
    """Push the workload's graphs through the public functions its CLI path
    does not reach."""
    from decaycent.centrality import DeltaGrid, centrality_table
    from decaycent.io import centrality_csv, centrality_payload, read_graph, write_edgelist
    from decaycent.ordering import maximizer_sets
    from decaycent.simulation import SimulationConfig

    with tracer.installed():
        if wl.kind == "report":
            cfg = SimulationConfig(n=wl.n, p=wl.p, trials=1 if smoke else REPLAY_TRIALS,
                                   seed=seed)
            with tracer.span("replay"):
                decaycent.cli.run_experiment(cfg, work / "replay")
            return
        grid = DeltaGrid.uniform(GRID_POINTS)
        for k, g in enumerate(tracer.graphs[: 1 if smoke else REPLAY_GRAPHS]):
            path = work / f"replay{k}.txt"
            write_edgelist(g, path)
            with tracer.span("replay"):
                with tracer.span("io.read_graph"):
                    read_graph(path)
                with tracer.span("centrality.table"):
                    table = centrality_table(g)
                with tracer.span("ordering.maximizer_sets"):
                    sets = maximizer_sets(g, grid)
                with tracer.span("io.centrality_csv"):
                    centrality_csv(table, grid)
                with tracer.span("io.payload"):
                    centrality_payload(table, grid, sets)


def pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(1, math.ceil(len(s) * q / 100)) - 1]


TIMED_LAYERS = (
    ("generation.sample_ms", "generation.sample"),
    ("graph.distance_ms", "graph.distance"),
    ("graph.profile_ms", "graph.profile"),
    ("centrality.decay_matrix_ms", "centrality.decay_matrix"),
    ("centrality.table_ms", "centrality.table"),
    ("centrality.fractions_ms", "centrality.fractions"),
    ("ordering.argmax_ms", "ordering.argmax"),
    ("ordering.maximizer_sets_ms", "ordering.maximizer_sets"),
    ("simulation.trial_ms", "simulation.trial"),
    ("simulation.aggregate_ms", "simulation.aggregate"),
    ("io.read_graph_ms", "io.read_graph"),
    ("io.centrality_csv_ms", "io.centrality_csv"),
    ("io.payload_ms", "io.payload"),
)


def layer_metrics(tracer: Tracer, profiles: list, units: list[dict]) -> dict:
    """Per-layer metrics: ``{name: {value, samples, [p50, p95,] source}}``;
    units are in BENCHMARK.json.  A timing's value is its mean per call, so
    it moves with the layer's total time even when one workload's calls
    differ widely (the report's two graphs, the sampler's heavy tail)."""
    out: dict[str, dict] = {}

    def timed(name: str, values: list[float]) -> None:
        out[name] = {"value": statistics.fmean(values), "samples": len(values),
                     "p50": pct(values, 50), "p95": pct(values, 95),
                     "source": "measured, mean per call"}

    for metric, span_name in TIMED_LAYERS:
        timed(metric, [s.ms for s in tracer.by_name(span_name)])
    timed("simulation.rank_rest_ms", [
        s.ms - tracer.child_ms(s, {"graph.profile", "centrality.decay_matrix",
                                   "ordering.argmax"})
        for s in tracer.by_name("simulation.trial")])
    timed("io.records_rest_ms", [
        s.ms - tracer.child_ms(s, {"generation.sample", "simulation.trial",
                                   "simulation.aggregate"})
        for s in tracer.by_name("simulation.run_experiment")])

    def count(name: str, value: float, samples: int, source: str) -> None:
        out[name] = {"value": value, "samples": samples, "source": source}

    samples = tracer.by_name("generation.sample")
    rejects = sum(s.rejects for s in samples)
    count("generation.rejects", rejects / len(samples), len(samples), "measured")
    count("generation.accept_ratio", len(samples) / (len(samples) + rejects), len(samples),
          "measured")
    evaluated = tracer.by_name("simulation.trial", "ordering.maximizer_sets")
    count("ordering.exact_sign_calls", sum(s.exact_calls for s in evaluated) / len(evaluated),
          len(evaluated), "measured, calls per evaluated graph")
    # counted on the benchmark's side from the profile matrices, not measured
    groups, fill = [], []
    for prof in profiles:
        groups.append(len({tuple(r) for r in prof.tolist()}))
        fill.append(int(prof.any(axis=0).sum()) / prof.shape[1])
    count("ordering.profile_groups", statistics.fmean(groups), len(groups), "computed")
    count("centrality.level_fill", statistics.fmean(fill), len(fill), "computed")
    plain = throughput([u for u in units if not u["traced"]])
    traced = [u for u in units if u["traced"]]
    count("trace.overhead_pct", 100.0 * (plain / throughput(traced) - 1.0), len(traced),
          "measured, traced minus untraced time per op")
    return out


def layer_shares(tracer: Tracer) -> dict[str, float]:
    """Self time per span name as a share of the traced CLI calls' time."""
    under_cli = [s for s in tracer.spans if tracer.spans[s.root].name.startswith("cli.")]
    total = sum(s.ms for s in under_cli if s.parent is None)
    shares: dict[str, float] = {}
    for s in under_cli:
        shares[s.name] = shares.get(s.name, 0.0) + tracer.self_ms(s) / total
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


# ---------------------------------------------------------------------------


def throughput(units: list[dict]) -> float:
    """Operations per second over the workload's fixed mix: each kind of
    unit (a simulate batch, or one kind of report call) weighs equally."""
    kinds: dict[str, list[dict]] = {}
    for u in units:
        kinds.setdefault(u["kind"], []).append(u)
    per_op = [sum(u["seconds"] for u in us) / sum(u["ops"] for u in us)
              for us in kinds.values()]
    return len(per_op) / sum(per_op)


def run(args) -> dict:
    wl = workloads.get(args.workload, args.smoke)
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    phases = {}
    t0 = time.perf_counter()
    inputs = prepare_report(wl, args.seed, work) if wl.kind == "report" else None
    phases["prepare"] = time.perf_counter() - t0
    cycle = 1 if inputs is None else len(REPORT_CALLS)
    tracer = Tracer(KEEP_GRAPHS)

    # a run ends after --seconds, once every kind of unit has been measured
    # (traced and untraced alike when tracing: whole cycles alternate)
    units: list[dict] = []
    start = time.perf_counter()
    while True:
        k = len(units)
        traced = bool(args.trace) and (k // cycle) % 2 == 1
        with tracer.installed() if traced else nullcontext():
            unit = (sim_batch(wl, args.seed, k, work, tracer if traced else None)
                    if inputs is None
                    else report_call(inputs, k, work, tracer if traced else None))
        unit["traced"] = traced
        units.append(unit)
        if (time.perf_counter() - start >= args.seconds
                and (k + 1) % cycle == 0 and (k + 1) >= cycle * (1 + args.trace)):
            break
    phases["measure"] = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    t0 = time.perf_counter()
    problems: list[str] = []
    if inputs is None:
        failed = check_sim(wl, units, problems)
    else:
        failed = check_report(inputs, units, problems)
    attempted = sum(u["ops"] for u in units) + 1  # +1: the determinism check
    if not determinism_check(args.seed, args.smoke, work):
        problems.append("records differ between workers=1 and workers=2")
        failed += 1
    phases["check"] = time.perf_counter() - t0

    plain = [u for u in units if not u["traced"]]
    result = {
        "workload": wl.name,
        "setup_s": SETUP_S,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "units": [{k: v for k, v in u.items() if k != "out"} for u in units],
        "peak_rss_mb": peak_rss_mb,
        "throughput_per_s": throughput(plain),
    }
    if inputs is not None:
        result["call_s"] = {
            f"{cmd}_{label}_s": statistics.median(
                u["seconds"] for u in plain if u["kind"] == f"{cmd}_{label}")
            for cmd, label in REPORT_CALLS}

    if args.trace:
        t0 = time.perf_counter()
        replay(wl, args.seed, tracer, inputs, work, args.smoke)
        phases["replay"] = time.perf_counter() - t0
        if inputs is None:
            profiles = [oracle.profiles_of(g.n, g.edges) for g in tracer.graphs]
        else:
            profiles = [inputs[k]["ref"].profiles for k in ("gnp", "path")]
        result["layers"] = layer_metrics(tracer, profiles, units)
        result["shares"] = layer_shares(tracer)
        result["spans"] = tracer.dump()
    result["phase_s"] = phases
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    result = run(args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
