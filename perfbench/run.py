"""Benchmark of the ``decaycent`` CLI.

Run one workload (the last stdout line is a JSON verdict)::

    python3 perfbench/run.py --workload sim-dense --seed 1 --seconds 15 --trace 0

Run every workload, printing each metric with its unit; exits 1 when any
output check fails::

    python3 perfbench/run.py --all --seed 1 --seconds 15 [--trace 1]

Smoke run of the harness at tiny sizes (a few seconds per workload)::

    python3 perfbench/run.py --all --smoke

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones from a traced run.  Each run is measured in a fresh child process
(``child.py``); the set-up time is the median over several fresh imports.
Results, with the machine they ran on, are kept in ``.bench_out/results``;
``compare.py`` compares two of them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: Workload and metric names with their units.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
#: Fresh imports timed per run for ``setup_s`` (after one untimed warm-up
#: that also writes the bytecode cache); the run's own child adds one more.
SETUP_PROBES = 3
#: The whole run must end well inside three minutes.
DEADLINE_S = 170


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def time_import(deadline: float) -> float:
    code = ("import time; t = time.perf_counter(); import decaycent.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                         capture_output=True, text=True, check=True,
                         timeout=max(1.0, deadline - time.monotonic()))
    return float(out.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    try:
        cpu = next((line.split(":", 1)[1].strip()
                    for line in Path("/proc/cpuinfo").read_text().splitlines()
                    if line.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    try:
        desc = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                              cwd=ROOT, capture_output=True, text=True, timeout=5)
        describe = desc.stdout.strip() if desc.returncode == 0 else "unavailable"
    except (OSError, subprocess.SubprocessError):
        describe = "unavailable"
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        **versions,
        "git_describe": describe,
        "seed": seed,
    }


def run_one(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    result_path = OUT / "results" / f"{tag}.json"
    result_path.parent.mkdir(exist_ok=True)

    probes = 1 if args.smoke else SETUP_PROBES
    setups = [time_import(deadline) for _ in range(probes + (0 if args.smoke else 1))]
    setups = setups[-probes:]

    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work), "--result", str(work / "result.json")]
    if args.smoke:
        cmd.append("--smoke")
    try:
        subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True, stdout=sys.stderr,
                       timeout=max(1.0, deadline - time.monotonic()))
        child = json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(child["setup_s"])

    if args.trace:
        metrics = {m["name"]: {**child["layers"][m["name"]], "unit": m["unit"]}
                   for m in SPEC["per_layer"]}
    else:
        values = {"throughput_per_s": child["throughput_per_s"],
                  "peak_rss_mb": child["peak_rss_mb"],
                  "setup_s": statistics.median(setups)}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
    verdict = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }
    record = {"workload": args.workload, "trace": args.trace, "smoke": args.smoke,
              "seconds": args.seconds, "env": environment(args.seed), **verdict,
              "setup_samples_s": setups,
              "detail": {k: v for k, v in child.items() if k != "spans"}}
    result_path.write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (OUT / "results" / f"{tag}-spans.json").write_text(json.dumps(child["spans"]) + "\n")

    print_human(args, child, metrics, setups, record["env"])
    print(json.dumps(verdict))
    return 0


def print_human(args, child: dict, metrics: dict, setups: list[float], env: dict) -> None:
    units = child["units"]
    phases = "  ".join(f"{k} {v:.1f} s" for k, v in child["phase_s"].items())
    print(f"== {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(units)} timed units  ({phases})")
    print("  env: " + "  ".join(f"{k}={v}" for k, v in env.items() if k != "seed"))
    for name, m in metrics.items():
        extra = ""
        if "samples" in m:
            extra = f"  n={m['samples']}"
            if "p95" in m:
                extra += f"  p50={m['p50']:.4g}  p95={m['p95']:.4g}"
            extra += f"  [{m['source']}]"
        print(f"  {name:28s} {m['value']:12.5g} {m['unit']}{extra}")
    if not args.trace:
        print(f"  (setup_s is the median of {len(setups)} fresh imports)")
        for kind, secs in child.get("call_s", {}).items():
            print(f"  {kind:28s} {secs:12.5g} s  (median per call)")
    else:
        print("  share of traced CLI time (self time per span):")
        for name, share in child["shares"].items():
            print(f"    {name:28s} {100 * share:6.2f} %")
    for problem in child["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(f"  attempted {child['attempted']}, failed {child['failed']} "
          f"(failed_frac {child['failed'] / child['attempted']:.4g})")


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    print("all workloads correct" if status == 0 else "SOME WORKLOAD FAILED")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, seconds in total")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else 15.0
    if not (SRC / "decaycent" / "cli.py").is_file():
        print(f"error: no decaycent sources under {SRC}; run from a checkout of the repo",
              file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload or --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
