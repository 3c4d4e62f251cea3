"""Compare benchmark results of two commits.

    python3 perfbench/compare.py --base .bench_out/results/A*.json --new B*.json

Each side is a set of result files written by ``run.py`` (one per run).
For every workload and metric it prints both sides' medians and
quartiles.  A comparison made across machines, or across different
Python, numpy or scipy versions, is flagged: its numbers do not compare.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

MACHINE_KEYS = ("cpu_model", "nproc", "machine", "python", "numpy", "scipy")


def load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    base, new = load(args.base), load(args.new)

    status = 0
    machines = {tuple(str(r["env"].get(k)) for k in MACHINE_KEYS) for r in base + new}
    if len(machines) > 1:
        print("WARNING: results come from different machines or toolchains:")
        for m in sorted(machines):
            print("   ", dict(zip(MACHINE_KEYS, m)))
        status = 1
    for r in base + new:
        if not r["correct"]:
            print(f"WARNING: {r['workload']} seed {r['env']['seed']} failed its output checks")
            status = 1

    groups: dict[tuple, dict[str, list[float]]] = {}
    units: dict[str, str] = {}
    for side, records in (("base", base), ("new", new)):
        for r in records:
            for name, m in r["metrics"].items():
                key = (r["workload"], r["trace"], name)
                groups.setdefault(key, {"base": [], "new": []})[side].append(m["value"])
                units[name] = m["unit"]
    print(f"{'workload':12s} {'metric':30s} {'base median [q1, q3]':>32s} "
          f"{'new median [q1, q3]':>32s} {'change':>8s}")
    for (workload, _, name), sides in sorted(groups.items()):
        if not sides["base"] or not sides["new"]:
            continue
        b1, bm, b3 = quartiles(sides["base"])
        n1, nm, n3 = quartiles(sides["new"])
        change = f"{100 * (nm - bm) / bm:+.1f}%" if bm else "n/a"
        print(f"{workload:12s} {name:30s} {bm:12.5g} [{b1:.4g}, {b3:.4g}] "
              f"{nm:12.5g} [{n1:.4g}, {n3:.4g}] {change:>8s} {units[name]}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
