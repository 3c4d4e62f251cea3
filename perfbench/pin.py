"""Regenerate ``golden.json``: sha256 of records.csv and aggregate.csv for
the first batch of every ``simulate`` workload at seeds ``0..N-1``.

    PYTHONPATH=src:perfbench python3 perfbench/pin.py [N]

Re-pinning changes what the benchmark accepts as correct: do it only for a
deliberate change of the result bytes, and say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from decaycent.simulation import SimulationConfig, run_experiment

import workloads


def main() -> int:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 100
    pins = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent.parent) as tmp:
        for wl in workloads.WORKLOADS.values():
            if wl.kind != "simulate":
                continue
            for seed in range(count):
                seed_b = workloads.batch_seed(seed, 0)
                out = Path(tmp) / f"{wl.name}-{seed}"
                run_experiment(SimulationConfig(n=wl.n, p=wl.p, trials=wl.trials,
                                                seed=seed_b), out)
                pins[workloads.golden_key(wl, seed_b)] = {
                    name: hashlib.sha256((out / f"{name}.csv").read_bytes()).hexdigest()
                    for name in ("records", "aggregate")
                }
    path = Path(__file__).with_name("golden.json")
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pins)} batches in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
