"""Version and convention metadata embedded in every output artifact."""

from __future__ import annotations

import subprocess
from functools import lru_cache
from pathlib import Path

VERSION = "0.1.0"


@lru_cache(maxsize=1)
def version_string() -> str:
    """Package version, extended with the git description of the checkout
    whose ``src/decaycent`` this package is, when there is one.  The
    caller's working directory plays no part: an installed copy reports
    the plain version even when it runs inside another repository."""
    package = Path(__file__).resolve().parent
    root = package.parent.parent
    if package.parent.name != "src" or not (root / ".git").exists():
        return VERSION
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            return f"{VERSION}+g{out.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):
        pass
    return VERSION


def conventions() -> dict[str, str]:
    """The tie-breaking and statistics conventions baked into results."""
    return {
        "rank": (
            "competition rank: 1 + number of nodes with strictly greater decay "
            "centrality; a set's rank is the best (minimum) over its members; "
            "average-member ranks are emitted alongside"
        ),
        "ties": (
            "decay values are tied only when exact rational evaluation says so; "
            "a node whose cumulative distance profile dominates another's is "
            "ordered above it without arithmetic; other pairs compare by a float "
            "difference with a derived forward-error bound, and differences "
            "within the bound get the exact sign"
        ),
        "percentile": "nearest-rank on the sorted per-trial sample",
        "grid": "uniform interior points i/(points+1), never 0 or 1",
        "rule_of_thumb": (
            "candidates are the max-degree set below delta=0.5, the max-closeness "
            "set above, their union at 0.5; the pick maximizes decay centrality "
            "with exact ties broken toward the lowest node id"
        ),
        "failed_trials": (
            "trials that exhaust the rejection budget are excluded from every "
            "denominator and listed in the summary"
        ),
    }
