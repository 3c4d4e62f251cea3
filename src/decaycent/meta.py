"""Version and convention metadata embedded in every output artifact."""

from __future__ import annotations

import subprocess
from functools import lru_cache

VERSION = "0.1.0"


@lru_cache(maxsize=1)
def version_string() -> str:
    """Package version, extended with the git description when available."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
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
            "floats only pre-filter: each float value carries a derived forward-"
            "error bound of Horner's scheme, and values whose bounded intervals "
            "overlap go to the exact check"
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
