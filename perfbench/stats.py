"""Order statistics used by every workload.

Percentiles are nearest-rank (no interpolation), computed in integer
per-mille arithmetic so that "p90 of 100 samples" is exactly the 90th
value and leaves exactly ten samples beyond it.
"""

from __future__ import annotations

import resource
import statistics
from typing import Dict, Optional, Sequence

#: Candidate tail percentiles, in per-mille, highest first.
TAIL_PER_MILLE = (999, 990, 900, 750)
#: A tail percentile is reported only with at least this many samples
#: strictly beyond it.
MIN_BEYOND = 10


def _rank(per_mille: int, n: int) -> int:
    """1-based nearest rank of the ``per_mille`` percentile of ``n`` values."""
    return max(1, -(-per_mille * n // 1000))


def beyond(per_mille: int, n: int) -> int:
    """How many of ``n`` samples lie strictly beyond the percentile."""
    return n - _rank(per_mille, n)


def percentile(values: Sequence[float], per_mille: int) -> float:
    """Nearest-rank percentile of ``values`` (``per_mille`` = 500 is p50)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(per_mille, len(ordered)) - 1]


def tail_per_mille(n: int) -> Optional[int]:
    """The highest candidate percentile with >= MIN_BEYOND samples beyond it.

    None when even the lowest candidate leaves fewer than ten samples
    beyond it (too few samples for any tail figure).
    """
    for pm in TAIL_PER_MILLE:
        if beyond(pm, n) >= MIN_BEYOND:
            return pm
    return None


def label(per_mille: int) -> str:
    """``900`` -> ``"p90"``, ``999`` -> ``"p99.9"``."""
    whole, frac = divmod(per_mille, 10)
    return f"p{whole}" if frac == 0 else f"p{whole}.{frac}"


def summarize(values: Sequence[float], tail_pm: int) -> Dict[str, object]:
    """Median and the workload's pinned tail percentile, with sample counts.

    The tail is the pinned percentile when the samples support it (at
    least MIN_BEYOND beyond it), else the rule's highest supported one,
    else -- in runs too short for any tail -- the maximum.
    """
    n = len(values)
    pm = tail_pm if beyond(tail_pm, n) >= MIN_BEYOND else tail_per_mille(n)
    if pm is None:
        pm = 1000
    return {
        "n": n,
        "p50": percentile(values, 500),
        "tail_label": "max" if pm == 1000 else label(pm),
        "tail": percentile(values, pm),
        "tail_beyond": beyond(pm, n),
    }


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
