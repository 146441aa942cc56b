"""Order statistics for latency samples.

Percentiles use the nearest-rank definition: the p-th percentile of n
sorted samples is the sample at rank ceil(p/100 * n), so every reported
value is a measured latency, never an interpolation between two jobs of
different kinds.
"""

from __future__ import annotations

import math

# Candidate tail percentiles, lowest first.  The tail is the highest of these
# that still leaves at least TAIL_MIN_BEYOND samples above its rank.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def _rank(q: float, n: int) -> int:
    return max(1, math.ceil(q / 100.0 * n))


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank q-th percentile of a non-empty sample list."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    return ordered[_rank(q, len(ordered)) - 1]


def tail(samples: list[float], basis: int | None = None) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the latency tail.

    Picks the highest ladder percentile with at least TAIL_MIN_BEYOND samples
    ranked above it among `basis` samples (default: all of them).  A fixed
    basis keeps the percentile the same whether a run completes more or
    fewer passes.  With too few samples for any rung, falls back to the
    median so the metric is always defined.
    """
    n = len(samples)
    basis = n if basis is None else basis
    chosen = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if basis - _rank(q, basis) >= TAIL_MIN_BEYOND:
            chosen = q
    return chosen, percentile(samples, chosen), n - _rank(chosen, n)
