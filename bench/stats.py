"""Per-operation statistics shared by the workload process and run.py.

A run's latency metrics are taken over the distinct operations of the
workload's rotation: each distinct operation's mean time over its runs, then
throughput over one pass of the rotation, the median and the 75th
percentile.  See bench/README.md for why.
"""

from __future__ import annotations

import math
import statistics


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def by_operation(latencies_ns, rotation: int) -> dict[int, list[int]]:
    """Timed call ``i`` is distinct operation ``i % rotation``."""
    runs_of: dict[int, list[int]] = {}
    for i, elapsed in enumerate(latencies_ns):
        runs_of.setdefault(i % rotation, []).append(elapsed)
    return runs_of


def operation_stats(runs_of: dict[int, list[int]]) -> dict[str, float]:
    """``ops_per_s``, ``op_p50_ms`` and ``op_p75_ms`` from each distinct
    operation's mean time in nanoseconds."""
    means = sorted(statistics.fmean(v) for v in runs_of.values())
    return {
        "ops_per_s": len(means) / (sum(means) / 1e9),
        "op_p50_ms": statistics.median(means) / 1e6,
        "op_p75_ms": percentile(means, 75.0) / 1e6,
    }
