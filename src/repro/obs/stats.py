"""Shared report math for the serving replay.

``RequestSimulator`` builds its p50/p95/window-p95/utilization blocks
here and ``build_tenant_reports`` repeats the percentile pair per
tenant.  These helpers are the single home of that arithmetic (plain
``np.percentile`` defaults, zeros for empty input).
"""

from __future__ import annotations

import numpy as np

__all__ = ["percentile_summary", "event_window_p95", "utilization"]


def percentile_summary(served: np.ndarray) -> tuple[float, float, float]:
    """``(p50, p95, max)`` latency over served requests; zeros when empty."""
    arr = np.asarray(served, dtype=np.float64)
    if arr.size == 0:
        return 0.0, 0.0, 0.0
    return (
        float(np.percentile(arr, 50)),
        float(np.percentile(arr, 95)),
        float(arr.max()),
    )


def event_window_p95(
    arrivals: np.ndarray,
    latencies: np.ndarray,
    lo: float,
    hi: float,
    served_mask: np.ndarray,
) -> tuple[int, float]:
    """``(count, p95)`` of served requests arriving inside ``[lo, hi]``.

    The "window" is the span of lifecycle events during a replay — the
    stretch where a rollout or drain was in flight.  ``served_mask``
    marks the requests that actually completed.
    """
    in_window = (arrivals >= lo) & (arrivals <= hi) & served_mask
    count = int(in_window.sum())
    if not count:
        return 0, 0.0
    return count, float(np.percentile(latencies[in_window], 95))


def utilization(busy_seconds, makespan_s: float) -> tuple[float, ...]:
    """Per-replica busy fraction of the replay makespan (zeros if empty)."""
    if makespan_s > 0:
        return tuple(busy / makespan_s for busy in busy_seconds)
    return tuple(0.0 for _ in busy_seconds)
