"""Simulated clock with per-label totals.

Every solver in this reproduction advances a :class:`SimClock` instead of
measuring wall-clock time: the numerics run at laptop scale, but the clock
records how long the same dataflow would take on the simulated hardware.
Each advance is charged to a label, so experiments can break an iteration
down into kernel / transfer / reduction phases.  Only the running totals
are kept; per-span detail is what :mod:`repro.obs` records when it is on.
"""

from __future__ import annotations

__all__ = ["SimClock"]


class SimClock:
    """A monotonically advancing simulated clock with per-label totals."""

    def __init__(self) -> None:
        self.now = 0.0
        self._totals: dict[str, float] = {}

    def advance(self, seconds: float, label: str = "span") -> float:
        """Advance the clock by ``seconds`` (must be non-negative)."""
        if seconds < 0:
            raise ValueError(f"cannot advance the clock backwards ({seconds} s)")
        self._totals[label] = self._totals.get(label, 0.0) + seconds
        self.now += seconds
        return self.now

    def reset(self) -> None:
        """Reset to time zero and clear the totals."""
        self.now = 0.0
        self._totals = {}

    def breakdown(self) -> dict:
        """Elapsed time per label (a copy of the running totals)."""
        return dict(self._totals)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimClock(now={self.now:.6f}s, labels={len(self._totals)})"
