"""Decaying heat sketch over the item catalogue.

:class:`HeatSketch` scores items from the live query stream: every
batch of served recommendations :meth:`observe`\\ s the returned item
ids, and each item's heat decays exponentially with the *simulated*
time since it was last touched (half-life ``half_life_s``).  The cache
planner reads :meth:`page_scores` — heat aggregated to factor-page
granularity — to decide which pages deserve the GPU-hot tier.

Decay is applied lazily: observing an item first folds in the decay
since its last touch, and read-side views decay on the fly without
mutating state.  That keeps ``observe`` O(unique items in the batch)
and avoids a full-catalogue sweep per query batch.
"""

from __future__ import annotations

import numpy as np

__all__ = ["HeatSketch"]


class HeatSketch:
    """Per-item exponential-decay hit counter on a simulated clock."""

    def __init__(self, n_items: int, half_life_s: float):
        if n_items < 0:
            raise ValueError("n_items must be non-negative")
        if half_life_s <= 0:
            raise ValueError("half_life_s must be positive")
        self.half_life_s = float(half_life_s)
        self._heat = np.zeros(n_items, dtype=np.float64)
        self._last = np.zeros(n_items, dtype=np.float64)

    @property
    def n_items(self) -> int:
        """Number of items the sketch tracks."""
        return self._heat.size

    def _decay_factor(self, age_s: np.ndarray) -> np.ndarray:
        return np.power(0.5, np.maximum(age_s, 0.0) / self.half_life_s)

    def observe(self, items: np.ndarray, now: float) -> None:
        """Fold one batch of served item ids into the sketch at time ``now``."""
        items = np.asarray(items, dtype=np.int64)
        if items.size == 0:
            return
        touched, counts = np.unique(items, return_counts=True)
        self._heat[touched] = self._heat[touched] * self._decay_factor(now - self._last[touched]) + counts
        self._last[touched] = now

    def scores(self, now: float) -> np.ndarray:
        """Current decayed heat of every item (read-only view, no mutation)."""
        return self._heat * self._decay_factor(now - self._last)

    def page_scores(self, now: float, page_items: int) -> np.ndarray:
        """Item heat summed per factor page of ``page_items`` rows."""
        if page_items < 1:
            raise ValueError("page_items must be at least 1")
        scores = self.scores(now)
        if scores.size == 0:
            return scores
        starts = np.arange(0, scores.size, page_items)
        return np.add.reduceat(scores, starts)

    def grow(self, n_items: int) -> None:
        """Extend the item axis (new items start cold)."""
        if n_items < self.n_items:
            raise ValueError("heat sketch cannot shrink")
        extra = n_items - self.n_items
        if extra:
            self._heat = np.concatenate([self._heat, np.zeros(extra)])
            self._last = np.concatenate([self._last, np.zeros(extra)])
