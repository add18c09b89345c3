"""Page table mapping item-factor pages to simulated memory tiers.

Item factors are grouped into fixed-size **pages** of ``page_items``
consecutive Θ rows — the granule at which the cache promotes, demotes
and invalidates.  Each page lives in exactly one tier:

* ``TIER_HOT`` — simulated GPU device memory; top-k hits here are free.
* ``TIER_WARM`` — host DRAM; a demanded warm page pays one H2D hop.
* ``TIER_COLD`` — simulated disk; pays seek latency + streaming read
  on top of the H2D hop.

Every page also carries a **snapshot-version stamp**.  A hot page whose
stamp disagrees with the store's published version is *stale*: it must
be refetched (and is counted as ``stale_hits``) rather than served from
the device copy.  :meth:`invalidate` is the lifecycle hook — a snapshot
swap drops every page back to the warm tier re-stamped with the new
version, so a rolling v1→v2 rollout can never serve v1 factors.
"""

from __future__ import annotations

import numpy as np

from repro.serving.store import _distinct

__all__ = ["PageTable", "TIER_HOT", "TIER_WARM", "TIER_COLD", "TIER_NAMES"]

TIER_HOT = 0
TIER_WARM = 1
TIER_COLD = 2
TIER_NAMES = ("gpu-hot", "host-warm", "disk-cold")


class PageTable:
    """Tier placement and version stamps for every item-factor page."""

    def __init__(self, n_items: int, page_items: int, row_bytes: int, version: str):
        if n_items < 0:
            raise ValueError("n_items must be non-negative")
        if page_items < 1:
            raise ValueError("page_items must be at least 1")
        if row_bytes < 1:
            raise ValueError("row_bytes must be at least 1")
        self.page_items = int(page_items)
        self.row_bytes = int(row_bytes)
        self.n_items = int(n_items)
        n_pages = -(-n_items // page_items)
        # All pages start host-warm: a fresh snapshot is resident on the
        # host and the planner earns the hot tier from observed heat.
        self.tier = np.full(n_pages, TIER_WARM, dtype=np.int8)
        self.stamps = np.full(n_pages, str(version), dtype=object)
        sizes = np.full(n_pages, page_items, dtype=np.int64)
        if n_pages and n_items % page_items:
            sizes[-1] = n_items % page_items
        self.page_bytes = sizes * row_bytes
        self._resident = np.zeros(3, dtype=np.int64)
        self._resident[TIER_WARM] = int(self.page_bytes.sum())

    @property
    def n_pages(self) -> int:
        """Number of factor pages."""
        return self.tier.size

    @property
    def total_bytes(self) -> int:
        """Bytes of the full factor-page set (sum over all tiers)."""
        return int(self.page_bytes.sum())

    def pages_of(self, items: np.ndarray) -> np.ndarray:
        """Distinct page ids backing ``items``, which must be sorted ascending.

        Sorted items map to non-decreasing page ids, so the distinct pages
        are the run starts; no second sort is needed after sorting the items.
        """
        pages = np.asarray(items, dtype=np.int64) // self.page_items
        if pages.size == 0:
            return pages
        return pages[np.concatenate(([True], pages[1:] != pages[:-1]))]

    def pages_in(self, tier: int) -> np.ndarray:
        """All page ids currently resident in ``tier``."""
        return np.flatnonzero(self.tier == tier)

    def move(self, pages: np.ndarray, tier: int) -> int:
        """Re-tier pages; returns the bytes moved into ``tier``.

        A page id given twice moves (and counts its bytes) once.
        """
        pages = np.asarray(pages, dtype=np.int64)
        pages = _distinct(pages[self.tier[pages] != tier])[0]
        nbytes = self.page_bytes[pages]
        np.subtract.at(self._resident, self.tier[pages], nbytes)
        moved = int(nbytes.sum())
        self._resident[tier] += moved
        self.tier[pages] = tier
        return moved

    def stamp_pages(self, pages: np.ndarray, version: str) -> None:
        """Re-stamp pages with a snapshot version."""
        self.stamps[np.asarray(pages, dtype=np.int64)] = str(version)

    def stale_mask(self, pages: np.ndarray, version: str) -> np.ndarray:
        """Which of ``pages`` carry a stamp other than ``version``."""
        return self.stamps[np.asarray(pages, dtype=np.int64)] != str(version)

    def resident_bytes(self, tier: int) -> int:
        """Bytes currently resident in ``tier``."""
        return int(self._resident[tier])

    def invalidate(self, version: str) -> None:
        """Snapshot swap: drop every page to warm, re-stamped with ``version``.

        The device copies are gone (the swap shipped fresh shards) and
        the new snapshot is host-resident, so hot and cold pages alike
        come back as warm pages of the new version.
        """
        self.tier.fill(TIER_WARM)
        self.stamps = np.full(self.n_pages, str(version), dtype=object)
        self._resident[:] = 0
        self._resident[TIER_WARM] = self.total_bytes

    def grow(self, n_items: int, version: str) -> None:
        """Extend the item axis; new pages arrive warm at ``version``.

        The previous tail page may have been partial — its byte size is
        recomputed (it may absorb new rows up to a full page).
        """
        if n_items < self.n_items:
            raise ValueError("page table cannot shrink")
        if n_items == self.n_items:
            return
        old_pages = self.n_pages
        self.n_items = int(n_items)
        n_pages = -(-n_items // self.page_items)
        sizes = np.full(n_pages, self.page_items, dtype=np.int64)
        if n_pages and n_items % self.page_items:
            sizes[-1] = n_items % self.page_items
        new_bytes = sizes * self.row_bytes
        if old_pages:
            tail = old_pages - 1
            self._resident[self.tier[tail]] += int(new_bytes[tail] - self.page_bytes[tail])
        self.page_bytes = new_bytes
        extra = n_pages - old_pages
        if extra:
            self.tier = np.concatenate([self.tier, np.full(extra, TIER_WARM, dtype=np.int8)])
            self.stamps = np.concatenate([self.stamps, np.full(extra, str(version), dtype=object)])
            self._resident[TIER_WARM] += int(new_bytes[old_pages:].sum())
