"""Tiered factor store: FactorStore fronted by the heat-aware cache.

:class:`TieredFactorStore` is a drop-in :class:`~repro.serving.store.FactorStore`
(any :class:`~repro.serving.cluster.ServingCluster` can hold it as a
replica, and it returns bit-identical top-k results) that models *where
item-factor pages live*.
The exact batched scan stays untouched; what changes is the
materialization cost of the answers: every returned item's factor page
is demanded from the tier hierarchy, and

* a **hot** page stamped with the current snapshot version is a hit —
  the factors were already on-device, no extra cost;
* a **warm** page pays an H2D hop for its bytes (and demand-fills stay
  warm — only the planner earns pages the hot tier);
* a **cold** page pays disk seek + streaming read before the H2D hop
  and is demand-filled into the warm tier;
* a hot page with a *stale* stamp counts as ``stale_hits`` and is
  refetched like a warm miss — the invariant the lifecycle tests pin is
  that this counter stays zero, because ``swap_snapshot``/``grow_items``
  invalidate/re-stamp the page table before any query can demand a
  stale page.

A batch's missed pages go as **one H2D per owning device** (the shard
holding the page's first item), as cuMF moves data in a few large
copies.  The charge equals one transfer per page: a batch costs its most
loaded directed link's bytes over bandwidth plus one latency for the
longest path, and merging same-path pages changes neither the per-link
byte sums (integer-valued, so exact in float64) nor the set of paths.

Once per planning window the :class:`~repro.serving.cache.planner.CachePlanner`
turns decayed heat into promotion/demotion waves, executed here as
one H2D and one D2H per device per wave on the store's simulated
machine and published through :mod:`repro.obs` (``cache.*`` counters,
``cache.resident_bytes{tier=...}`` gauges, one span per wave).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

import repro.obs as obs
from repro.core.kernels import FLOAT_BYTES
from repro.gpu.transfer import TransferReport
from repro.serving.cache.config import CacheConfig
from repro.serving.cache.heat import HeatSketch
from repro.serving.cache.pages import TIER_COLD, TIER_HOT, TIER_NAMES, TIER_WARM, PageTable
from repro.serving.cache.planner import CachePlanner
from repro.serving.store import FactorStore, _distinct
from repro.sparse.csr import CSRMatrix

__all__ = ["TieredFactorStore", "CacheStats"]

# Priced fill batches a store keeps per (partition, page table); see TieredFactorStore._fill_report.
_FILL_REPORTS = 4096
_UNPRICED = object()


@dataclass
class CacheStats:
    """Running counters of one tiered store's cache activity.

    Hits and misses count *demanded pages* (per top-k batch, per unique
    page backing a returned item), so ``hit_rate`` is the fraction of
    page demands the hot tier absorbed.  ``miss_seconds`` is simulated
    time spent materializing misses and running promotion waves — the
    cache's contribution to serving latency.
    """

    hits: int = 0
    warm_misses: int = 0
    cold_misses: int = 0
    stale_hits: int = 0
    demand_fills: int = 0
    spills: int = 0
    promotions: int = 0
    demotions: int = 0
    promoted_bytes: int = 0
    demoted_bytes: int = 0
    waves: int = 0
    plans: int = 0
    invalidations: int = 0
    miss_seconds: float = 0.0

    @property
    def misses(self) -> int:
        """All non-hit page demands (warm + cold + stale)."""
        return self.warm_misses + self.cold_misses + self.stale_hits

    def hit_rate(self) -> float:
        """Hot-tier fraction of page demands (0.0 for an idle store)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        """Plain-dict view for reports and cluster aggregation."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "warm_misses": self.warm_misses,
            "cold_misses": self.cold_misses,
            "stale_hits": self.stale_hits,
            "demand_fills": self.demand_fills,
            "spills": self.spills,
            "promotions": self.promotions,
            "demotions": self.demotions,
            "promoted_bytes": self.promoted_bytes,
            "demoted_bytes": self.demoted_bytes,
            "waves": self.waves,
            "plans": self.plans,
            "invalidations": self.invalidations,
            "miss_seconds": self.miss_seconds,
            "hit_rate": self.hit_rate(),
        }

    @staticmethod
    def summed(blocks: Iterable[dict]) -> dict:
        """Counter blocks (:meth:`as_dict` views, or deltas of them) summed over stores; ``{}`` for none.

        ``hit_rate`` is not summed: it is recomputed from the summed hits
        and misses.  The cluster's ``stats_dict()["cache"]`` and a replay's
        :attr:`~repro.serving.simulator.TrafficReport.cache` both come from here.
        """
        agg: dict = {}
        for block in blocks:
            for key, value in block.items():
                if key != "hit_rate":
                    agg[key] = agg.get(key, 0) + value
        if not agg:
            return {}
        total = agg["hits"] + agg["misses"]
        agg["hit_rate"] = agg["hits"] / total if total else 0.0
        return agg


class TieredFactorStore(FactorStore):
    """A FactorStore whose item factors live in a tiered memory hierarchy.

    Parameters
    ----------
    cache:
        :class:`~repro.serving.cache.config.CacheConfig` (or a kwargs
        dict for one); ``None`` uses the config defaults.  All other
        parameters are inherited from :class:`FactorStore`.
    """

    def __init__(self, x: np.ndarray, theta: np.ndarray, *, cache=None, **kwargs):
        coerced = CacheConfig.coerce(cache)
        self.cache_config = coerced if coerced is not None else CacheConfig()
        super().__init__(x, theta, **kwargs)
        self._init_cache()

    # ------------------------------------------------------------------ #
    # cache construction / clone hook
    # ------------------------------------------------------------------ #
    def _init_cache(self) -> None:
        """(Re)build heat sketch, page table and planner for this snapshot."""
        cfg = self.cache_config
        self._pages = PageTable(self.n_items, cfg.page_items, self.f * FLOAT_BYTES, self.version)
        self._heat = HeatSketch(self.n_items, cfg.half_life_s)
        self._rebuild_planner()
        self.cache_stats = CacheStats()
        self._missed = 0.0  # miss seconds spent since a replay last reset it (simulator._cache_snapshot)
        self._last_plan = self.machine.elapsed_seconds()
        # Each page's owning device and the priced fill batches, for the
        # (partition, page table) pair they were built on; see _fill_report.
        self._fill_key: tuple = (None, None)

    def _rebuild_planner(self) -> None:
        """Re-resolve capacities (hot_fraction tracks the item axis)."""
        cfg = self.cache_config
        hot_capacity = cfg.hot_capacity(self._pages.total_bytes)
        full_page = cfg.page_items * self.f * FLOAT_BYTES
        self._planner = CachePlanner(
            hot_capacity=hot_capacity,
            wave_budget=cfg.wave_budget(hot_capacity, full_page),
            hysteresis=cfg.hysteresis,
        )

    def _clone_kwargs(self) -> dict:
        """Replicas rebuild the same tier configuration."""
        return {**super()._clone_kwargs(), "cache": self.cache_config}

    # ------------------------------------------------------------------ #
    # lifecycle: invalidation composes with refresh / rollout
    # ------------------------------------------------------------------ #
    def _swap_to(self, gated, **kwargs) -> None:
        """Swap + invalidate: every cached page drops to warm at the new version."""
        old_items = self.n_items
        super()._swap_to(gated, **kwargs)
        if self.n_items != old_items:
            self._heat = HeatSketch(self.n_items, self.cache_config.half_life_s)
        self._pages = PageTable(self.n_items, self.cache_config.page_items, self.f * FLOAT_BYTES, self.version)
        self._rebuild_planner()
        self.cache_stats.invalidations += 1
        self._last_plan = self.machine.elapsed_seconds()
        self._publish_residency()
        if obs.enabled():
            obs.get_registry().counter("cache.invalidations", subsystem="serving").inc()
            obs.get_tracer().instant(
                f"cache invalidate -> {self.version}",
                ts=self.machine.elapsed_seconds(),
                category="cache",
                process="serve",
                track="cache",
                version=self.version,
            )

    def _grow_to(self, model) -> None:
        """Append items; the new pages arrive warm, stamped with the current version."""
        super()._grow_to(model)
        self._heat.grow(self.n_items)
        self._pages.grow(self.n_items, self.version)
        self._rebuild_planner()
        self._publish_residency()

    # ------------------------------------------------------------------ #
    # the demand path: classify returned items' pages, charge the misses
    # ------------------------------------------------------------------ #
    def _topk_block(self, block: np.ndarray, kk: int, exclude: CSRMatrix | None) -> tuple[np.ndarray, np.ndarray]:
        ids, vals = super()._topk_block(block, kk, exclude)
        self._touch(ids[np.isfinite(vals)])
        return ids, vals

    def _touch(self, items: np.ndarray) -> None:
        """Demand the factor pages backing one batch's returned items.

        The batch's distinct items and their counts come from one sort
        (:func:`~repro.serving.store._distinct`), the pages are classified
        by one ``bincount`` of their tiers, and only hot pages are checked
        for a stale stamp: a warm or cold page is fetched either way.  The
        fill is charged from a report priced once per per-device byte
        vector (:meth:`_fill_report`).
        """
        now = self.machine.elapsed_seconds()
        stats = self.cache_stats
        if items.size:
            touched, counts = _distinct(items)
            self._heat.observe(touched, counts, now)
            pages = self._pages.pages_of(touched)
            tiers = self._pages.tier[pages]
            n_hot, n_warm, n_cold = np.bincount(tiers, minlength=3).tolist()
            fetch = tiers != TIER_HOT
            n_stale = 0
            if n_hot:
                hot = np.flatnonzero(~fetch)
                stale = hot[self._pages.stale_mask(pages[hot], self.version)]
                n_stale = stale.size
                fetch[stale] = True
            stats.hits += n_hot - n_stale
            stats.stale_hits += n_stale
            stats.warm_misses += n_warm
            stats.cold_misses += n_cold

            spent = 0.0
            if n_cold:
                cold = pages[tiers == TIER_COLD]
                spent = self.cache_config.cold_latency_s + int(self._pages.page_bytes[cold].sum()) / (self.cache_config.cold_bandwidth_gbs * 1e9)
                self.machine.clock.advance(spent, label="cache-cold-read")
            if n_stale or n_warm or n_cold:
                spent += self.machine.charge_transfers(self._fill_report(pages[fetch]), label="cache-fill-h2d")
            if spent:
                self._spend_on_misses(spent)

            if n_cold:
                self._pages.move(cold, TIER_WARM)
                stats.demand_fills += n_cold
            if n_stale:
                # Refetched from the (current-version) host copy: the
                # device page is now fresh again.
                self._pages.stamp_pages(pages[stale], self.version)
            self._enforce_warm_capacity(now)
            if obs.enabled():
                registry = obs.get_registry()
                if n_hot - n_stale:
                    registry.counter("cache.hits", subsystem="serving").inc(n_hot - n_stale)
                if n_stale + n_warm + n_cold:
                    registry.counter("cache.misses", subsystem="serving").inc(n_stale + n_warm + n_cold)
                if n_stale:
                    registry.counter("cache.stale_hits", subsystem="serving").inc(n_stale)
        if now - self._last_plan >= self.cache_config.plan_window_s:
            self._run_plan()

    def _fill_report(self, pages: np.ndarray) -> TransferReport | None:
        """The priced :meth:`_page_transfers` batch that demand-fills ``pages`` (one H2D per owning device).

        Each page's owning device is found once per (partition, page
        table) pair, so a batch's per-device bytes cost one ``bincount``,
        and a batch is priced once per per-device byte vector.  Charging
        the report moves the clock and the transfer totals exactly as
        running the batch would.  The reports are kept until the partition
        or the page table is rebuilt, and at most ``_FILL_REPORTS`` of
        them: a long-lived store meets ever new byte vectors.
        """
        if self._fill_key[0] is not self.partition or self._fill_key[1] is not self._pages:
            self._fill_key = (self.partition, self._pages)
            first_items = np.arange(self._pages.n_pages) * self._pages.page_items
            self._owners = np.searchsorted(self.partition.bounds, first_items, side="right") - 1
            self._fill_reports: dict[bytes, TransferReport | None] = {}
        key = np.bincount(self._owners[pages], weights=self._pages.page_bytes[pages], minlength=self.n_shards).tobytes()
        report = self._fill_reports.get(key, _UNPRICED)
        if report is _UNPRICED:
            if len(self._fill_reports) >= _FILL_REPORTS:
                self._fill_reports.clear()
            report = self._fill_reports[key] = self.machine.transfer_engine.estimate(self._page_transfers(pages, self.machine.h2d, "cache-fill"))
        return report

    def _page_transfers(self, pages: np.ndarray, make, tag: str) -> list:
        """One ``make`` (``machine.h2d``/``d2h``) transfer per device owning any of ``pages`` (repeats count)."""
        owners = np.searchsorted(self.partition.bounds, pages * self._pages.page_items, side="right") - 1
        nbytes = np.bincount(owners, weights=self._pages.page_bytes[pages]).tolist()
        return [make(d, int(b), tag=tag) for d, b in enumerate(nbytes) if b]

    def _enforce_warm_capacity(self, now: float) -> None:
        """Spill coldest warm pages to disk when host capacity is bounded."""
        limit = self.cache_config.warm_bytes
        if limit is None or self._pages.resident_bytes(TIER_WARM) <= limit:
            return
        warm = self._pages.pages_in(TIER_WARM)
        heat = self._heat.page_scores(now, self.cache_config.page_items)[warm]
        coldest = warm[np.argsort(heat, kind="stable")]
        # The shortest coldest-first prefix whose bytes bring warm back
        # under the limit.  Host-side bookkeeping only: dropping a host
        # page to disk is a free()+writeback the simulator does not charge.
        excess = self._pages.resident_bytes(TIER_WARM) - limit
        spill = coldest[: int(np.searchsorted(np.cumsum(self._pages.page_bytes[coldest]), excess)) + 1]
        self._pages.move(spill, TIER_COLD)
        self.cache_stats.spills += int(spill.size)

    # ------------------------------------------------------------------ #
    # plan-then-execute: promotion/demotion waves on the simulated machine
    # ------------------------------------------------------------------ #
    def _run_plan(self) -> None:
        """Plan against current heat and execute the waves as transfers."""
        now = self.machine.elapsed_seconds()
        plan = self._planner.plan(
            self._heat.page_scores(now, self.cache_config.page_items),
            self._pages.tier,
            self._pages.page_bytes,
        )
        stats = self.cache_stats
        stats.plans += 1
        self._last_plan = now
        if not plan.waves:
            return
        obs_on = obs.enabled()
        registry = obs.get_registry()
        tracer = obs.get_tracer()
        spent = 0.0
        for wave in plan.waves:
            before = self.machine.elapsed_seconds()
            promoted = np.array(wave.promotions, dtype=np.int64)
            demoted = np.array(wave.demotions, dtype=np.int64)
            spent += self.machine.run_transfers(
                self._page_transfers(promoted, self.machine.h2d, "cache-promote") + self._page_transfers(demoted, self.machine.d2h, "cache-demote"),
                label="cache-wave",
            )
            self._pages.move(promoted, TIER_HOT)
            self._pages.stamp_pages(promoted, self.version)
            self._pages.move(demoted, TIER_WARM)
            stats.waves += 1
            stats.promotions += promoted.size
            stats.demotions += demoted.size
            stats.promoted_bytes += wave.promo_bytes
            stats.demoted_bytes += wave.demo_bytes
            if obs_on:
                registry.counter("cache.promotions", subsystem="serving").inc(int(promoted.size))
                if demoted.size:
                    registry.counter("cache.demotions", subsystem="serving").inc(int(demoted.size))
                tracer.add_span(
                    f"cache wave[+{promoted.size}/-{demoted.size}]",
                    start=before,
                    end=self.machine.elapsed_seconds(),
                    category="cache",
                    process="serve",
                    track="cache",
                    promo_bytes=wave.promo_bytes,
                    demo_bytes=wave.demo_bytes,
                )
        self._spend_on_misses(spent)
        self._publish_residency()

    def _spend_on_misses(self, seconds: float) -> None:
        """Credit ``seconds`` of fills or plan waves: to serving time, the lifetime ``miss_seconds`` and the replay's miss meter."""
        self._spend(seconds)
        self.cache_stats.miss_seconds += seconds
        self._missed += seconds

    def _publish_residency(self) -> None:
        """Gauge per-tier resident bytes into the active registry."""
        if not obs.enabled():
            return
        registry = obs.get_registry()
        for tier, name in enumerate(TIER_NAMES):
            registry.gauge("cache.resident_bytes", subsystem="serving", tier=name).set(float(self._pages.resident_bytes(tier)))

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def resident_bytes(self) -> dict:
        """Bytes resident per tier, keyed by tier name."""
        return {name: self._pages.resident_bytes(t) for t, name in enumerate(TIER_NAMES)}
