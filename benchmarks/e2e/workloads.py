"""The four benchmark workloads.

Each workload builds its inputs from the seed in :meth:`setup`, runs one
measured repetition per :meth:`rep` call, checks outputs against the
plain-NumPy oracles as it goes (``problems``), and turns what it saw into
metric values.  Simulated-clock values come from the program's own
counters and repeat exactly for a seed; host-wall values come from the
caller's timing of :meth:`rep`.

* ``train-mp`` — Figure 9's path: SU-ALS on 4 simulated GPUs, model
  parallel (Θ replicated, no reduction), ``serial`` scheduler.
  ``compute_hermitians`` dominates host wall at f=32.
* ``train-dp`` — Algorithm 3 / Figure 10's path: grid partition, two-phase
  topology-aware reduction, ``eager`` scheduler, six times as many
  scheduled events per fit; partition/scheduling/reduction show in wall.
* ``serve-replay`` — read-only batched top-k: an open-loop Poisson ladder
  from lightly loaded to saturated; ``recommend_batch`` dominates wall.
* ``serve-lifecycle`` — writes beside reads: closed-loop recommend+rate,
  fold-ins, refresh → publish, and a multi-tenant WFQ replay with a
  rolling rollout, through the tiered cache and tenancy shedding.

A repetition (what the per-layer self times are normalised by) is a
5-iteration fit, one 20k-query replay and one lifecycle round
respectively; ``iter_wall_s`` of a fit is per ALS iteration.
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile
import time

import numpy as np

from oracles import als, identical_factors, identical_reports, lifecycle_round, rmse, same_fit, topk
from repro.core import ALSConfig, CuMF
from repro.core.als_mo import MemoryOptimizedALS
from repro.core.als_su import ScaleUpALS
from repro.datasets import HUGEWIKI, NETFLIX, DatasetSpec, generate_ratings
from repro.gpu.machine import MultiGPUMachine
from repro.gpu.topology import MachineTopology
from repro.perf.counters import OpCounter
from repro.serving import CacheConfig, FactorStore, QueryTrace, RequestSimulator, ServingConfig, TenantPolicy
from repro.sparse.csr import CSRMatrix

__all__ = ["WORKLOADS", "make_workload"]

N_GPUS = 4
ITERATIONS = 5
TOPK = 10
# Training matrices are drawn once; the run seed draws the held-out split
# and the initial factors.  train-dp's eager schedule has tipping points:
# drawn per seed, its simulated iteration lands in one of three modes up
# to 9% apart, and even the split alone flips structure 0 between two.
# Structure 1 sits away from them, so seeds move only the last digits.
STRUCTURE_SEED = 1
TEST_FRACTION = 0.1


def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31, size=n)]


def _sim_key(report):
    """Every deterministic field of a TrafficReport (host wall zeroed)."""
    return dataclasses.replace(report, wall_seconds=0.0)


def _phase_seconds(traces, phases: set) -> float:
    """Simulated time during which any task of ``phases`` runs, summed over traces.

    A phase is the task-name prefix before the first ``:``; overlapping
    tasks of one phase (four GPUs at once) count once, so phases of an
    overlapped ``eager`` schedule can add up to more than the makespan.
    """
    total = 0.0
    for trace in traces:
        spans = sorted((e.start, e.end) for e in trace.events if e.name.split(":")[0] in phases)
        end = -np.inf
        for start, stop in spans:
            if stop > end:
                total += stop - max(start, end)
                end = stop
    return total


def _gpu_layer(machines, reps: int, h2d_s: float, gather_s: float) -> dict:
    """Per-repetition ``gpu`` layer counters of the machines a workload ran on."""
    counters = [OpCounter.from_machine(m) for m in machines]
    busy = sum(c.named.get("kernel_busy_seconds", 0.0) for c in counters)
    capacity = sum(m.n_gpus * m.clock.now for m in machines)
    return {
        "sim.h2d_s": h2d_s / reps,
        "sim.gather_s": gather_s / reps,
        "sim.gpu_idle_frac": 1.0 - busy / capacity if capacity else 0.0,
        "sim.transfer_bytes": sum(c.named.get("transfer_bytes", 0.0) for c in counters) / reps,
        "sim.kernel_flops": sum(c.flops for c in counters) / reps,
        "sim.kernel_bytes": sum(c.bytes_read for c in counters) / reps,
        "sim.kernel_launches": sum(c.named.get("kernel_launches", 0.0) for c in counters) / reps,
    }


def _serving_gpu_layer(units, reps: int) -> dict:
    """``gpu`` counters of serving units: H2D is user/cache/swap uploads, gather the candidate D2H."""
    h2d = gather = 0.0
    for unit in units:
        for label, seconds in unit.machine.clock.breakdown().items():
            if "h2d" in label:
                h2d += seconds
            elif label == "serve-d2h":
                gather += seconds
    return _gpu_layer([unit.machine for unit in units], reps, h2d, gather)


def _batch_seconds(x, theta, shards: int, batch: int) -> float:
    """Simulated seconds of one full top-k batch on a fresh ``shards``-way store."""
    store = FactorStore(x, theta, n_shards=shards)
    store.recommend_batch(np.arange(batch), k=TOPK)
    return store.stats.simulated_seconds


def _split(full: CSRMatrix, rng: np.random.Generator) -> tuple[CSRMatrix, CSRMatrix]:
    """Hold out ``TEST_FRACTION`` of the ratings, never a row's or column's last one."""
    rows, cols, values = full.row_ids(), full.indices, full.data
    test = rng.random(full.nnz) < TEST_FRACTION
    test &= np.isin(rows, rows[~test]) & np.isin(cols, cols[~test])
    return tuple(CSRMatrix.from_arrays(full.shape, rows[keep], cols[keep], values[keep]) for keep in (~test, test))


def _seen_items(ratings: CSRMatrix, user: int) -> np.ndarray:
    return ratings.indices[ratings.indptr[user] : ratings.indptr[user + 1]]


class Workload:
    """Shared bookkeeping: oracle problems and operation counts."""

    min_reps = 1

    def __init__(self, seed: int, scratch):
        self.seed = seed
        self.scratch = scratch
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def warmup(self) -> None:
        """Untimed steady-state preparation before the first measured loop."""

    def finish(self) -> None:
        """Deterministic work after the first measured loop (baselines, oracles)."""

    def close(self) -> None:
        """Release files the workload created."""

    def rep_wall(self, walls) -> float:
        """The typical repetition of a measured loop, from its walls."""
        return float(np.median(walls))

    def ok_frac(self) -> float:
        return (self.attempted - self.failed) / self.attempted


class Train(Workload):
    """SU-ALS fits on 4 simulated GPUs, plus a 1-GPU MO-ALS scaling baseline."""

    def __init__(self, name, seed, smoke, scratch):
        super().__init__(seed, scratch)
        self.data_parallel = name == "train-dp"
        if self.data_parallel:
            self.spec = HUGEWIKI.scaled(max_rows=600 if smoke else 6000, f=8 if smoke else 16)
        else:
            self.spec = NETFLIX.scaled(max_rows=300 if smoke else 1500, f=8 if smoke else 32)
        self.config = ALSConfig(f=self.spec.f, lam=self.spec.lam, iterations=ITERATIONS, seed=seed)
        self.min_reps = 2 if smoke else 3
        self.reference = None  # factors of the first fit; every later fit must equal them
        self.first = None  # (solver, result) of the first fit, for the simulated metrics

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        full = generate_ratings(self.spec, seed=STRUCTURE_SEED, test_fraction=0.0).train
        self.train, self.test = _split(full, rng)
        # Uniform [0, 1) starting factors (paper §5.1), shared by every fit and the oracle.
        self.start = tuple(rng.random((n, self.spec.f)) for n in full.shape)

    def _solver(self) -> ScaleUpALS:
        if self.data_parallel:
            machine = MultiGPUMachine(N_GPUS, topology=MachineTopology.dual_socket(N_GPUS))
            return ScaleUpALS(self.config, machine=machine, q_override=4, force_data_parallel=True, scheduler="eager")
        return ScaleUpALS(self.config, n_gpus=N_GPUS, scheduler="serial")

    def rep(self, index: int) -> int:
        solver = self._solver()
        result = solver.fit(self.train, self.test, x0=self.start[0], theta0=self.start[1])
        self.attempted += 1
        if self.reference is None:
            self.reference = (result.x, result.theta)
            self.first = (solver, result)
        else:
            self.problems += identical_factors(self.reference, (result.x, result.theta), f"fit {index}")
        return 0

    def finish(self) -> None:
        baseline = MemoryOptimizedALS(self.config.with_(iterations=1)).fit(self.train)
        self.baseline_s = baseline.history[0].seconds
        self.attempted += 1
        train, test = self.train, self.test
        want = als(train.row_ids(), train.indices, train.data, train.shape, *self.start, self.spec.lam, ITERATIONS)
        want_rmse = rmse(test.row_ids(), test.indices, test.data, *want)
        self.problems += same_fit(self.reference, self.first[1].final_test_rmse, want, want_rmse)

    def end_to_end(self, walls) -> dict:
        solver, result = self.first
        sim_iter = float(np.median([h.seconds for h in result.history]))
        # The latency of one operation: an update pass (X or Θ).
        passes_ms = [trace.makespan * 1e3 for trace in solver.traces]
        return {
            "iter_wall_s": self.rep_wall(walls) / ITERATIONS,
            "sim_iter_s": sim_iter,
            "sim_scaling_eff": self.baseline_s / (solver.p * sim_iter),
            "sim_p50_ms": float(np.percentile(passes_ms, 50)),
            "sim_p95_ms": float(np.percentile(passes_ms, 95)),
            "ok_frac": self.ok_frac(),
        }

    def layer_counters(self, walls) -> dict:
        solver, result = self.first
        traces = solver.traces
        counters = _gpu_layer(
            [solver.machine],
            ITERATIONS,
            _phase_seconds(traces, {"h2d"}),
            _phase_seconds(traces, {"gather"}),
        )
        return {
            **counters,
            "sim.scatter_s": _phase_seconds(traces, {"bcast", "scatter"}) / ITERATIONS,
            "sim.herm_s": _phase_seconds(traces, {"herm"}) / ITERATIONS,
            "sim.solve_s": _phase_seconds(traces, {"solve"}) / ITERATIONS,
            "sim.reduce_s": _phase_seconds(traces, {"reduce"}) / ITERATIONS,
            "taskgraph.tasks_per_iter": sum(len(trace.events) for trace in traces) / ITERATIONS,
            "session.test_rmse": result.final_test_rmse,
        }


class ServeReplay(Workload):
    """Open-loop Poisson ladder through one 4-shard store, seen items masked."""

    rates = (400e3, 1.2e6, 2.0e6, 2.4e6, 2.8e6)
    reference_rate = 1.2e6
    shards = 4
    max_batch = 256
    window_s = 1e-3
    p95_limit_s = 1e-3
    utilization_limit = 0.9

    def __init__(self, name, seed, smoke, scratch):
        super().__init__(seed, scratch)
        self.users, self.items, self.f = (500, 1000, 16) if smoke else (5000, 10000, 32)
        self.queries = 1000 if smoke else 20000
        self.min_reps = 2 * len(self.rates)  # every rate at least twice
        self.reference = None  # simulated reports of the warm-up pass, per rate

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.x = rng.standard_normal((self.users, self.f))
        self.theta = rng.standard_normal((self.items, self.f))
        nnz = 25 * self.users
        self.seen = CSRMatrix.from_arrays(
            (self.users, self.items), rng.integers(0, self.users, nnz), rng.integers(0, self.items, nnz), np.ones(nnz)
        )
        self.store = FactorStore(self.x, self.theta, n_shards=self.shards)
        self.traces = [
            QueryTrace.poisson(self.queries, rate, self.users, seed=s) for rate, s in zip(self.rates, _seeds(rng, len(self.rates)))
        ]

    def _replay(self, i: int):
        # A fresh replica per replay: simulated service times are differences
        # of the store's running total, whose rounding drifts as it grows.
        replica = self.store.replicate()
        sim = RequestSimulator(replica, k=TOPK, exclude=self.seen, max_batch=self.max_batch, window_s=self.window_s)
        report = sim.run(self.traces[i])
        self.attempted += report.n_requests
        self.failed += report.n_dropped
        return report, replica

    def warmup(self) -> None:
        reports, replicas = zip(*(self._replay(i) for i in range(len(self.rates))))
        self.reports = list(reports)
        self.reference = [_sim_key(report) for report in self.reports]
        self.gpu = _serving_gpu_layer(replicas, len(self.reports))

    def rep(self, index: int) -> int:
        i = index % len(self.rates)
        report, _ = self._replay(i)
        self.problems += identical_reports(self.reference[i], _sim_key(report), f"replay {index} @ {self.rates[i]:g} qps")
        return report.n_requests

    def rep_wall(self, walls) -> float:
        """Mean over the ladder of each rate's median replay wall.

        Replays at different rates cost differently; weighing every rate
        the same keeps the mix fixed however many replays fit in the loop.
        """
        n = len(self.rates)
        return float(np.mean([np.median(walls[i::n]) for i in range(n)]))

    def finish(self) -> None:
        users = np.random.default_rng(self.seed).choice(self.users, size=64, replace=False)
        for user, recs in zip(users, self.store.recommend_batch(users, k=TOPK, exclude=self.seen)):
            self.problems += topk(recs, self.x[user] @ self.theta.T, _seen_items(self.seen, user), TOPK, f"user {user}")
        single = _batch_seconds(self.x, self.theta, 1, self.max_batch)
        self.scaling = single / (self.shards * _batch_seconds(self.x, self.theta, self.shards, self.max_batch))

    def _at(self, rate: float):
        return self.reports[self.rates.index(rate)]

    def end_to_end(self, walls) -> dict:
        reference = self._at(self.reference_rate)
        return {
            "iter_wall_s": self.rep_wall(walls),
            "sim_iter_s": float(np.mean([report.makespan_s for report in self.reports])),
            "sim_scaling_eff": self.scaling,
            "sim_p50_ms": reference.latency_p50_s * 1e3,
            "sim_p95_ms": reference.latency_p95_s * 1e3,
            "ok_frac": self.ok_frac(),
        }

    def layer_counters(self, walls) -> dict:
        reference = self._at(self.reference_rate)
        sustained = [
            rate
            for rate, report in zip(self.rates, self.reports)
            if report.latency_p95_s <= self.p95_limit_s and max(report.per_replica_utilization) <= self.utilization_limit
        ]
        return {
            **self.gpu,
            "sim.serve_s": float(np.mean([report.service_seconds for report in self.reports])),
            "simulator.batches": float(np.mean([report.n_batches for report in self.reports])),
            "simulator.mean_batch": sum(r.n_requests for r in self.reports) / sum(r.n_batches for r in self.reports),
            "sim.utilization": max(reference.per_replica_utilization),
            **{f"simulator.p95_ms.{rate / 1e3:.0f}k": report.latency_p95_s * 1e3 for rate, report in zip(self.rates, self.reports)},
            "simulator.sustained_qps": max(sustained, default=0.0),
            "simulator.replay_qps": self.queries / self.rep_wall(walls),
            "routing.max_share": max(reference.per_replica_queries) / sum(reference.per_replica_queries),
        }


@dataclasses.dataclass
class Round:
    report: object
    calls: int  # closed-loop data-plane calls (recommend and rate)
    lost: int  # of those, shed or answered with an error
    closed_latency_s: float
    fold_in_s: float
    refresh_wall_s: float

    @property
    def sim_s(self) -> float:
        """The round on the simulated clock: closed loop, fold-ins, then the replay."""
        return self.closed_latency_s + self.fold_in_s + self.report.makespan_s


class ServeLifecycle(Workload):
    """Train → serve → (rate, fold in, refresh, roll out under traffic) × rounds."""

    tenants = (
        TenantPolicy("interactive", weight=4.0, deadline_ms=2.0),
        TenantPolicy("batch"),
        TenantPolicy("capped", rate_cap_qps=20_000.0),
    )
    rates = {"interactive": 500e3, "batch": 500e3, "capped": 150e3}
    max_batch = 64
    window_s = 2e-4
    checked_calls = 8  # closed-loop answers per round compared with the exact top-k

    def __init__(self, name, seed, smoke, scratch):
        super().__init__(seed, scratch)
        m, n, nnz, f = (600, 400, 12_000, 8) if smoke else (4000, 3000, 120_000, 16)
        self.spec = DatasetSpec("lifecycle", m, n, nnz, f, 0.05, kind="synthetic")
        self.closed = 30 if smoke else 300
        self.fold_ins = 4 if smoke else 20
        self.queries = 2000 if smoke else 20000
        # Simulated metrics read the first min_reps rounds, so they do not
        # depend on how many rounds fit in the time budget.
        self.min_reps = 2 if smoke else 8
        self.reference: list = []  # simulated round keys of the first measured loop
        self.registry_dir = None
        self.gpu = None

    def setup(self) -> None:
        self.close()
        data = generate_ratings(self.spec, seed=self.seed)
        model = CuMF(ALSConfig(f=self.spec.f, lam=self.spec.lam, iterations=3, seed=self.seed), backend="mo")
        self.test_rmse = model.fit(data.train, data.test).final_test_rmse
        self.registry_dir = tempfile.mkdtemp(prefix="registry-", dir=self.scratch)
        self.service = model.serve(
            ServingConfig(
                replicas=3,
                n_shards=2,
                registry_dir=self.registry_dir,
                ratings=data.train,
                tenants=self.tenants,
                cache=CacheConfig(hot_fraction=0.2, page_items=64, plan_window_s=5e-4),
            )
        )
        self.rng = np.random.default_rng(self.seed)
        self.rounds: list[Round] = []

    def close(self) -> None:
        if self.registry_dir is not None:
            shutil.rmtree(self.registry_dir, ignore_errors=True)
            self.registry_dir = None

    def rep(self, index: int) -> int:
        service, rng = self.service, self.rng
        units = service.backend.serving_units()
        label = f"round {index}"
        calls = errors = shed = 0
        latency = fold_in_s = 0.0

        # 1. One closed-loop client: recommend, then rate the top answer.
        ratings = service.ratings
        for call in range(self.closed):
            user = int(rng.integers(service.n_users))
            response = service.recommend(user, k=TOPK, tenant="interactive")
            calls += 1
            errors += response.status == "error"
            shed += response.status == "shed"
            if response.status not in ("ok", "degraded"):
                continue
            latency += response.latency_s
            if call < self.checked_calls:
                unit = units[response.replica]
                scores = unit.x[user] @ unit.theta.T
                self.problems += topk(response.payload[0], scores, _seen_items(ratings, user), TOPK, f"{label} user {user}")
            item = response.payload[0][0][0]
            calls += 1
            errors += service.rate(user, np.array([item]), np.array([float(rng.integers(1, 6))])).status == "error"

        # 2. Cold-start fold-ins (write-through: every replica pays the same).
        for _ in range(self.fold_ins):
            items = rng.choice(service.n_items, size=8, replace=False)
            before = units[0].stats.simulated_seconds
            service.fold_in(items, rng.uniform(1.0, 5.0, size=items.size))
            fold_in_s += units[0].stats.simulated_seconds - before

        # 3. Refresh from the log and publish the next version.
        t0 = time.perf_counter()
        service.refresh(tag=f"round{index}")
        refresh_wall = time.perf_counter() - t0

        # 4. Multi-tenant open-loop replay while the new version rolls out.
        duration = self.queries / sum(self.rates.values())
        trace = QueryTrace.multi_tenant(self.rates, duration, service.n_users, seed=_seeds(rng, 1)[0])
        events = service.plan_rollout(start_s=0.25 * duration, step_s=0.2 * duration)
        # No exclusion: mid-rollout units serve different user axes than the merged matrix.
        report = service.simulate(trace, events, k=TOPK, max_batch=self.max_batch, window_s=self.window_s, exclude=None)

        self.problems += lifecycle_round(index, report, errors, service.registry.latest_version(), service.versions(), label)
        self.attempted += calls + self.fold_ins + 1 + report.n_requests
        self.failed += errors + report.n_dropped
        self.rounds.append(Round(report, calls, shed + errors, latency, fold_in_s, refresh_wall))
        key = (_sim_key(report), latency, fold_in_s)
        if index < len(self.reference):
            self.problems += identical_reports(self.reference[index], key, label)
        else:
            self.reference.append(key)
        if self.gpu is None and index == self.min_reps - 1:
            self.gpu = _serving_gpu_layer(units, self.min_reps)
        return self.closed - shed + report.n_requests - report.n_shed - report.n_dropped

    def finish(self) -> None:
        unit = self.service.backend.serving_units()[0]
        single = _batch_seconds(unit.x, unit.theta, 1, self.max_batch)
        self.scaling = single / (unit.n_shards * _batch_seconds(unit.x, unit.theta, unit.n_shards, self.max_batch))

    def _measured(self) -> list[Round]:
        return self.rounds[: self.min_reps]

    def end_to_end(self, walls) -> dict:
        rounds = self._measured()
        sent = sum(r.calls + r.report.n_requests for r in rounds)
        lost = sum(r.lost + r.report.n_shed + r.report.n_dropped for r in rounds)
        return {
            "iter_wall_s": self.rep_wall(walls),
            "sim_iter_s": float(np.median([r.sim_s for r in rounds])),
            "sim_scaling_eff": self.scaling,
            "sim_p50_ms": float(np.median([r.report.latency_p50_s for r in rounds])) * 1e3,
            "sim_p95_ms": float(np.median([r.report.latency_p95_s for r in rounds])) * 1e3,
            # Shed requests are the tenancy policy's answer, not errors, but
            # a user did not get recommendations: they count against ok_frac.
            "ok_frac": 1.0 - lost / sent,
        }

    def layer_counters(self, walls) -> dict:
        rounds = self._measured()
        reports = [r.report for r in rounds]
        n = len(reports)
        cache = [report.cache for report in reports]
        lookups = sum(c.get("hits", 0) + c.get("misses", 0) for c in cache)

        def per_round(field: str) -> float:
            return sum(getattr(t, field) for report in reports for t in report.per_tenant.values()) / n

        return {
            **self.gpu,
            "sim.serve_s": float(np.median([report.service_seconds for report in reports])),
            "simulator.batches": float(np.mean([report.n_batches for report in reports])),
            "simulator.mean_batch": sum(r.n_requests - r.n_shed for r in reports) / sum(r.n_batches for r in reports),
            "sim.utilization": float(np.median([max(report.per_replica_utilization) for report in reports])),
            "simulator.replay_qps": float(np.median([report.n_requests / report.wall_seconds for report in reports])),
            "cache.hit_rate": sum(c.get("hits", 0) for c in cache) / lookups if lookups else 0.0,
            "cache.promotions": sum(c.get("promotions", 0) for c in cache) / n,
            "cache.waves": sum(c.get("waves", 0) for c in cache) / n,
            "cache.stale_hits": float(sum(c.get("stale_hits", 0) for c in cache)),
            "tenancy.shed_cap": per_round("n_shed_cap"),
            "tenancy.shed_deadline": per_round("n_shed_deadline"),
            "tenancy.shed_queue": per_round("n_shed_queue"),
            "tenancy.degraded": per_round("n_degraded"),
            "tenancy.slo_violations": per_round("n_slo_violations"),
            "routing.max_share": float(
                np.median([max(report.per_replica_queries) / sum(report.per_replica_queries) for report in reports])
            ),
            "lifecycle.dropped": float(sum(report.n_dropped for report in reports)),
            "lifecycle.rollout_p95_ms": float(np.median([report.window_p95_s for report in reports])) * 1e3,
            "lifecycle.refresh_wall_s": float(np.median([r.refresh_wall_s for r in self.rounds])),
            "session.test_rmse": self.test_rmse,
        }


WORKLOADS = {
    "train-mp": Train,
    "train-dp": Train,
    "serve-replay": ServeReplay,
    "serve-lifecycle": ServeLifecycle,
}


def make_workload(name: str, seed: int, smoke: bool, scratch) -> Workload:
    return WORKLOADS[name](name, seed, smoke, scratch)
