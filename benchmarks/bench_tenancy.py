"""Multi-tenant serving benchmarks: SLO isolation under overload, and
what the tenancy layer costs when it is switched off.

Three pins, mirroring the acceptance criteria of the tenancy layer:

* **overload isolation** — at 2x aggregate overload across three
  tenants, the high-priority interactive tenant keeps its p95 inside
  its deadline with zero sheds, the capped tenant is rate-limited
  through typed shed envelopes (not queueing), and the leftover
  capacity goes to the batch tenant (work conservation within 10%);
* **weighted shares** — two saturated tenants with 2:1 weights and
  bounded flow buffers split throughput 2:1 within 10%;
* **the serve-lifecycle mix** — the wall of one 20k-query replay of
  the e2e workload's three tenants, timed (not asserted);
* **zero cost when unconfigured** — the replay loop's FIFO discipline
  and its WFQ discipline under a trivial single-tenant policy produce
  byte-identical aggregate reports, and without a policy table a
  tenant-labelled trace stays on the FIFO discipline (per-tenant reports
  are built post hoc) at < 5% wall overhead over a plain trace.
"""

import time

import numpy as np
import pytest

from repro.core.config import FitResult
from repro.serving import QueryTrace, RequestSimulator, ServingCluster, TenantPolicy
from repro.serving.store import FactorStore

M_USERS = 5_000
N_ITEMS = 20_000
F = 32
N_SHARDS = 4
TOPK = 10
MAX_BATCH = 32
ROUNDS = 7
MAX_OVERHEAD = 0.05

# The e2e serve-lifecycle workload's replay: tenants, offered rates, batching.
LIFECYCLE_TENANTS = (
    TenantPolicy("interactive", weight=4.0, deadline_ms=2.0),
    TenantPolicy("batch"),
    TenantPolicy("capped", rate_cap_qps=20_000.0),
)
LIFECYCLE_RATES = {"interactive": 500e3, "batch": 500e3, "capped": 150e3}
LIFECYCLE_QUERIES = 20_000


@pytest.fixture(scope="module")
def result():
    rng = np.random.default_rng(7)
    return FitResult(
        x=rng.random((M_USERS, F)),
        theta=rng.random((N_ITEMS, F)),
        solver="bench-random",
    )


def _store(result):
    return FactorStore.from_result(result, n_shards=N_SHARDS)


@pytest.fixture(scope="module")
def per_query(result):
    """Calibrated simulated service seconds per query on this store."""
    sim = RequestSimulator(_store(result), k=TOPK, max_batch=MAX_BATCH, window_s=1e-3)
    report = sim.run(QueryTrace.poisson(2000, 1e7, M_USERS, seed=5))
    return report.service_seconds / report.n_requests


def test_bench_overload_slo(result, per_query, report):
    """2x overload, three tenants: the SLO tenant is untouchable."""
    store = _store(result)
    capacity = 1.0 / per_query  # one store: one query per per_query seconds
    slo_ms = 20 * MAX_BATCH * per_query * 1e3  # ~20 batch-times of queueing
    cap = 0.05 * capacity
    policies = [
        TenantPolicy("interactive", weight=4.0, priority=5, deadline_ms=slo_ms, queue_limit=64),
        TenantPolicy("batch", weight=1.0, priority=0, queue_limit=64),
        TenantPolicy("capped", rate_cap_qps=cap, burst=16),
    ]
    rates = {"interactive": 0.4 * capacity, "batch": 1.4 * capacity, "capped": 0.2 * capacity}
    duration = 24_000 / sum(rates.values())  # 2x overload, ~24k requests
    trace = QueryTrace.multi_tenant(rates, duration, M_USERS, seed=11)
    sim = RequestSimulator(
        store,
        k=TOPK,
        max_batch=MAX_BATCH,
        window_s=2 * MAX_BATCH * per_query,
        policies=policies,
        max_pending=256,
    )
    traffic = sim.run(trace)
    interactive = traffic.per_tenant["interactive"]
    batch = traffic.per_tenant["batch"]
    capped = traffic.per_tenant["capped"]
    report(
        "tenant SLO isolation at 2x overload (capacity %.0f qps)" % capacity,
        traffic.summary(),
    )
    # The SLO tenant: zero sheds, p95 inside its deadline.
    assert interactive.n_shed == 0
    assert interactive.latency_p95_s <= slo_ms / 1e3
    # The capped tenant is limited by its token bucket, not by queueing.
    assert capped.n_shed_cap > 0
    assert capped.throughput_qps <= cap * 1.3
    # Work conservation: the batch tenant soaks up whatever is left.
    leftover = capacity - interactive.throughput_qps - capped.throughput_qps
    assert batch.throughput_qps == pytest.approx(leftover, rel=0.10)


def test_bench_weighted_shares(result, per_query, report):
    """Two saturated tenants split capacity by WFQ weight within 10%."""
    store = _store(result)
    capacity = 1.0 / per_query  # one store: one query per per_query seconds
    policies = [
        TenantPolicy("gold", weight=2.0, queue_limit=64),
        TenantPolicy("bronze", weight=1.0, queue_limit=64),
    ]
    rate = 1.2 * capacity  # each tenant alone overloads the store
    duration = 16_000 / (2 * rate)
    trace = QueryTrace.multi_tenant({"gold": rate, "bronze": rate}, duration, M_USERS, seed=13)
    sim = RequestSimulator(
        store,
        k=TOPK,
        max_batch=MAX_BATCH,
        window_s=2 * MAX_BATCH * per_query,
        policies=policies,
    )
    traffic = sim.run(trace)
    gold = traffic.per_tenant["gold"]
    bronze = traffic.per_tenant["bronze"]
    ratio = gold.n_served / bronze.n_served
    report(
        "weighted fair shares, 2:1 weights at 2.4x offered load",
        "gold:   %6d served (%.0f qps, share %.3f)\n"
        "bronze: %6d served (%.0f qps, share %.3f)\n"
        "served ratio: %.3f (want 2.0 +/- 10%%)"
        % (
            gold.n_served,
            gold.throughput_qps,
            gold.share,
            bronze.n_served,
            bronze.throughput_qps,
            bronze.share,
            ratio,
        ),
    )
    assert gold.n_shed_queue > 0 and bronze.n_shed_queue > 0  # genuinely saturated
    assert ratio == pytest.approx(2.0, rel=0.10)


def test_bench_zero_cost_when_unconfigured(result, report):
    """Acceptance pin: tenancy is free until a policy table shows up."""
    trace_plain = QueryTrace.poisson(4000, 40_000.0, M_USERS, seed=3)
    trace_labelled = QueryTrace(
        trace_plain.arrivals,
        trace_plain.users,
        label=trace_plain.label,
        tenants=np.full(trace_plain.n_requests, "solo"),
    )

    def build(policies=None):
        return RequestSimulator(
            _store(result),
            k=TOPK,
            max_batch=MAX_BATCH,
            window_s=1e-3,
            policies=policies,
        )

    fifo = build().run(trace_plain)
    wfq = build(policies=[TenantPolicy("solo")]).run(trace_labelled)
    # Byte-identical aggregates: under a trivial single-tenant policy the
    # WFQ discipline fills the exact same windows as the FIFO one.
    for fld in (
        "n_requests",
        "n_batches",
        "mean_batch_size",
        "makespan_s",
        "throughput_qps",
        "service_seconds",
        "latency_p50_s",
        "latency_p95_s",
        "latency_max_s",
        "n_dropped",
        "per_replica_queries",
    ):
        assert getattr(fifo, fld) == getattr(wfq, fld), fld
    assert wfq.n_shed == 0 and wfq.n_degraded == 0

    # Wall overhead of the *unconfigured* path: with no policy table,
    # labelling a trace keeps per-tenant visibility (post-hoc reports)
    # but must stay on the FIFO discipline and cost < 5% wall.  The WFQ
    # discipline's own cost (only paid once policies are configured) is
    # reported for context, not asserted — it is Python bookkeeping per
    # request, noise-dominated at this scale.
    sim_plain = build()
    sim_labelled = build()
    sim_sched = build(policies=[TenantPolicy("solo")])
    sim_plain.run(trace_plain)
    sim_labelled.run(trace_labelled)
    sim_sched.run(trace_labelled)
    labelled = sim_labelled.run(trace_labelled)
    assert labelled.per_tenant and labelled.per_tenant["solo"].n_requests == 4000
    wall_plain = wall_label = wall_sched = float("inf")
    for _ in range(ROUNDS):
        wall0 = time.perf_counter()
        sim_plain.run(trace_plain)
        wall_plain = min(wall_plain, time.perf_counter() - wall0)
        wall0 = time.perf_counter()
        sim_labelled.run(trace_labelled)
        wall_label = min(wall_label, time.perf_counter() - wall0)
        wall0 = time.perf_counter()
        sim_sched.run(trace_labelled)
        wall_sched = min(wall_sched, time.perf_counter() - wall0)
    overhead = wall_label / wall_plain - 1.0
    report(
        "tenancy wall overhead, %d requests, no policy table" % trace_plain.n_requests,
        "plain trace:      %8.3f ms wall  (FIFO)\n"
        "labelled trace:   %8.3f ms wall  (FIFO + per-tenant report):  %+6.2f%%\n"
        "with policies:    %8.3f ms wall  (WFQ, for context):          %+6.2f%%"
        % (
            wall_plain * 1e3,
            wall_label * 1e3,
            overhead * 100.0,
            wall_sched * 1e3,
            (wall_sched / wall_plain - 1.0) * 100.0,
        ),
    )
    assert overhead < MAX_OVERHEAD, (
        f"labelling a trace without policies costs {overhead:.1%} wall "
        f"(threshold {MAX_OVERHEAD:.0%}; it must stay on the FIFO discipline)"
    )


def test_bench_lifecycle_tenant_replay(benchmark):
    """serve-lifecycle's three-tenant replay: 20k queries on three fresh 2-shard replicas per round.

    The store has the workload's shape (4000 users x 3000 items, f=16);
    every round replays onto fresh ``replicate()`` s, so the answer table
    cannot turn the rounds into lookups.  Median wall per round over 7
    rounds, two alternating runs per side on a 2-vCPU VM: 355 and 322 ms
    with the per-request heap discipline, 228 and 244 ms with the
    per-tenant flow arrays.
    """
    rng = np.random.default_rng(29)
    store = FactorStore(rng.random((4000, 16)), rng.random((3000, 16)), n_shards=2)
    trace = QueryTrace.multi_tenant(LIFECYCLE_RATES, LIFECYCLE_QUERIES / sum(LIFECYCLE_RATES.values()), store.n_users, seed=31)

    def replay(cluster):
        return RequestSimulator(cluster, k=TOPK, max_batch=64, window_s=2e-4, policies=LIFECYCLE_TENANTS).run(trace)

    traffic = benchmark.pedantic(replay, setup=lambda: ((ServingCluster.from_store(store, 3),), {}), rounds=ROUNDS, warmup_rounds=1)
    assert traffic.n_requests == trace.n_requests
    assert traffic.per_tenant["capped"].n_shed_cap > 0
