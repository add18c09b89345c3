"""Reference core of the tenant discipline: flow-array ``_Wfq`` against the per-request one.

The replay's tenant discipline (:class:`repro.serving.simulator._Wfq`)
admits, stamps and fills whole windows per tenant with array operations.
The classes below are the per-request discipline it replaced, kept as
the oracle: ``_ReferenceScheduler`` decides one arrival at a time
(token bucket, start-time WFQ stamp, overload action) and
``_ReferenceWfq`` keeps a global ``(tag, index)`` heap, an arrival-order
deque, per-tenant newest stacks for ``max_pending`` eviction and a live
backlog count per tenant.  A hypothesis property replays generated
policy tables (weights, priorities, caps, bursts, deadlines, degrade
paths, flow buffers), traces with same-instant arrivals and tied tags,
batching knobs and lifecycle events that empty the rotation (so windows
are put back) through both, on 1-3 replicas, and requires the two
:class:`TrafficReport` s to agree on every field except wall time, and
every request's outcome and the scheduler's final state to agree too.
"""

from __future__ import annotations

import dataclasses
import functools
import heapq
from collections import deque
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import LifecycleEvent, QueryTrace, RequestSimulator, ServingCluster, TenantPolicy, TenantPolicyTable, simulator
from repro.serving.store import FactorStore
from repro.serving.tenancy import STATUS_DEGRADED, STATUS_OK, STATUS_SHED_CAP, STATUS_SHED_DEADLINE, STATUS_SHED_QUEUE, TenantScheduler

N_USERS, N_ITEMS, F, K = 40, 60, 6, 5
_RNG = np.random.default_rng(0)
_BASE = FactorStore(_RNG.random((N_USERS, F)), _RNG.random((N_ITEMS, F)), n_shards=2)  # ~40-55 us per batch


# ---------------------------------------------------------------------- #
# the oracle: the per-request scheduler and discipline, one arrival at a time
# ---------------------------------------------------------------------- #
class _ReferenceScheduler:
    """Admission state machine: token buckets plus WFQ virtual time.

    The scheduler is deliberately clock-agnostic — callers pass ``now``
    in whatever timeline they live on (trace arrival times under the
    simulator, the earliest free replica in rotation on the facade), and
    :meth:`reset` restores the initial state so one scheduler can replay
    traces deterministically.
    """

    def __init__(self, table: TenantPolicyTable):
        self.table = table
        self.reset()

    def reset(self) -> None:
        """Refill every bucket and rewind the fair-queueing clock."""
        self._buckets: dict[str, tuple[float, float]] = {}  # tenant -> (tokens, last refill)
        self._finish: dict[str, float] = {}  # tenant -> last virtual finish tag
        self._virtual = 0.0

    # ------------------------------------------------------------------ #
    # token-bucket caps (the BCache t_caps idea, in requests/second)
    # ------------------------------------------------------------------ #
    def try_acquire(self, tenant: str, now: float) -> bool:
        """Take one token from the tenant's bucket at time ``now``.

        Uncapped tenants always pass.  Buckets start full (``burst``
        tokens) and refill at ``rate_cap_qps``; a failed acquire costs
        nothing, so a tenant hammering past its cap is shed request by
        request without consuming anyone's capacity.
        """
        policy = self.table.policy_for(tenant)
        cap = policy.rate_cap_qps
        if cap is None:
            return True
        tokens, last = self._buckets.get(tenant, (policy.bucket_burst, now))
        if now > last:
            tokens = min(policy.bucket_burst, tokens + (now - last) * cap)
            last = now
        if tokens >= 1.0:
            self._buckets[tenant] = (tokens - 1.0, last)
            return True
        self._buckets[tenant] = (tokens, last)
        return False

    def admit(self, tenant: str, now: float) -> tuple[str, TenantPolicy]:
        """Admission verdict: ``("ok"|"degraded"|"shed", policy)``.

        The one admission rule of the replay and the facade: within the
        cap the request is served normally; past it the tenant is
        degraded when its policy allows (``degrade_k``) and shed
        otherwise.
        """
        policy = self.table.policy_for(tenant)
        if self.try_acquire(tenant, now):
            return "ok", policy
        if policy.degrade_k is not None:
            return "degraded", policy
        return "shed", policy

    # ------------------------------------------------------------------ #
    # weighted fair queueing (start-time fair queueing virtual clock)
    # ------------------------------------------------------------------ #
    def stamp(self, tenant: str) -> float:
        """Virtual finish tag for the tenant's next request.

        Requests dispatch in increasing tag order; each request advances
        its tenant's tag by ``1 / weight``, so backlogged tenants are
        served in proportion to their weights while idle tenants rejoin
        at the current virtual time instead of cashing in saved credit.
        """
        policy = self.table.policy_for(tenant)
        start = max(self._virtual, self._finish.get(tenant, 0.0))
        finish = start + 1.0 / policy.weight
        self._finish[tenant] = finish
        return finish

    def advance(self, tag: float) -> None:
        """Move the virtual clock up to a dispatched request's tag."""
        if tag > self._virtual:
            self._virtual = tag

    # ------------------------------------------------------------------ #
    # overload actions
    # ------------------------------------------------------------------ #
    def overload_action(self, policy: TenantPolicy, lateness_s: float) -> str:
        """What to do with a request ``lateness_s`` past its arrival.

        ``"shed"`` once the queueing delay alone exceeds the tenant's
        deadline (serving it would be uselessly late), ``"degraded"``
        past ``degrade_after`` of the deadline when the policy has a
        reduced-``k`` path, ``"ok"`` otherwise.  Tenants without a
        deadline are never shed here.
        """
        deadline = policy.deadline_s
        if deadline is None:
            return "ok"
        if lateness_s > deadline:
            return "shed"
        if policy.degrade_k is not None and lateness_s > policy.degrade_after * deadline:
            return "degraded"
        return "ok"


class _ReferenceWfq:
    """Tenant-scheduled discipline: admission caps, WFQ fill, overload shedding.

    Each arrival inside a window passes its tenant's token bucket at its
    own arrival time: cap overflow sheds on the spot (or marks the
    request for degraded service when the policy has a ``degrade_k``),
    so a tenant hammering past its cap never occupies queue space.  A
    full per-tenant flow buffer (``queue_limit``) tail-drops before
    stamping — bounding the backlog is what keeps a flooding tenant's
    finish tags near the virtual clock, so the weighted interleave holds
    under sustained overload — and past ``max_pending`` the lowest-
    priority tenant's newest request is evicted.  Windows fill in
    virtual-tag order, so a backlogged heavy tenant cannot starve a
    light one; at fill time a request whose queueing delay exceeds its
    deadline is shed, and past ``degrade_after`` of the deadline it is
    served at the policy's reduced ``k``.
    """

    def __init__(self, sim: RequestSimulator, trace: QueryTrace, status: np.ndarray):
        self.table = sim.policies
        self.scheduler = _ReferenceScheduler(self.table)
        self.k = sim.k
        self.max_batch = sim.max_batch
        self.max_pending = sim.max_pending
        self.arrivals = trace.arrivals
        self.tenants = trace.tenants
        self.status = status  # shared with the loop; 0 = not resolved yet
        self.k_of = [sim.k] * trace.n_requests  # effective k; reduced when degraded
        self.heap: list[tuple[float, int]] = []  # (virtual finish tag, request idx)
        self.queued: deque[int] = deque()  # admitted, in arrival order, lazily cleaned
        self.newest: dict[str, list[int]] = {}  # admitted per tenant, newest last
        self.backlog: dict[str, int] = {}  # live queued count per tenant
        self.next = 0  # next arrival not yet through admission
        self.taken: list[tuple[float, int]] = []  # (tag, idx) of the last window

    def head(self) -> float | None:
        """Arrival of the oldest backlogged request, else of the next arrival."""
        queued = self.queued
        while queued and self.status[queued[0]] != 0:
            queued.popleft()
        if queued:
            return float(self.arrivals[queued[0]])
        if self.next < self.arrivals.size:
            return float(self.arrivals[self.next])
        return None

    def take(self, horizon: float):
        """Admit arrivals up to ``horizon``, then fill a window in tag order."""
        self._admit(horizon)
        self._shed_overflow()
        scheduler, status = self.scheduler, self.status
        self.taken = []
        while self.heap and len(self.taken) < self.max_batch:
            tag, idx = heapq.heappop(self.heap)
            if status[idx] != 0:
                continue
            tenant = str(self.tenants[idx])
            policy = self.table.policy_for(tenant)
            action = scheduler.overload_action(policy, horizon - float(self.arrivals[idx]))
            scheduler.advance(tag)
            self.backlog[tenant] -= 1
            if action == "shed":
                status[idx] = STATUS_SHED_DEADLINE
                continue
            if action == "degraded":
                self.k_of[idx] = min(self.k, policy.degrade_k)
            self.taken.append((tag, idx))
        if not self.taken:
            return None
        groups: dict[int, list[int]] = {}
        for _, idx in self.taken:
            groups.setdefault(self.k_of[idx], []).append(idx)
        latest = float(self.arrivals[max(idx for _, idx in self.taken)])
        window = [(k, np.asarray(groups[k]), len(groups[k])) for k in sorted(groups, reverse=True)]
        return window, len(self.taken), latest

    def put_back(self) -> None:
        for tag, idx in self.taken:
            heapq.heappush(self.heap, (tag, idx))
            self.backlog[str(self.tenants[idx])] += 1

    def _admit(self, horizon: float) -> None:
        arrivals, status, scheduler = self.arrivals, self.status, self.scheduler
        while self.next < arrivals.size and arrivals[self.next] <= horizon:
            idx = self.next
            self.next += 1
            tenant = str(self.tenants[idx])
            policy = self.table.policy_for(tenant)
            if policy.queue_limit is not None and self.backlog.get(tenant, 0) >= policy.queue_limit:
                status[idx] = STATUS_SHED_QUEUE
                continue
            decision, _ = scheduler.admit(tenant, float(arrivals[idx]))
            if decision == "shed":
                status[idx] = STATUS_SHED_CAP
                continue
            if decision == "degraded":
                self.k_of[idx] = min(self.k, policy.degrade_k)
            heapq.heappush(self.heap, (scheduler.stamp(tenant), idx))
            self.queued.append(idx)
            self.newest.setdefault(tenant, []).append(idx)
            self.backlog[tenant] = self.backlog.get(tenant, 0) + 1

    def _shed_overflow(self) -> None:
        """Past ``max_pending``, evict the lowest-priority tenant's newest requests."""
        while self.max_pending is not None and sum(self.backlog.values()) > self.max_pending:
            candidates = []
            for name, stack in self.newest.items():
                while stack and self.status[stack[-1]] != 0:
                    stack.pop()
                if stack:
                    candidates.append((self.table.policy_for(name).priority, name))
            if not candidates:
                break
            victim = min(candidates)[1]
            self.status[self.newest[victim].pop()] = STATUS_SHED_QUEUE
            self.backlog[victim] -= 1


# ---------------------------------------------------------------------- #
# generated inputs
# ---------------------------------------------------------------------- #
@st.composite
def _policy(draw, tenant: str) -> TenantPolicy:
    capped = draw(st.booleans())
    return TenantPolicy(
        tenant,
        weight=draw(st.sampled_from([0.5, 1.0, 1.0, 2.0, 3.0])),  # repeats make tied tags across tenants
        priority=draw(st.integers(0, 2)),
        rate_cap_qps=draw(st.sampled_from([2e3, 1e4, 5e4])) if capped else None,
        burst=draw(st.none() | st.integers(1, 8)) if capped else None,
        deadline_ms=draw(st.none() | st.sampled_from([0.02, 0.06, 0.2, 1.0])),
        degrade_k=draw(st.none() | st.integers(1, 2 * K)),
        degrade_after=draw(st.sampled_from([0.1, 0.5, 1.0])),
        queue_limit=draw(st.none() | st.integers(1, 24)),
    )


@st.composite
def _replays(draw) -> dict:
    """Policies, a labelled trace, batching knobs, a cluster size and lifecycle events."""
    names = ("a", "b", "c")[: draw(st.integers(1, 3))]
    listed = draw(st.sampled_from([names, names[1:]]))  # an unlisted tenant takes the default policy
    default = draw(st.none() | _policy("default"))
    table = TenantPolicyTable([draw(_policy(name)) for name in listed], default=default)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    grid = draw(st.sampled_from([0.0, 1e-5]))  # a grid makes same-instant arrivals
    arrivals, tenants = [], []
    for name in names:
        rate = draw(st.sampled_from([5e3, 3e4, 1e5, 4e5]))
        times = np.cumsum(rng.exponential(1.0 / rate, draw(st.integers(1, 120))))
        arrivals.append(np.round(times / grid) * grid if grid else times)
        tenants.append(np.full(times.size, name))
    arrivals, tenants = np.concatenate(arrivals), np.concatenate(tenants)
    order = np.argsort(arrivals, kind="stable")
    trace = QueryTrace(arrivals[order], rng.integers(0, N_USERS, arrivals.size), tenants=tenants[order])
    replicas = draw(st.integers(1, 3))
    frac = st.integers(0, 1100).map(lambda permille: permille / 1000)  # of the trace duration
    kinds = st.sampled_from(["drain", "restore", "drain-all", "restore-all"])
    events = draw(st.lists(st.tuples(frac, kinds, st.integers(0, 2)), max_size=3))
    if draw(st.booleans()):  # empty the rotation mid-trace: windows taken then are put back
        drained = draw(frac)
        events += [(drained, "drain-all", 0), (drained + draw(frac) / 4, "restore-all", 0)]
    return {
        "trace": trace,
        "policies": table,
        "replicas": replicas,
        "router": draw(st.sampled_from(["least-loaded", "round-robin", "power-of-two"])),
        "events": [(when * trace.duration, kind, unit) for when, kind, unit in events],
        "max_batch": draw(st.sampled_from([1, 2, 4]) | st.integers(1, 64)),
        "max_pending": draw(st.none() | st.integers(1, 64)),
        "window_s": draw(st.sampled_from([0.0, 2e-5, 1e-4, 1e-3])),
    }


def _events(cluster: ServingCluster, specs) -> list:
    """Lifecycle events on ``cluster``; ``drain-all`` empties the rotation, bypassing the last-replica guard."""

    def act(kind: str, unit: int) -> None:
        active = cluster.active_indices()
        if kind == "drain" and unit < cluster.n_replicas and unit in active and len(active) > 1:
            cluster.drain(unit)
        elif kind == "restore" and unit < cluster.n_replicas and unit not in active:
            cluster.restore(unit)
        elif kind == "drain-all":
            cluster._active = [False] * cluster.n_replicas
        elif kind == "restore-all":
            cluster._active = [True] * cluster.n_replicas

    return [LifecycleEvent(when, functools.partial(act, kind, unit), kind) for when, kind, unit in specs]


def _replay(case: dict, discipline: type):
    """Replay ``case`` on a fresh cluster with ``discipline``; returns the report and the discipline."""
    made = []

    class Recorded(discipline):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    cluster = ServingCluster.from_store(_BASE, case["replicas"], router=case["router"])
    sim = RequestSimulator(
        cluster,
        k=K,
        max_batch=case["max_batch"],
        window_s=case["window_s"],
        policies=case["policies"],
        max_pending=case["max_pending"],
    )
    with mock.patch.object(simulator, "_Wfq", Recorded):
        report = sim.run(case["trace"], _events(cluster, case["events"]))
    [queue] = made
    return report, queue


def _state(scheduler) -> tuple:
    """A scheduler's token buckets, last finish tags and virtual clock."""
    return scheduler._buckets, scheduler._finish, scheduler._virtual


# ---------------------------------------------------------------------- #
# properties
# ---------------------------------------------------------------------- #
@settings(max_examples=200, deadline=None)
@given(case=_replays())
def test_flow_discipline_matches_the_per_request_oracle(case):
    want, oracle = _replay(case, _ReferenceWfq)
    got, queue = _replay(case, simulator._Wfq)
    for name in (fld.name for fld in dataclasses.fields(got)):
        if name != "wall_seconds":
            assert getattr(got, name) == getattr(want, name), name
    # Beyond the report: every request's outcome, and the scheduler's final buckets and clocks.
    np.testing.assert_array_equal(queue.status, oracle.status)
    assert _state(queue.scheduler) == _state(oracle.scheduler)


_CALLS = st.lists(
    st.one_of(
        st.tuples(st.just("admit"), st.sampled_from("abc"), st.lists(st.integers(0, 400), min_size=1, max_size=12), st.integers(0, 30)),
        st.tuples(st.just("stamp"), st.sampled_from("abc"), st.integers(0, 12)),
        st.tuples(st.just("advance"), st.integers(0, 40)),
    ),
    max_size=25,
)


@settings(max_examples=100, deadline=None)
@given(policies=st.tuples(_policy("a"), _policy("b"), _policy("c")), calls=_CALLS)
def test_array_admission_and_stamps_match_the_scalar_rules(policies, calls):
    """``admit_many``/``stamp_many`` equal the per-request rules call for call, bit for bit."""
    table = TenantPolicyTable(policies)
    got, want = TenantScheduler(table), _ReferenceScheduler(table)
    clock = 0.0
    for call, *args in calls:
        if call == "admit":
            tenant, gaps, backlog = args
            times = clock + np.cumsum(gaps) * 1e-5
            clock = float(times[-1])
            policy = table.policy_for(tenant)
            expected = []
            for now in times.tolist():
                if policy.queue_limit is not None and backlog >= policy.queue_limit:
                    expected.append(STATUS_SHED_QUEUE)
                    continue
                verdict = want.admit(tenant, now)[0]
                expected.append({"ok": STATUS_OK, "degraded": STATUS_DEGRADED, "shed": STATUS_SHED_CAP}[verdict])
                backlog += verdict != "shed"
            assert got.admit_many(tenant, times, args[2]).tolist() == expected
        elif call == "stamp":
            tenant, n = args
            assert got.stamp_many(tenant, n).tolist() == [want.stamp(tenant) for _ in range(n)]
        else:
            tag = args[0] / 7.0
            got.advance(tag)
            want.advance(tag)
    for tenant, policy in zip("abc", policies):
        lateness = np.linspace(0.0, 2e-3, 41)
        codes = {"ok": STATUS_OK, "degraded": STATUS_DEGRADED, "shed": STATUS_SHED_DEADLINE}
        assert got.overload_many(policy, lateness).tolist() == [codes[want.overload_action(policy, x)] for x in lateness.tolist()]
