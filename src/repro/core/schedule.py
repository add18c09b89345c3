"""Schedulers and the executor that replays a task graph on a machine.

A :class:`~repro.core.taskgraph.TaskGraph` says *what* one iteration
does; a scheduler says *when and where*.  Schedulers are declarative —
the scheduler registry is the same :class:`~repro.core.validation.Registry`
as the solver and router registries — request one by name::

    make_scheduler("serial")        # wave-by-wave, exact eager parity
    make_scheduler("eager")         # HEFT-style list scheduling, overlap-aware
    make_scheduler("round-robin")   # cycling placement, list scheduling

and :func:`execute_graph` runs the graph on a
:class:`~repro.gpu.machine.MultiGPUMachine`:

* **numerics** always run in insertion-stable topological order, so the
  factors are bitwise identical under every scheduler;
* **time** is charged according to the scheduler.  The serial scheduler
  replays the graph's waves one at a time, as the old eager solvers did,
  each charged to the clock under its phase (task name up to ``:``).  The
  event schedulers simulate a list schedule where kernels occupy
  devices, transfers occupy every directed link on their
  :meth:`~repro.gpu.topology.MachineTopology.path`, and independent work
  overlaps — compute/transfer overlap is *modeled* instead of summed.

Every execution returns an :class:`ExecutionTrace` whose
:meth:`~ExecutionTrace.to_chrome` renders the chrome-tracing JSON format
(load it at ``chrome://tracing`` or https://ui.perfetto.dev).
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import repro.obs as obs
from repro.core.taskgraph import Task, TaskGraph
from repro.core.validation import Registry, Spec
from repro.gpu.kernel import estimate_kernel_time
from repro.gpu.machine import MultiGPUMachine

__all__ = [
    "Scheduler",
    "SchedulerSpec",
    "register_scheduler",
    "make_scheduler",
    "get_scheduler_spec",
    "scheduler_names",
    "SerialScheduler",
    "EagerScheduler",
    "RoundRobinScheduler",
    "TraceEvent",
    "ExecutionTrace",
    "phase_seconds",
    "execute_graph",
]

LINK_LATENCY_S = 10e-6


# ---------------------------------------------------------------------- #
# the scheduler contract and registry
# ---------------------------------------------------------------------- #
@runtime_checkable
class Scheduler(Protocol):
    """Anything that can order and place a task graph on a machine.

    ``mode`` selects the executor: ``"waves"`` replays the graph's
    insertion-order waves (the eager-parity path); ``"events"`` runs a
    list schedule driven by :meth:`priorities` and :meth:`place`.
    """

    @property
    def name(self) -> str:
        """Registry label, stamped on traces and clock labels."""
        ...

    @property
    def mode(self) -> str:
        """``"waves"`` or ``"events"``."""
        ...

    def priorities(self, graph: TaskGraph, machine: MultiGPUMachine) -> dict:
        """Task id → rank; among ready tasks the highest rank runs first."""
        ...

    def place(self, task: Task, graph: TaskGraph, machine: MultiGPUMachine, device_free: list) -> int:
        """Device id for an *unpinned* kernel task (pinned tasks skip this)."""
        ...


@dataclass(frozen=True)
class SchedulerSpec(Spec):
    """One scheduler registry entry: a canonical name, a factory, and metadata."""


_SCHEDULERS = Registry("scheduler", SchedulerSpec, Scheduler)
register_scheduler = _SCHEDULERS.register
make_scheduler = _SCHEDULERS.make
get_scheduler_spec = _SCHEDULERS.get
scheduler_names = _SCHEDULERS.names


# ---------------------------------------------------------------------- #
# duration model shared by the event schedulers
# ---------------------------------------------------------------------- #
def _estimate_seconds(task: Task, machine: MultiGPUMachine) -> float:
    """Duration of one task in isolation (no contention)."""
    if task.kind == "kernel":
        return estimate_kernel_time(machine.spec, task.profile, use_texture=task.use_texture)
    if task.kind == "transfer":
        tr = task.transfer
        if tr.nbytes == 0:
            return 0.0
        path = machine.topology.path(tr.src, tr.dst)
        bandwidth = min(link.bandwidth for link in path) if path else float("inf")
        return tr.nbytes / bandwidth + len(path) * LINK_LATENCY_S
    return task.seconds


class SerialScheduler:
    """Replay the graph wave by wave — the old eager execution, verbatim."""

    name = "serial"
    mode = "waves"

    def priorities(self, graph: TaskGraph, machine: MultiGPUMachine) -> dict:
        return {task.tid: -task.tid for task in graph.tasks}

    def place(self, task: Task, graph: TaskGraph, machine: MultiGPUMachine, device_free: list) -> int:
        return task.pin or 0


class EagerScheduler:
    """HEFT-style list scheduling: upward-rank priority, earliest-free device.

    A task's rank is its own duration plus the largest rank among its
    dependents, so tasks on the critical path run first; unpinned kernels
    go to the device that frees up earliest.  Independent transfers and
    kernels overlap, which is what beats the serial schedule whenever the
    graph has slack (e.g. batch ``j+1``'s H2D under batch ``j``'s
    reduction).
    """

    name = "eager"
    mode = "events"

    def priorities(self, graph: TaskGraph, machine: MultiGPUMachine) -> dict:
        dependents: dict[int, list[Task]] = {t.tid: [] for t in graph.tasks}
        for task in graph.tasks:
            for dep in task.dependencies():
                dependents[dep.tid].append(task)
        rank: dict[int, float] = {}
        for task in reversed(graph.topological_order()):
            downstream = max((rank[s.tid] for s in dependents[task.tid]), default=0.0)
            rank[task.tid] = _estimate_seconds(task, machine) + downstream
        return rank

    def place(self, task: Task, graph: TaskGraph, machine: MultiGPUMachine, device_free: list) -> int:
        return min(range(len(device_free)), key=lambda d: (device_free[d], d))


class RoundRobinScheduler:
    """Insertion-order priority; unpinned kernels cycle across devices."""

    name = "round-robin"
    mode = "events"

    def __init__(self) -> None:
        self._next = 0

    def priorities(self, graph: TaskGraph, machine: MultiGPUMachine) -> dict:
        return {task.tid: -task.tid for task in graph.tasks}

    def place(self, task: Task, graph: TaskGraph, machine: MultiGPUMachine, device_free: list) -> int:
        device = self._next % len(device_free)
        self._next += 1
        return device


register_scheduler(
    "serial",
    SerialScheduler,
    description="wave-by-wave replay; exact parity with the eager solvers",
)
register_scheduler(
    "eager",
    EagerScheduler,
    description="HEFT-style list scheduling: critical path first, compute/transfer overlap",
    aliases=("heft", "eager-greedy"),
)
register_scheduler(
    "round-robin",
    RoundRobinScheduler,
    description="insertion-order list scheduling with cycling device placement",
    aliases=("rr",),
)


# ---------------------------------------------------------------------- #
# traces
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class TraceEvent:
    """One scheduled task occurrence: where it ran and when."""

    name: str
    kind: str
    worker: str
    start: float
    end: float
    nbytes: float = 0.0

    @property
    def duration(self) -> float:
        """Span length in simulated seconds."""
        return self.end - self.start


@dataclass
class ExecutionTrace:
    """The schedule one graph execution actually followed."""

    scheduler: str
    events: list = field(default_factory=list)

    def add(self, name: str, kind: str, worker: str, start: float, end: float, nbytes: float = 0.0) -> TraceEvent:
        """Record one task span."""
        event = TraceEvent(name, kind, worker, start, end, nbytes)
        self.events.append(event)
        return event

    @property
    def makespan(self) -> float:
        """End of the last event minus start of the first."""
        if not self.events:
            return 0.0
        return max(e.end for e in self.events) - min(e.start for e in self.events)

    def bytes_moved(self) -> float:
        """Bytes carried by the transfer events."""
        return sum(e.nbytes for e in self.events if e.kind == "transfer")

    def to_chrome(self) -> dict:
        """Chrome-tracing JSON object (``chrome://tracing`` / Perfetto)."""
        trace = []
        for event in self.events:
            trace.append(
                {
                    "name": event.name,
                    "cat": event.kind,
                    "ph": "X",
                    "ts": event.start * 1e6,
                    "dur": event.duration * 1e6,
                    "pid": 0,
                    "tid": event.worker,
                    "args": {"nbytes": event.nbytes, "scheduler": self.scheduler},
                }
            )
        return {"traceEvents": trace, "displayTimeUnit": "ms"}

    def dump(self, path: str) -> str:
        """Write the chrome-tracing JSON to ``path``; returns the path."""
        with open(path, "w") as fh:
            json.dump(self.to_chrome(), fh)
        return path

    @staticmethod
    def merge(traces: list["ExecutionTrace"]) -> "ExecutionTrace":
        """Concatenate traces (e.g. every iteration of a fit) into one."""
        scheduler = traces[0].scheduler if traces else ""
        merged = ExecutionTrace(scheduler=scheduler)
        for trace in traces:
            merged.events.extend(trace.events)
        return merged


def phase_seconds(traces) -> dict:
    """Simulated seconds per phase (task name up to the first ``:``) of ``traces``; a phase's overlapping spans in one trace count once."""
    totals: dict[str, float] = {}
    for trace in traces:
        spans: dict[str, list] = {}
        for event in trace.events:
            spans.setdefault(event.name.partition(":")[0], []).append((event.start, event.end))
        for phase, pairs in spans.items():
            total, end = totals.get(phase, 0.0), float("-inf")
            for start, stop in sorted(pairs):
                if stop > end:
                    total += stop - max(start, end)
                    end = stop
            totals[phase] = total
    return totals


# ---------------------------------------------------------------------- #
# the executor
# ---------------------------------------------------------------------- #
def execute_graph(graph: TaskGraph, machine: MultiGPUMachine, scheduler="serial", *, verify: bool = False) -> ExecutionTrace:
    """Run ``graph`` on ``machine`` under ``scheduler``; returns the trace.

    Numeric closures always run first, in insertion-stable topological
    order — the schedule decides only where simulated *time* goes.

    ``verify=True`` race-checks the execution: the graph goes through
    :func:`repro.analysis.hazards.check_graph` before anything runs
    (WAW / RAW / WAR / pin / endpoint hazards raise
    :class:`~repro.analysis.hazards.HazardError`) and the resulting
    trace through :func:`repro.analysis.verify.check_trace` afterwards
    (dependency order, device exclusivity, link contention).
    Verification never touches the numerics — factors are byte-identical
    either way — so any scheduler, current or future, can be checked on
    every graph it executes.
    """
    sched = make_scheduler(scheduler)
    order = graph.validate()
    if verify:
        from repro.analysis.hazards import check_graph

        check_graph(graph, machine)
    for task in order:
        if task.run is not None:
            task.run()
    base = machine.clock.now
    if sched.mode == "waves":
        trace = _replay_waves(graph, machine, sched)
        offset = 0.0  # wave replay stamps absolute machine-clock times
    else:
        trace = _simulate_events(graph, machine, sched)
        offset = base  # event simulation times each graph from zero
    if verify:
        from repro.analysis.verify import check_trace

        check_trace(trace, graph, machine, mode=sched.mode)
    if obs.enabled():
        obs.get_tracer().adopt_execution(trace, process="train", offset=offset)
        registry = obs.get_registry()
        registry.counter("schedule.graphs", scheduler=sched.name).inc()
        registry.counter("schedule.tasks", scheduler=sched.name).inc(len(trace.events))
        registry.gauge("schedule.makespan_s", scheduler=sched.name).set(trace.makespan)
    return trace


def _replay_waves(graph: TaskGraph, machine: MultiGPUMachine, sched) -> ExecutionTrace:
    """Serial replay: one wave at a time, concurrency only inside a wave, each charged under its first task's phase."""
    trace = ExecutionTrace(scheduler=sched.name)
    clock = machine.clock
    for wave in graph.waves():
        kind = wave[0].kind
        label = wave[0].name.partition(":")[0]
        base = clock.now
        if kind == "kernel":
            durations = []
            for task in wave:
                device = task.pin or 0
                seconds = machine.devices[device].execute(task.profile, use_texture=task.use_texture)
                durations.append(seconds)
                trace.add(task.name, "kernel", f"gpu:{device}", base, base + seconds)
            clock.advance(max(durations) if durations else 0.0, label=label)
        elif kind == "transfer":
            seconds = machine.run_transfers([task.transfer for task in wave], label=label)
            for task in wave:
                worker = f"{task.transfer.src}->{task.transfer.dst}"
                trace.add(task.name, "transfer", worker, base, base + seconds, nbytes=task.transfer.nbytes)
        else:
            seconds = max(task.seconds for task in wave)
            if seconds > 0.0:
                clock.advance(seconds, label=label)
            for task in wave:
                trace.add(task.name, "compute", "host", base, base + task.seconds)
    return trace


def _simulate_events(graph: TaskGraph, machine: MultiGPUMachine, sched) -> ExecutionTrace:
    """Overlap-aware list scheduling over devices and directed links.

    Kernels occupy their device; transfers occupy every directed link on
    their topology path for their full duration; compute tasks are free.
    When a kernel consumes an object that lives on another node (possible
    with free placement), the movement is charged over the path first.
    The machine clock advances once, by the makespan, under a
    ``schedule:<name>`` label; kernel/transfer counters accumulate as
    usual so utilisation stays observable.
    """
    trace = ExecutionTrace(scheduler=sched.name)
    topology = machine.topology
    engine = machine.transfer_engine
    rank = sched.priorities(graph, machine)
    device_free = [0.0] * machine.n_gpus
    link_free: dict[tuple[str, str], float] = {}
    finish: dict[int, float] = {}
    object_ready: dict[int, float] = {}
    object_home: dict[int, str] = {obj.oid: obj.location for obj in graph.objects}

    def occupy_path(src: str, dst: str, nbytes: float, earliest: float, name: str, tag: str) -> float:
        """Schedule one copy over ``src → dst``; returns its finish time.

        The links are occupied for the bandwidth time only; the hop
        latency is propagation delay, so back-to-back transfers on one
        link pipeline instead of serialising their latencies (matching
        the single latency charge of ``TransferEngine.batch_time``).
        """
        if nbytes == 0 or src == dst:
            return earliest
        path = topology.path(src, dst)
        keys = []
        cursor = src
        for link in path:
            nxt = link.b if cursor == link.a else link.a
            keys.append((cursor, nxt))
            cursor = nxt
        start = max([earliest] + [link_free.get(k, 0.0) for k in keys])
        bandwidth_seconds = nbytes / min(link.bandwidth for link in path)
        for key in keys:
            link_free[key] = start + bandwidth_seconds
        end = start + bandwidth_seconds + len(path) * LINK_LATENCY_S
        engine.total_bytes_moved += nbytes
        engine.total_transfer_seconds += end - start
        engine.batches += 1
        trace.add(name, "transfer", f"{src}->{dst}", start, end, nbytes=nbytes)
        return end

    # Ready tasks in a heap: the highest rank runs first, ties by insertion.
    deps = {task.tid: task.dependencies() for task in graph.tasks}
    waiting = {tid: len(task_deps) for tid, task_deps in deps.items()}
    dependents: dict[int, list[Task]] = {task.tid: [] for task in graph.tasks}
    for task in graph.tasks:
        for dep in deps[task.tid]:
            dependents[dep.tid].append(task)
    ready = [(-rank[task.tid], task.tid) for task in graph.tasks if not waiting[task.tid]]
    heapq.heapify(ready)
    while ready:
        task = graph.tasks[heapq.heappop(ready)[1]]
        dep_done = max((finish[dep.tid] for dep in deps[task.tid]), default=0.0)

        if task.kind == "kernel":
            device = task.pin if task.pin is not None else sched.place(task, graph, machine, device_free)
            node = f"gpu:{device}"
            inputs_at = dep_done
            for obj in task.inputs:
                home = object_home[obj.oid]
                if home != node:
                    moved = occupy_path(home, node, obj.nbytes, object_ready.get(obj.oid, dep_done), f"move:{obj.name or obj.oid}", "move")
                    inputs_at = max(inputs_at, moved)
            start = max(device_free[device], inputs_at)
            seconds = machine.devices[device].execute(task.profile, use_texture=task.use_texture)
            end = start + seconds
            device_free[device] = end
            trace.add(task.name, "kernel", node, start, end)
            for obj in task.outputs:
                object_home[obj.oid] = node
        elif task.kind == "transfer":
            tr = task.transfer
            end = occupy_path(tr.src, tr.dst, tr.nbytes, dep_done, task.name, tr.tag)
            for obj in task.outputs:
                object_home[obj.oid] = tr.dst
        else:
            end = dep_done + task.seconds
            trace.add(task.name, "compute", "host", dep_done, end)

        finish[task.tid] = end
        for obj in task.outputs:
            object_ready[obj.oid] = end
        for succ in dependents[task.tid]:
            waiting[succ.tid] -= 1
            if not waiting[succ.tid]:
                heapq.heappush(ready, (-rank[succ.tid], succ.tid))

    makespan = max(finish.values(), default=0.0)
    machine.clock.advance(makespan, label=f"schedule:{sched.name}")
    return trace
