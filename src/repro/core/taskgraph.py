"""Task-graph IR for one training iteration: explicit ALS dataflow.

The solvers used to hard-code their dataflow imperatively — ``for j in
range(q): transfer; kernel; reduce; solve; gather`` — which means the
simulated machine can only ever replay that exact sequence.  This module
lifts the dataflow into data: a :class:`TaskGraph` of :class:`Task` nodes
(kernel launches, link transfers, zero-cost numeric work) joined by
:class:`DataObject` edges carrying byte sizes, in the estee idiom
(TaskGraph + Workers + NetModel + Simulator).  A graph can then be
*scheduled* — serially for exact parity with the old eager code, or with
an overlap-aware placement — by :mod:`repro.core.schedule`.

Three task kinds:

* ``"kernel"`` — one kernel launch described by a
  :class:`~repro.gpu.kernel.KernelProfile`, optionally pinned to a device
  (``pin``); unpinned kernels are placed by the scheduler.
* ``"transfer"`` — one point-to-point copy described by a
  :class:`~repro.gpu.transfer.Transfer` over the machine topology.
* ``"compute"`` — host-side numeric work (closures writing factor
  slices); free on the simulated clock unless ``seconds`` is set.

Two orderings matter and are deliberately distinct:

* :meth:`TaskGraph.topological_order` — the order *numerics* run in.  It
  is insertion-stable, so closures execute in exactly the order the
  builder appended them and factors stay bitwise identical under every
  scheduler.
* :meth:`TaskGraph.waves` — consecutive runs of tasks sharing a
  ``group`` label.  The serial scheduler replays one wave at a time
  (concurrent within a wave, sequential across waves), which is
  precisely the old eager execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.gpu.kernel import KernelProfile
from repro.gpu.transfer import Transfer

__all__ = ["DataObject", "Task", "TaskGraph"]

TASK_KINDS = ("kernel", "transfer", "compute")


@dataclass
class DataObject:
    """A sized payload flowing between tasks.

    ``producer`` is the task whose outputs include this object; ``None``
    marks a *source* object that is host-resident before the graph runs
    (its ``location`` defaults to the host node).  ``location`` is the
    topology node the bytes live on once produced — the events scheduler
    charges an implicit movement when a consumer runs elsewhere.
    """

    oid: int
    nbytes: float
    name: str = ""
    producer: "Task | None" = None
    location: str = "host:0"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DataObject({self.oid}, {self.name!r}, {self.nbytes:.0f}B @ {self.location})"


@dataclass
class Task:
    """One node of the graph: a kernel launch, a transfer, or numeric work.

    ``group`` names the wave the task belongs to (consecutive tasks with
    equal groups run concurrently under the serial scheduler) and
    ``clock_label`` is the :class:`~repro.perf.timeline.SimClock` label
    its time is charged to — kept separate so two *sequential* waves can
    still share one breakdown label (the two-phase reduction does).
    ``run`` is an optional zero-argument closure holding the task's
    numeric side effects; it executes in topological order regardless of
    the schedule.
    """

    tid: int
    name: str
    kind: str
    group: str = ""
    clock_label: str = ""
    profile: KernelProfile | None = None
    use_texture: bool = True
    pin: int | None = None
    transfer: Transfer | None = None
    run: Callable[[], None] | None = None
    seconds: float = 0.0
    inputs: list[DataObject] = field(default_factory=list)
    outputs: list[DataObject] = field(default_factory=list)
    after: list["Task"] = field(default_factory=list)

    def dependencies(self) -> list["Task"]:
        """Producers of the inputs plus explicit ``after`` edges, deduplicated."""
        deps = [obj.producer for obj in self.inputs if obj.producer is not None] + self.after
        if len(deps) < 2:
            return deps
        unique: dict[int, Task] = {}
        for task in deps:
            unique.setdefault(task.tid, task)
        return list(unique.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Task({self.tid}, {self.name!r}, kind={self.kind!r}, group={self.group!r})"


class TaskGraph:
    """A DAG of tasks and data objects, built in dependency order."""

    def __init__(self) -> None:
        self.tasks: list[Task] = []
        self.objects: list[DataObject] = []

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def new_object(
        self,
        nbytes: float,
        name: str = "",
        producer: Task | None = None,
        location: str | None = None,
    ) -> DataObject:
        """Register a data object; producer-less objects are host sources."""
        if nbytes < 0:
            raise ValueError("object size must be non-negative")
        if location is None:
            location = "host:0"
            if producer is not None and producer.kind == "transfer" and producer.transfer is not None:
                location = producer.transfer.dst
            elif producer is not None and producer.pin is not None:
                location = f"gpu:{producer.pin}"
        obj = DataObject(oid=len(self.objects), nbytes=nbytes, name=name, producer=producer, location=location)
        self.objects.append(obj)
        if producer is not None:
            producer.outputs.append(obj)
        return obj

    def new_task(
        self,
        name: str,
        kind: str,
        *,
        group: str = "",
        clock_label: str = "",
        profile: KernelProfile | None = None,
        use_texture: bool = True,
        pin: int | None = None,
        transfer: Transfer | None = None,
        run: Callable[[], None] | None = None,
        seconds: float = 0.0,
        inputs: list[DataObject] | None = None,
        after: list[Task] | None = None,
    ) -> Task:
        """Append a task; ``group`` defaults to the task's own name."""
        task = Task(
            tid=len(self.tasks),
            name=name,
            kind=kind,
            group=group or name,
            clock_label=clock_label or kind,
            profile=profile,
            use_texture=use_texture,
            pin=pin,
            transfer=transfer,
            run=run,
            seconds=seconds,
            inputs=list(inputs or ()),
            after=list(after or ()),
        )
        self.tasks.append(task)
        return task

    # ------------------------------------------------------------------ #
    # validation and orderings
    # ------------------------------------------------------------------ #
    def validate(self) -> list[Task]:
        """Check the graph is a well-formed DAG with kind-consistent tasks.

        Every violation is collected and raised as *one* ``ValueError``
        (one line per offending task/object), so a multi-error graph is
        debuggable in a single pass instead of error-by-error.  Returns the
        :meth:`topological_order` the cycle check computed.
        """
        problems: list[str] = []
        ids = {id(t) for t in self.tasks}
        foreign_refs = False
        deps: dict[int, list[Task]] = {}
        for task in self.tasks:
            if task.kind not in TASK_KINDS:
                problems.append(f"task {task.name!r} has unknown kind {task.kind!r}")
            if task.kind == "kernel" and task.profile is None:
                problems.append(f"kernel task {task.name!r} needs a KernelProfile")
            if task.kind == "transfer" and task.transfer is None:
                problems.append(f"transfer task {task.name!r} needs a Transfer")
            if task.seconds < 0:
                problems.append(f"task {task.name!r} has negative duration")
            deps[task.tid] = task.dependencies()
            for dep in deps[task.tid]:
                if id(dep) not in ids:
                    foreign_refs = True
                    problems.append(f"task {task.name!r} depends on a task outside this graph")
            for obj in (*task.inputs, *task.outputs):
                if not 0 <= obj.oid < len(self.objects) or obj is not self.objects[obj.oid]:
                    problems.append(f"task {task.name!r} references an object outside this graph")
        # Foreign dependencies would confuse the indegree bookkeeping, so
        # only look for cycles once every reference resolves in-graph.
        order = [] if foreign_refs else self._kahn(deps)
        if not foreign_refs and len(order) != len(self.tasks):
            problems.append("task graph contains a cycle")
        if len(problems) == 1:
            raise ValueError(problems[0])
        if problems:
            listing = "\n".join(f"  - {p}" for p in problems)
            raise ValueError(f"task graph validation failed with {len(problems)} problems:\n{listing}")
        return order

    def topological_order(self) -> list[Task]:
        """Kahn's algorithm, insertion-stable: ready tasks run in append order.

        This is the canonical order for the *numeric* closures — it never
        depends on the chosen schedule, so every scheduler produces
        bitwise-identical factors.
        """
        return self._kahn({t.tid: t.dependencies() for t in self.tasks})

    def _kahn(self, deps: dict[int, list[Task]]) -> list[Task]:
        """:meth:`topological_order` over precomputed ``task id → dependencies``."""
        import heapq

        if all(dep.tid < tid for tid, task_deps in deps.items() for dep in task_deps):
            return list(self.tasks)  # built in dependency order: the insertion-stable order itself
        indegree = {tid: len(task_deps) for tid, task_deps in deps.items()}
        dependents: dict[int, list[Task]] = {t.tid: [] for t in self.tasks}
        for task in self.tasks:
            for dep in deps[task.tid]:
                dependents[dep.tid].append(task)
        ready = [t.tid for t in self.tasks if indegree[t.tid] == 0]
        heapq.heapify(ready)
        order: list[Task] = []
        while ready:
            current = self.tasks[heapq.heappop(ready)]
            order.append(current)
            for succ in dependents[current.tid]:
                indegree[succ.tid] -= 1
                if indegree[succ.tid] == 0:
                    heapq.heappush(ready, succ.tid)
        return order

    def waves(self) -> list[list[Task]]:
        """Consecutive insertion-order runs of tasks sharing a ``group``."""
        waves: list[list[Task]] = []
        for task in self.tasks:
            if waves and waves[-1][0].group == task.group:
                waves[-1].append(task)
            else:
                waves.append([task])
        return waves

    # ------------------------------------------------------------------ #
    def total_bytes(self) -> float:
        """Bytes carried by explicit transfer tasks (observability)."""
        return sum(t.transfer.nbytes for t in self.tasks if t.transfer is not None)

    def __len__(self) -> int:
        return len(self.tasks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kinds = {k: sum(1 for t in self.tasks if t.kind == k) for k in TASK_KINDS}
        return f"TaskGraph({len(self.tasks)} tasks: {kinds}, {len(self.objects)} objects)"
