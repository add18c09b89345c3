"""Task-graph IR, the scheduler registry, and the graph executor."""

from __future__ import annotations

import json

import pytest

from repro.core.als_su import ScaleUpALS
from repro.core.schedule import (
    EagerScheduler,
    ExecutionTrace,
    RoundRobinScheduler,
    SchedulerSpec,
    SerialScheduler,
    execute_graph,
    get_scheduler_spec,
    make_scheduler,
    scheduler_names,
)
from repro.core.solver.registry import make_solver
from repro.core.taskgraph import TaskGraph
from repro.core.validation import unknown_name_error
from repro.gpu.kernel import KernelProfile
from repro.gpu.machine import MultiGPUMachine
from repro.gpu.memory import MemoryKind
from repro.serving.routing import make_router


def small_profile(name: str = "k", mb: float = 64.0) -> KernelProfile:
    """A kernel profile with a non-trivial simulated duration."""
    return KernelProfile(name=name, flops=1e9, traffic={MemoryKind.GLOBAL: mb * 1e6}, blocks=256)


class TestTaskGraphIR:
    def test_new_task_defaults_group_and_clock_label(self):
        g = TaskGraph()
        t = g.new_task("herm:x", "kernel", profile=small_profile())
        assert t.group == "herm:x"
        assert t.clock_label == "kernel"

    def test_object_location_follows_transfer_and_pin(self):
        machine = MultiGPUMachine(n_gpus=2)
        g = TaskGraph()
        h2d = g.new_task("h2d", "transfer", transfer=machine.h2d(1, 100.0))
        moved = g.new_object(100.0, producer=h2d)
        kern = g.new_task("k", "kernel", profile=small_profile(), pin=0, inputs=[moved])
        produced = g.new_object(50.0, producer=kern)
        source = g.new_object(10.0)
        assert moved.location == "gpu:1"
        assert produced.location == "gpu:0"
        assert source.location == "host:0"

    def test_dependencies_deduplicate_producers_and_after(self):
        g = TaskGraph()
        a = g.new_task("a", "compute")
        obj = g.new_object(1.0, producer=a)
        b = g.new_task("b", "compute", inputs=[obj, obj], after=[a])
        assert b.dependencies() == [a]

    def test_validate_rejects_unknown_kind(self):
        g = TaskGraph()
        g.new_task("t", "teleport")
        with pytest.raises(ValueError, match="unknown kind"):
            g.validate()

    def test_validate_rejects_kernel_without_profile(self):
        g = TaskGraph()
        g.new_task("k", "kernel")
        with pytest.raises(ValueError, match="needs a KernelProfile"):
            g.validate()

    def test_validate_rejects_transfer_without_transfer(self):
        g = TaskGraph()
        g.new_task("t", "transfer")
        with pytest.raises(ValueError, match="needs a Transfer"):
            g.validate()

    def test_validate_detects_cycle(self):
        g = TaskGraph()
        a = g.new_task("a", "compute")
        b = g.new_task("b", "compute", after=[a])
        a.after.append(b)
        with pytest.raises(ValueError, match="cycle"):
            g.validate()

    def test_validate_rejects_foreign_dependency(self):
        other = TaskGraph()
        foreign = other.new_task("f", "compute")
        g = TaskGraph()
        g.new_task("t", "compute", after=[foreign])
        with pytest.raises(ValueError, match="outside this graph"):
            g.validate()

    def test_waves_are_consecutive_group_runs(self):
        g = TaskGraph()
        for name, group in [("a0", "A"), ("a1", "A"), ("b0", "B"), ("c0", "A")]:
            g.new_task(name, "compute", group=group)
        waves = g.waves()
        assert [[t.name for t in w] for w in waves] == [["a0", "a1"], ["b0"], ["c0"]]

    def test_topological_order_is_insertion_stable(self):
        g = TaskGraph()
        # Independent tasks appended out of any dependency need: topo
        # order must be exactly append order so numeric closures replay
        # the builder's sequence under every scheduler.
        tasks = [g.new_task(f"t{i}", "compute") for i in range(6)]
        tasks[4].after.append(tasks[5])  # one back edge: t5 before t4
        order = [t.name for t in g.topological_order()]
        assert order == ["t0", "t1", "t2", "t3", "t5", "t4"]

    def test_total_bytes_counts_only_transfers(self):
        machine = MultiGPUMachine(n_gpus=1)
        g = TaskGraph()
        g.new_task("t", "transfer", transfer=machine.h2d(0, 1000.0))
        g.new_task("k", "kernel", profile=small_profile())
        assert g.total_bytes() == 1000.0


class TestSchedulerRegistry:
    def test_names_and_specs(self):
        names = scheduler_names()
        assert {"serial", "eager", "round-robin"} <= set(names)
        assert "heft" in get_scheduler_spec("eager").aliases
        assert get_scheduler_spec("serial").description

    def test_aliases_resolve_to_canonical(self):
        assert isinstance(make_scheduler("heft"), EagerScheduler)
        assert isinstance(make_scheduler("eager-greedy"), EagerScheduler)
        assert isinstance(make_scheduler("rr"), RoundRobinScheduler)

    def test_dict_spec_and_spec_object(self):
        assert isinstance(make_scheduler({"name": "serial"}), SerialScheduler)
        assert isinstance(make_scheduler(get_scheduler_spec("eager")), EagerScheduler)
        with pytest.raises(ValueError, match="needs a 'name' key"):
            make_scheduler({})

    def test_instance_passthrough_refuses_overrides(self):
        sched = SerialScheduler()
        assert make_scheduler(sched) is sched
        with pytest.raises(ValueError, match="already-built scheduler"):
            make_scheduler(sched, mode="events")

    def test_spec_is_frozen_metadata(self):
        spec = get_scheduler_spec("round-robin")
        assert isinstance(spec, SchedulerSpec)
        assert spec.aliases == ("rr",)


class TestUnknownNameAcrossRegistries:
    """All three registries speak the one unknown-name vocabulary."""

    def test_solver_registry(self):
        with pytest.raises(ValueError, match=r"unknown solver 'mos'; choose from \["):
            make_solver("mos")

    def test_router_registry(self):
        with pytest.raises(ValueError, match=r"unknown router 'rand'; choose from \["):
            make_router("rand")

    def test_scheduler_registry(self):
        with pytest.raises(ValueError, match=r"unknown scheduler 'hefty'; choose from \["):
            make_scheduler("hefty")

    @pytest.mark.parametrize(
        "build, name",
        [(make_solver, "solver"), (make_router, "router"), (make_scheduler, "scheduler")],
        ids=["solver", "router", "scheduler"],
    )
    def test_message_shape_is_identical(self, build, name):
        with pytest.raises(ValueError) as excinfo:
            build("no-such-thing")
        assert str(excinfo.value).startswith(f"unknown {name} 'no-such-thing'; choose from [")

    def test_helper_sorts_known_names(self):
        err = unknown_name_error("scheduler", "x", {"b", "a"})
        assert str(err) == "unknown scheduler 'x'; choose from ['a', 'b']"


def _machine_stats(machine: MultiGPUMachine) -> dict:
    eng = machine.transfer_engine
    return {
        "elapsed": machine.elapsed_seconds(),
        "breakdown": machine.clock.breakdown(),
        "bytes": eng.total_bytes_moved,
        "transfer_seconds": eng.total_transfer_seconds,
        "batches": eng.batches,
        "launches": [d.counters.kernel_launches for d in machine.devices],
        "busy": [d.counters.busy_seconds for d in machine.devices],
        "flops": [d.counters.flops for d in machine.devices],
    }


class TestMachineReset:
    def test_reset_then_run_matches_fresh_machine(self, tiny_ratings, als_config):
        """reset() must clear *all* accounting, transfer engine included."""

        def run(machine):
            solver = ScaleUpALS(als_config, machine=machine, force_data_parallel=True, q_override=2)
            return solver.fit(tiny_ratings.train)

        reused = MultiGPUMachine(n_gpus=2)
        run(reused)
        assert reused.transfer_engine.total_bytes_moved > 0
        reused.reset()
        assert reused.elapsed_seconds() == 0.0
        assert reused.transfer_engine.total_bytes_moved == 0.0
        assert reused.transfer_engine.batches == 0
        assert all(d.counters.kernel_launches == 0 for d in reused.devices)

        run(reused)
        fresh = MultiGPUMachine(n_gpus=2)
        run(fresh)
        assert _machine_stats(reused) == _machine_stats(fresh)


def _chain_graph(machine: MultiGPUMachine, width: int = 3) -> TaskGraph:
    """`width` independent h2d→kernel chains — overlap-friendly."""
    g = TaskGraph()
    for i in range(width):
        h2d = g.new_task(f"h2d:{i}", "transfer", group="h2d", transfer=machine.h2d(i % machine.n_gpus, 8e6))
        obj = g.new_object(8e6, producer=h2d)
        g.new_task(
            f"kern:{i}",
            "kernel",
            group="kern",
            profile=small_profile(f"kern:{i}"),
            pin=i % machine.n_gpus,
            inputs=[obj],
        )
    return g


class TestExecutor:
    def test_numerics_run_in_topo_order_under_every_scheduler(self):
        machine = MultiGPUMachine(n_gpus=2)
        for name in scheduler_names():
            seen = []
            g = TaskGraph()
            first = g.new_task("first", "compute", run=lambda: seen.append("first"))
            g.new_task("second", "compute", run=lambda: seen.append("second"), after=[first])
            g.new_task("third", "compute", run=lambda: seen.append("third"))
            execute_graph(g, machine, scheduler=name)
            assert seen == ["first", "second", "third"], name

    def test_serial_replay_matches_manual_machine_calls(self):
        graph_machine = MultiGPUMachine(n_gpus=2)
        manual = MultiGPUMachine(n_gpus=2)
        g = TaskGraph()
        objs = []
        for i in range(2):
            h2d = g.new_task(f"h2d:{i}", "transfer", group="h2d", transfer=graph_machine.h2d(i, 8e6))
            objs.append(g.new_object(8e6, producer=h2d))
        for i in range(2):
            g.new_task(
                f"kern:{i}",
                "kernel",
                group="kern",
                clock_label="kernels",
                profile=small_profile(f"kern:{i}"),
                pin=i,
                inputs=[objs[i]],
            )
        execute_graph(g, graph_machine, scheduler="serial")
        # The same work, issued the pre-refactor way: one transfer wave,
        # one concurrent-kernels wave.
        manual.run_transfers([manual.h2d(0, 8e6), manual.h2d(1, 8e6)], label="transfer")
        manual.run_parallel_kernels({0: small_profile("kern:0"), 1: small_profile("kern:1")})
        assert graph_machine.elapsed_seconds() == pytest.approx(manual.elapsed_seconds())
        assert graph_machine.transfer_engine.total_bytes_moved == manual.transfer_engine.total_bytes_moved

    def test_events_makespan_never_exceeds_serial(self):
        serial_m = MultiGPUMachine(n_gpus=2)
        events_m = MultiGPUMachine(n_gpus=2)
        execute_graph(_chain_graph(serial_m), serial_m, scheduler="serial")
        trace = execute_graph(_chain_graph(events_m), events_m, scheduler="eager")
        assert events_m.elapsed_seconds() <= serial_m.elapsed_seconds() + 1e-12
        assert trace.makespan == pytest.approx(events_m.elapsed_seconds())
        assert "schedule:eager" in events_m.clock.breakdown()

    def test_round_robin_cycles_unpinned_kernels(self):
        machine = MultiGPUMachine(n_gpus=2)
        g = TaskGraph()
        for i in range(4):
            g.new_task(f"k{i}", "kernel", group="kern", profile=small_profile(f"k{i}"))
        execute_graph(g, machine, scheduler="round-robin")
        assert [d.counters.kernel_launches for d in machine.devices] == [2, 2]

    def test_events_charges_implicit_movement_for_misplaced_inputs(self):
        machine = MultiGPUMachine(n_gpus=2)
        g = TaskGraph()
        h2d = g.new_task("h2d", "transfer", transfer=machine.h2d(1, 8e6))
        obj = g.new_object(8e6, producer=h2d)
        g.new_task("k", "kernel", profile=small_profile(), pin=0, inputs=[obj])
        trace = execute_graph(g, machine, scheduler="eager")
        moves = [e for e in trace.events if e.kind == "transfer" and e.name.startswith("move:")]
        assert len(moves) == 1
        assert moves[0].worker == "gpu:1->gpu:0"


class TestTrace:
    def test_chrome_export_structure(self, tmp_path):
        machine = MultiGPUMachine(n_gpus=2)
        trace = execute_graph(_chain_graph(machine), machine, scheduler="eager")
        chrome = trace.to_chrome()
        assert set(chrome) == {"traceEvents", "displayTimeUnit"}
        assert all(e["ph"] == "X" for e in chrome["traceEvents"])
        kinds = {e["cat"] for e in chrome["traceEvents"]}
        assert {"kernel", "transfer"} <= kinds
        assert all(e["args"]["scheduler"] == "eager" for e in chrome["traceEvents"])

        path = trace.dump(str(tmp_path / "trace.json"))
        with open(path) as fh:
            assert json.load(fh) == chrome

    def test_merge_concatenates_events(self):
        a = ExecutionTrace(scheduler="serial")
        a.add("x", "kernel", "gpu:0", 0.0, 1.0)
        b = ExecutionTrace(scheduler="serial")
        b.add("y", "transfer", "host:0->gpu:0", 1.0, 2.0, nbytes=10.0)
        merged = ExecutionTrace.merge([a, b])
        assert [e.name for e in merged.events] == ["x", "y"]
        assert merged.makespan == pytest.approx(2.0)
        assert merged.bytes_moved() == 10.0

    def test_su_trace_contains_kernels_and_transfers(self, tiny_ratings, als_config):
        solver = ScaleUpALS(als_config.with_(iterations=1), n_gpus=2)
        solver.fit(tiny_ratings.train)
        merged = solver.export_trace()
        kinds = {e.kind for e in merged.events}
        assert {"kernel", "transfer"} <= kinds
        assert merged.scheduler == "serial"
