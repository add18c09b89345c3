"""Task-graph IR and the graph executor under every registered scheduler."""

from __future__ import annotations

import json

import pytest

from repro.core.als_su import ScaleUpALS
from repro.core.schedule import ExecutionTrace, execute_graph, scheduler_names
from repro.core.taskgraph import TaskGraph
from repro.gpu.kernel import KernelProfile
from repro.gpu.machine import MultiGPUMachine
from repro.gpu.memory import MemoryKind


def small_profile(name: str = "k", mb: float = 64.0) -> KernelProfile:
    """A kernel profile with a non-trivial simulated duration."""
    return KernelProfile(name=name, flops=1e9, traffic={MemoryKind.GLOBAL: mb * 1e6}, blocks=256)


class TestTaskGraphIR:
    def test_new_task_defaults_group_to_its_name(self):
        g = TaskGraph()
        t = g.new_task("herm:x", "kernel", profile=small_profile())
        assert t.group == "herm:x"

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
