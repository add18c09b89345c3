"""Trace verification: clean schedules pass, injected violations are caught."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import HazardError, check_trace, verify_trace
from repro.analysis.verify import TRACE_RULES
from repro.core.als_mo import MemoryOptimizedALS
from repro.core.als_su import ScaleUpALS
from repro.core.config import ALSConfig
from repro.core.schedule import ExecutionTrace, execute_graph, scheduler_names
from repro.gpu.machine import MultiGPUMachine
from repro.gpu.topology import MachineTopology

CONFIG = ALSConfig(f=8, lam=0.05, iterations=1, seed=0, row_batch=96)

#: label → (solver kind, gpu count, topology factory); the sweep the paper's
#: Figure 9 machines span: 1/2/4 GPUs on single- and dual-socket hosts.
MACHINES = {
    "mo-1gpu": ("mo", 1, None),
    "su-2gpu": ("su", 2, None),
    "su-4gpu": ("su", 4, None),
    "su-2gpu-dual": ("su", 2, MachineTopology.dual_socket),
    "su-4gpu-dual": ("su", 4, MachineTopology.dual_socket),
}


def build(label: str, ratings):
    """A real update graph + machine for one of the sweep's machines."""
    kind, n_gpus, topo = MACHINES[label]
    machine = MultiGPUMachine(n_gpus=n_gpus, topology=topo(n_gpus) if topo else None)
    if kind == "mo":
        solver = MemoryOptimizedALS(CONFIG, machine=machine)
    else:
        solver = ScaleUpALS(CONFIG, machine=machine, force_data_parallel=True, q_override=2)
    theta = np.zeros((ratings.train.shape[1], CONFIG.f))
    graph, _ = solver.build_update_graph(ratings.train, theta, label="x")
    return graph, machine


def traced(label: str, scheduler: str, ratings):
    graph, machine = build(label, ratings)
    trace = execute_graph(graph, machine, scheduler)
    return trace, graph, machine


def rules_of(hazards) -> set[str]:
    return {h.rule for h in hazards}


class TestCleanTraces:
    @pytest.mark.parametrize("scheduler", scheduler_names())
    @pytest.mark.parametrize("label", sorted(MACHINES))
    def test_every_scheduler_every_machine_verifies_clean(self, label, scheduler, tiny_ratings):
        trace, graph, machine = traced(label, scheduler, tiny_ratings)
        assert verify_trace(trace, graph, machine) == []

    @pytest.mark.parametrize("scheduler", scheduler_names())
    def test_check_trace_passes_silently_when_clean(self, scheduler, tiny_ratings):
        trace, graph, machine = traced("su-4gpu-dual", scheduler, tiny_ratings)
        check_trace(trace, graph, machine)


class TestInjectedViolations:
    @pytest.mark.parametrize("scheduler", scheduler_names())
    @pytest.mark.parametrize("label", ["su-4gpu-dual", "mo-1gpu"])
    def test_dep_order_event_moved_before_its_dependency(self, label, scheduler, tiny_ratings):
        trace, graph, machine = traced(label, scheduler, tiny_ratings)
        names = {e.name for e in trace.events}
        dependent = next(
            t for t in graph.topological_order() if t.name in names and any(d.name in names for d in t.dependencies())
        )
        index = next(i for i, e in enumerate(trace.events) if e.name == dependent.name)
        trace.events[index] = replace(trace.events[index], start=-2.0, end=-1.0)
        assert "DEP-ORDER" in rules_of(verify_trace(trace, graph, machine))

    @pytest.mark.parametrize("scheduler", scheduler_names())
    @pytest.mark.parametrize("label", ["su-4gpu-dual", "mo-1gpu"])
    def test_device_overlap_two_kernels_at_once(self, label, scheduler, tiny_ratings):
        trace, graph, machine = traced(label, scheduler, tiny_ratings)
        kernel = next(e for e in trace.events if e.kind == "kernel")
        trace.add("intruder", "kernel", kernel.worker, kernel.start, kernel.end)
        assert "DEVICE-OVERLAP" in rules_of(verify_trace(trace, graph, machine))

    @pytest.mark.parametrize("scheduler", ["eager", "round-robin"])
    def test_link_overlap_two_transfers_on_one_link(self, scheduler, tiny_ratings):
        trace, graph, machine = traced("su-4gpu-dual", scheduler, tiny_ratings)
        transfer = max(
            (e for e in trace.events if e.kind == "transfer" and "->" in e.worker),
            key=lambda e: e.duration,
        )
        trace.add("intruder", "transfer", transfer.worker, transfer.start, transfer.end, transfer.nbytes)
        assert "LINK-OVERLAP" in rules_of(verify_trace(trace, graph, machine))

    def test_wave_replay_traces_are_exempt_from_link_contention(self, tiny_ratings):
        # The serial executor fair-shares links inside a wave, so duplicated
        # bandwidth is legal there; the rule only binds events-mode traces.
        trace, graph, machine = traced("su-4gpu-dual", "serial", tiny_ratings)
        transfer = max(
            (e for e in trace.events if e.kind == "transfer" and "->" in e.worker),
            key=lambda e: e.duration,
        )
        trace.add("intruder", "transfer", transfer.worker, transfer.start, transfer.end, transfer.nbytes)
        assert "LINK-OVERLAP" not in rules_of(verify_trace(trace, graph, machine))

    def test_check_trace_raises_with_rule_listing(self, tiny_ratings):
        trace, graph, machine = traced("su-4gpu-dual", "eager", tiny_ratings)
        kernel = next(e for e in trace.events if e.kind == "kernel")
        trace.add("intruder", "kernel", kernel.worker, kernel.start, kernel.end)
        with pytest.raises(HazardError, match=r"\[DEVICE-OVERLAP\]"):
            check_trace(trace, graph, machine)


class TestModeResolution:
    def test_unknown_scheduler_needs_an_explicit_mode(self, tiny_ratings):
        # A merged trace carries a synthetic scheduler name; the link rule
        # stays off unless the caller asserts events-mode semantics.
        trace, graph, machine = traced("su-4gpu-dual", "eager", tiny_ratings)
        renamed = ExecutionTrace(scheduler="merged", events=list(trace.events))
        transfer = max(
            (e for e in renamed.events if e.kind == "transfer" and "->" in e.worker),
            key=lambda e: e.duration,
        )
        renamed.add("intruder", "transfer", transfer.worker, transfer.start, transfer.end, transfer.nbytes)
        assert "LINK-OVERLAP" not in rules_of(verify_trace(renamed, graph, machine))
        assert "LINK-OVERLAP" in rules_of(verify_trace(renamed, graph, machine, mode="events"))

    def test_rule_catalogue_is_complete(self):
        assert set(TRACE_RULES) == {"DEP-ORDER", "DEVICE-OVERLAP", "LINK-OVERLAP"}


class TestVerifyDisabledCounting:
    """``verify=False`` is zero-cost by counting: a fit never reaches the checkers."""

    @staticmethod
    def _sentinels(monkeypatch):
        import repro.analysis.hazards as hazards
        import repro.analysis.verify as verify

        def refuse(*args, **kwargs):
            raise AssertionError("a checker ran")

        for module, name in ((hazards, "analyze_graph"), (hazards, "check_graph"), (verify, "check_trace"), (verify, "verify_trace")):
            monkeypatch.setattr(module, name, refuse)

    def test_eager_fit_without_verify_never_calls_a_checker(self, monkeypatch, tiny_ratings):
        self._sentinels(monkeypatch)
        solver = ScaleUpALS(replace(CONFIG, iterations=2), machine=MultiGPUMachine(n_gpus=2), scheduler="eager", verify=False)
        result = solver.fit(tiny_ratings.train)
        assert np.isfinite(result.x).all() and len(solver.traces) > 0

    def test_the_sentinel_fires_with_verify(self, monkeypatch, tiny_ratings):
        self._sentinels(monkeypatch)
        solver = ScaleUpALS(CONFIG, machine=MultiGPUMachine(n_gpus=2), scheduler="eager", verify=True)
        with pytest.raises(AssertionError, match="a checker ran"):
            solver.fit(tiny_ratings.train)
