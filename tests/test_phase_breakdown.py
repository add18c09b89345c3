"""One phase name per training task: every training breakdown is read off the traces.

A task's phase is its name up to the first ``:`` (``h2d``, ``bcast``,
``scatter``, ``herm``, ``reduce``, ``solve``, ``gather``).
``FitResult.breakdown`` and ``IterationTime.breakdown`` are
:func:`~repro.core.schedule.phase_seconds` of the traces the run
executed, so they

* equal, bit for bit, what the frozen e2e harness
  (``benchmarks/e2e/workloads.py``'s ``_phase_seconds``) reports for the
  same fit;
* carry the same keys under every scheduler;
* add up to the machine clock under ``serial``, MO-ALS's initial load
  included (it runs as a one-transfer ``h2d:initial`` graph, which
  charges the clock and the transfer counters exactly like the direct
  ``run_transfers`` call it replaced).
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ALSConfig
from repro.core.als_mo import MemoryOptimizedALS
from repro.core.als_su import ScaleUpALS
from repro.core.schedule import execute_graph, phase_seconds, scheduler_names
from repro.core.taskgraph import TaskGraph
from repro.datasets import NETFLIX, generate_ratings
from repro.gpu.machine import MultiGPUMachine
from repro.gpu.topology import MachineTopology

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


def _load(name: str, as_name: str):
    spec = importlib.util.spec_from_file_location(as_name, E2E / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module through sys.modules
    spec.loader.exec_module(module)
    return module


_load("oracles", "oracles")  # workloads.py imports it under this name
workloads = _load("workloads", "e2e_workloads")

CONFIG = ALSConfig(f=6, lam=0.05, iterations=2, seed=3)
SOLVERS = {
    "mo": lambda config, scheduler: MemoryOptimizedALS(config, scheduler=scheduler),
    "su-model-parallel": lambda config, scheduler: ScaleUpALS(config, n_gpus=4, scheduler=scheduler),
    "su-data-parallel": lambda config, scheduler: ScaleUpALS(
        config, machine=MultiGPUMachine(4, topology=MachineTopology.dual_socket(4)), q_override=3, force_data_parallel=True, scheduler=scheduler
    ),
}
PHASES = {
    "mo": {"h2d", "herm", "solve"},
    "su-model-parallel": {"bcast", "h2d", "herm", "solve", "gather"},
    "su-data-parallel": {"scatter", "h2d", "herm", "reduce", "reduce-sum", "solve", "gather"},
}


@pytest.fixture(scope="module")
def ratings():
    return generate_ratings(NETFLIX.scaled(max_rows=200, f=6), seed=4)


@pytest.mark.parametrize("name", ["train-mp", "train-dp"])
def test_a_fit_breakdown_is_what_the_harness_reports(name, tmp_path):
    workload = workloads.make_workload(name, 0, True, tmp_path)
    workload.setup()
    workload.rep(0)
    solver, result = workload.first
    assert workload.problems == []
    assert {"h2d", "herm", "solve", "gather"} <= result.breakdown.keys()
    for phase, seconds in result.breakdown.items():
        assert seconds.hex() == workloads._phase_seconds(solver.traces, {phase}).hex(), phase


@pytest.mark.parametrize("solver", list(SOLVERS))
def test_every_scheduler_reports_the_same_phases(solver, ratings):
    fits, full_scale = {}, {}
    for scheduler in scheduler_names():
        made = SOLVERS[solver](CONFIG, scheduler)
        fits[scheduler] = set(made.fit(ratings.train).breakdown)
        full_scale[scheduler] = set(made.iteration_time(NETFLIX).breakdown)
    assert all(found == PHASES[solver] for found in fits.values()), fits
    assert len({frozenset(found) for found in full_scale.values()}) == 1, full_scale


@pytest.mark.parametrize("solver", list(SOLVERS))
def test_a_serial_breakdown_adds_up_to_the_clock(solver, ratings):
    made = SOLVERS[solver](CONFIG, "serial")
    result = made.fit(ratings.train)
    assert sum(result.breakdown.values()) == pytest.approx(made.machine.elapsed_seconds(), rel=1e-12)
    timed = made.iteration_time(NETFLIX)
    assert sum(timed.breakdown.values()) == pytest.approx(timed.seconds, rel=1e-12)


def test_mo_als_traces_its_initial_load(ratings):
    solver = MemoryOptimizedALS(CONFIG)
    solver.fit(ratings.train)
    first = solver.traces[0].events
    assert [(event.name, event.kind) for event in first] == [("h2d:initial", "transfer")]
    assert len(solver.traces) == 1 + 2 * CONFIG.iterations


@settings(max_examples=60, deadline=None)
@given(
    n_gpus=st.integers(1, 4),
    dual=st.booleans(),
    gpu=st.integers(0, 3),
    pcie_gbs=st.floats(0.01, 50.0),
    nbytes=st.floats(1.0, 1e11),
    scheduler=st.sampled_from(scheduler_names()),
)
def test_a_one_transfer_graph_charges_like_the_direct_call(n_gpus, dual, gpu, pcie_gbs, nbytes, scheduler):
    def machine():
        return MultiGPUMachine(n_gpus, topology=(MachineTopology.dual_socket if dual else MachineTopology.single_socket)(n_gpus, pcie_gbs=pcie_gbs))

    direct, graphed = machine(), machine()
    gpu %= n_gpus
    direct.run_transfers([direct.h2d(gpu, nbytes)], label="h2d")
    graph = TaskGraph()
    graph.new_task("h2d:initial", "transfer", transfer=graphed.h2d(gpu, nbytes))
    trace = execute_graph(graph, graphed, scheduler)

    def charged(m):
        engine = m.transfer_engine
        return [float(v).hex() for v in (m.clock.now, engine.total_bytes_moved, engine.total_transfer_seconds)] + [engine.batches]

    assert charged(graphed) == charged(direct)
    assert phase_seconds([trace]) == {"h2d": direct.clock.now}
