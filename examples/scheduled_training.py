#!/usr/bin/env python
"""Task-graph scheduled training: build a graph, compare schedulers, dump a trace.

One SU-ALS update pass is *built* as an explicit dataflow graph (H2D
transfers → per-GPU hermitian kernels → reduction → solves → gather)
and *executed* through a pluggable scheduler.  This example:

1. builds one iteration's task graph and prints its shape (tasks, waves,
   bytes on the wire);
2. fits the same model under every registered scheduler — factors are
   bitwise identical, only simulated time moves;
3. dumps the eager schedule as chrome-tracing JSON (load it at
   chrome://tracing or https://ui.perfetto.dev);
4. streams the ratings in as four chunk waves with ``streaming-als``.

Run:  python examples/scheduled_training.py
"""

from __future__ import annotations

import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro.core import ALSConfig, ScaleUpALS, make_solver, scheduler_names
from repro.core.als_base import starting_factors
from repro.datasets import NETFLIX, generate_ratings
from repro.gpu.machine import MultiGPUMachine
from repro.gpu.topology import MachineTopology


def dual_socket_solver(config: ALSConfig, scheduler: str) -> ScaleUpALS:
    machine = MultiGPUMachine(n_gpus=4, topology=MachineTopology.dual_socket(4))
    return ScaleUpALS(config, machine=machine, force_data_parallel=True, q_override=4, scheduler=scheduler)


def main() -> None:
    data = generate_ratings(NETFLIX.scaled(max_rows=800, f=16), seed=0, noise_sigma=0.3)
    config = ALSConfig(f=16, lam=0.05, iterations=3, seed=1)
    print(f"workload: {data.train.shape[0]} users x {data.train.shape[1]} items, {data.train.nnz:,} ratings\n")

    # 1. One update pass as an explicit task graph.
    solver = dual_socket_solver(config, "serial")
    x0, theta0 = starting_factors(data.train, config, None, None)
    graph, _ = solver.build_update_graph(data.train, theta0, label="x")
    kinds = {kind: sum(1 for t in graph.tasks if t.kind == kind) for kind in ("transfer", "kernel", "compute")}
    print("one x-update pass as a graph:")
    wire = sum(t.transfer.nbytes for t in graph.tasks if t.transfer is not None)
    print(f"  {len(graph)} tasks {kinds}, {len(graph.waves())} waves, {wire / 1e6:.2f} MB on the wire\n")

    # 2. Same numerics, different clocks: sweep the scheduler registry.
    print("scheduler     simulated seconds   final train RMSE")
    reference = None
    for name in scheduler_names():
        solver = dual_socket_solver(config, name)
        result = solver.fit(data.train, data.test)
        if reference is None:
            reference = result.x
        assert np.array_equal(result.x, reference), "schedules must not perturb numerics"
        print(f"{name:<12} {solver.machine.elapsed_seconds():>17.6f}   {result.final_train_rmse:>16.4f}")
    print("(factors bitwise identical across all three)\n")

    # 3. Export the eager schedule for chrome://tracing.
    solver = dual_socket_solver(config, "eager")
    solver.fit(data.train)
    out = os.path.join(tempfile.gettempdir(), "scheduled_training_trace.json")
    solver.export_trace(out)
    merged = solver.export_trace()
    print(f"chrome trace: {len(merged.events)} events -> {out}\n")

    # 4. Ratings arriving in chunks: the streaming minibatch solver.
    streaming = make_solver("streaming-als", config=config.with_(iterations=8), n_chunks=4, scheduler="eager")
    result = streaming.fit(data.train, data.test)
    print("streaming-als, 4 chunks, 8 waves:")
    for step in result.history:
        print(f"  wave {step.iteration}: train RMSE {step.train_rmse:.4f}  (+{step.seconds * 1e3:.3f} sim ms)")


if __name__ == "__main__":
    main()
