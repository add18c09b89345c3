"""Registry-driven solver sweep + TrainingSession overhead pin.

Two jobs:

* run every registered solver through the unified API on one shared
  workload and print the comparison table the paper's evaluation is
  built around (final RMSE, history length, seconds) — if a solver
  joins the registry, it joins this sweep automatically;
* pin the cost of the :class:`~repro.core.solver.session.TrainingSession`
  harness: driving a solver through the session (timing, history, RMSE,
  callback dispatch) must cost < 5% wall time over a direct loop around
  the same ``iterate`` generator doing only the numeric work and the
  RMSE bookkeeping the solvers used to inline.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.metrics import rmse
from repro.core.solver import TrainingSession, get_solver_spec, make_solver, solver_names
from repro.datasets.registry import DatasetSpec
from repro.datasets.synthetic import generate_ratings
from repro.experiments.common import format_table

HYPER = dict(f=8, lam=0.05, iterations=4, seed=3)


@pytest.fixture(scope="module")
def workload():
    spec = DatasetSpec("bench-solvers", 500, 160, 9000, 8, 0.05, kind="synthetic")
    return generate_ratings(spec, seed=21, noise_sigma=0.25)


def test_registry_sweep(benchmark, workload, report):
    """Every registered solver factorizes the same workload through the API."""

    def sweep():
        rows = []
        for name in sorted(solver_names()):
            result = make_solver(name, **HYPER).fit(workload.train, workload.test)
            rows.append(
                {
                    "solver": name,
                    "kind": get_solver_spec(name).kind,
                    "result_label": result.solver,
                    "iterations": len(result.history),
                    "final_train_rmse": result.final_train_rmse,
                    "final_test_rmse": result.final_test_rmse,
                    "seconds": result.total_seconds,
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report("Solver registry sweep — one workload, every registered solver", format_table(rows))
    assert len(rows) == len(solver_names())
    for row in rows:
        assert row["iterations"] == HYPER["iterations"]
        assert np.isfinite(row["final_train_rmse"])
    # Every solver learns something: the ALS family ends near the noise
    # floor, and even the slowest-starting baseline beats its first iteration.
    for name in ("base", "mo", "su", "pals", "spark-als"):
        row = next(r for r in rows if r["solver"] == name)
        assert row["final_train_rmse"] < 1.0


def test_session_overhead_under_5_percent(benchmark, workload, report):
    """The session harness costs < 5% wall vs a direct loop over iterate().

    The harness's per-iteration bookkeeping is microseconds, so the pin
    is measured on a run long enough (~hundreds of ms) that 5% dwarfs
    scheduler noise, with the two paths timed *interleaved* and reduced
    by min, so a transient stall cannot land on one side only.
    """
    spec = DatasetSpec("bench-overhead", 1600, 320, 36_000, 12, 0.05, kind="synthetic")
    data = generate_ratings(spec, seed=8, noise_sigma=0.25)
    train, test = data.train, data.test
    solver_kwargs = dict(HYPER, f=12, iterations=6)

    def direct_loop():
        # What solvers used to do inline: drive the updates and track RMSE.
        solver = make_solver("base", **solver_kwargs)
        steps = solver.iterate(train, test)
        initial = next(steps)
        x, theta = initial.x, initial.theta
        history = []
        for step in steps:
            x, theta = step.x, step.theta
            history.append((rmse(train, x, theta), rmse(test, x, theta)))
        return x, theta, history

    def session_run():
        solver = make_solver("base", **solver_kwargs)
        return TrainingSession(solver).run(train, test)

    def timed(fn):
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    direct_loop()  # warm both paths (imports, caches) before timing
    session_run()
    direct_times, session_times = [], []
    for _ in range(5):  # interleaved so machine-load drift hits both sides
        direct_times.append(timed(direct_loop))
        session_times.append(timed(session_run))
    direct_s = min(direct_times)
    session_s = min(session_times)
    overhead = session_s / direct_s - 1.0

    benchmark.pedantic(session_run, rounds=1, iterations=1)
    report(
        "TrainingSession harness overhead",
        format_table(
            [
                {
                    "direct_loop_s": direct_s,
                    "session_s": session_s,
                    "overhead_pct": 100.0 * overhead,
                }
            ]
        ),
    )
    assert overhead < 0.05, f"session harness overhead {overhead:.1%} >= 5%"


def test_session_and_direct_loop_agree(workload):
    """The harness changes bookkeeping, never numerics."""
    a = make_solver("base", **HYPER).fit(workload.train)
    steps = make_solver("base", **HYPER).iterate(workload.train)
    x = theta = None
    for step in steps:
        x, theta = step.x, step.theta
    np.testing.assert_array_equal(a.x, x)
    np.testing.assert_array_equal(a.theta, theta)
