"""Self-test of the end-to-end benchmark at smoke size.

Run from the repository root::

    python -m pytest benchmarks/e2e/test_e2e.py -q

Checks that every metric of BENCHMARK.json is printed with its unit for
every workload, that simulated metrics repeat for a seed and move across
seeds, that each oracle rejects a corrupted output, and that the
benchmark refuses to run without the program.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SIM_TIMES = ("sim_iter_s", "sim_p50_ms", "sim_p95_ms")
# Per-layer counts that stay 0 at smoke size: the oracles require the
# first two to be 0, and smoke traffic never overloads a tenant.
ZERO_AT_SMOKE = {
    "cache.stale_hits",
    "lifecycle.dropped",
    "tenancy.shed_cap",
    "tenancy.shed_deadline",
    "tenancy.shed_queue",
    "tenancy.degraded",
    "tenancy.slo_violations",
}


def smoke(workload: str, seed: int, trace: int, trace_out: Path) -> tuple[int, dict, dict]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = run.main(
            ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--smoke", "--trace-out", str(trace_out)]
        )
    env, result = (json.loads(line) for line in out.getvalue().splitlines()[-2:])
    return code, env, result


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Smoke runs keyed by (workload, seed, trace, repeat), each run once."""
    cache = {}

    def get(workload, seed=0, trace=0, repeat=0):
        key = (workload, seed, trace, repeat)
        if key not in cache:
            cache[key] = smoke(workload, seed, trace, tmp_path_factory.mktemp("trace") / "trace.json")
        return cache[key]

    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_prints_every_metric_with_its_unit(runs, workload, trace):
    code, env, result = runs(workload, trace=trace)
    assert code == 0 and result["correct"], env["problems"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in wanted]
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
        assert trace or got["value"] != 0, f"end-to-end metric {metric['name']} reads 0"
    assert env["workload"] == workload and env["seed"] == 0 and env["wall_s"] > 0
    assert set(env["env"]) >= {"git_sha", "nproc", "python", "numpy"}
    assert set(env["env"]["blas_threads"].values()) == {"1"}


def test_every_per_layer_metric_is_exercised(runs):
    touched = {
        name
        for workload in run.WORKLOAD_NAMES
        for name, metric in runs(workload, trace=1)[2]["metrics"].items()
        if metric["value"] != 0
    }
    assert {metric["name"] for metric in BENCH["per_layer"]} - ZERO_AT_SMOKE <= touched


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_simulated_metrics_repeat_per_seed_and_move_across_seeds(runs, workload):
    first, again, other = (runs(workload, seed, repeat=repeat)[2]["metrics"] for seed, repeat in ((0, 0), (0, 1), (1, 0)))
    for name in (*SIM_TIMES, "sim_scaling_eff"):
        assert first[name]["value"] == again[name]["value"], name
    for name in SIM_TIMES:
        assert first[name]["value"] != other[name]["value"], name


# ---------------------------------------------------------------------- #
# every oracle rejects a corrupted output
# ---------------------------------------------------------------------- #
def test_training_oracles_reject_corrupted_factors(tmp_path):
    workload = run_workload("train-mp", tmp_path)
    assert workload.problems == []
    x, theta = workload.reference
    train, test = workload.train, workload.test
    want = oracles.als(train.row_ids(), train.indices, train.data, train.shape, *workload.start, workload.spec.lam, 5)
    want_rmse = oracles.rmse(test.row_ids(), test.indices, test.data, *want)
    test_rmse = workload.first[1].final_test_rmse
    assert oracles.same_fit((x, theta), test_rmse, want, want_rmse) == []
    perturbed = theta.copy()
    perturbed[3] += 1e-6
    assert oracles.same_fit((x, perturbed), test_rmse, want, want_rmse)
    assert oracles.same_fit((x, theta), test_rmse * (1 + 1e-5), want, want_rmse)
    flipped = theta.copy()
    flipped.view(np.int64)[0, 0] ^= 1
    assert oracles.identical_factors((x, theta), (x, flipped), "fit")


def test_replay_oracles_reject_corrupted_answers(tmp_path):
    import workloads

    workload = run_workload("serve-replay", tmp_path)
    assert workload.problems == []
    report, _ = workload._replay(1)
    assert not oracles.identical_reports(workload.reference[1], workloads._sim_key(report), "same")
    late = dataclasses.replace(report, latency_p95_s=report.latency_p95_s * (1 + 1e-12))
    assert oracles.identical_reports(workload.reference[1], workloads._sim_key(late), "late")

    user = 7
    scores = workload.x[user] @ workload.theta.T
    seen = workloads._seen_items(workload.seen, user)
    recs = workload.store.recommend_batch(np.array([user]), k=10, exclude=workload.seen)[0]
    assert oracles.topk(recs, scores, seen, 10, "ok") == []
    assert oracles.topk(recs[::-1], scores, seen, 10, "reversed")
    assert oracles.topk([(int(seen[0]), float(scores[seen[0]]))] + recs[1:], scores, seen, 10, "seen item")
    assert oracles.topk([(recs[0][0], recs[0][1] + 1e-2)] + recs[1:], scores, seen, 10, "score")
    assert oracles.topk(recs[:-1], scores, seen, 10, "short")


def test_lifecycle_oracle_rejects_each_broken_invariant():
    ok = SimpleNamespace(cache={"stale_hits": 0}, n_dropped=0)
    assert oracles.lifecycle_round(2, ok, 0, 3, ["v3", "v3"], "ok") == []
    assert oracles.lifecycle_round(2, SimpleNamespace(cache={"stale_hits": 1}, n_dropped=0), 0, 3, ["v3"], "stale")
    assert oracles.lifecycle_round(2, SimpleNamespace(cache={}, n_dropped=1), 0, 3, ["v3"], "dropped")
    assert oracles.lifecycle_round(2, ok, 1, 3, ["v3"], "error")
    assert oracles.lifecycle_round(2, ok, 0, 4, ["v3"], "two versions published")
    assert oracles.lifecycle_round(2, ok, 0, 3, ["v3", "v2"], "rollout incomplete")


def test_compare_holds_seed_paired_simulated_metrics_exact():
    import compare

    assert compare.exact_verdict([(1.0, 1.0), (2.0, 2.0)], lower=True) == ("same", 0)
    assert compare.exact_verdict([(1.0, 0.5), (2.0, 2.0)], lower=True) == ("better", 1)
    assert compare.exact_verdict([(1.0, 0.5), (2.0, 2.0 + 1e-12)], lower=True) == ("worse", 1)
    assert compare.exact_verdict([(1.0, 1.01), (2.0, 2.0)], lower=False) == ("better", 1)


def test_run_fails_when_the_program_answers_wrong(monkeypatch, tmp_path):
    from repro.serving.store import FactorStore

    original = FactorStore.recommend_batch
    monkeypatch.setattr(FactorStore, "recommend_batch", lambda self, *a, **kw: [recs[::-1] for recs in original(self, *a, **kw)])
    code, env, result = smoke("serve-replay", 0, 0, tmp_path / "trace.json")
    assert code == 1 and result["correct"] is False and env["problems"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__"))
    args = ["--workload", "train-mp", "--seed", "0", "--seconds", "1", "--trace", "0"]
    done = subprocess.run([sys.executable, "benchmarks/e2e/run.py", *args], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""


def run_workload(name: str, scratch: Path):
    """One smoke workload through set-up, warm-up, one pass of repetitions and its oracles."""
    import workloads

    workload = workloads.make_workload(name, 0, True, scratch)
    workload.setup()
    workload.warmup()
    for index in range(workload.min_reps):
        workload.rep(index)
    workload.finish()
    return workload
