"""Conformance suite for the unified training API.

Every solver in the registry — the three cuMF ALS levels and all
baselines — is run through the same parametrized checks: protocol
conformance, fit shapes, history integrity, seed determinism, warm-start
parity, callback invocation order and tolerance-honouring early stop.
Plus the satellite regressions: identical validation messages across
config families, resumed runs continuing iteration numbering, and a
baseline-trained model serving end to end through ``CuMF.serve``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.ccd import CCDConfig, CCDPlusPlus
from repro.baselines.nomad import NomadSGD
from repro.baselines.pals import PALS
from repro.baselines.sgd_hogwild import ParallelSGD, SGDConfig
from repro.baselines.spark_als import SparkALS
from repro.core.config import ALSConfig
from repro.core.solver import (
    CheckpointCallback,
    EarlyStopping,
    FitCallback,
    MetricLogger,
    Solver,
    TrainingSession,
    get_solver_spec,
    make_solver,
    solver_names,
)
from repro.core.trainer import CuMF
from repro.core.validation import MESSAGES
from repro.serving.service import RecommenderService, ServingConfig
from repro.sparse.csr import CSRMatrix

ALL_SOLVERS = sorted(solver_names())

#: Uniform declarative hyper-parameters; the registry maps them onto
#: every family (``iterations`` becomes ``epochs`` for the SGD solvers).
HYPER = dict(f=6, lam=0.05, iterations=3, seed=11)


def build(name: str, **overrides):
    return make_solver(name, **{**HYPER, **overrides})


@pytest.fixture(scope="module")
def data():
    from repro.datasets.registry import DatasetSpec
    from repro.datasets.synthetic import generate_ratings

    spec = DatasetSpec("conform", 120, 40, 1400, 6, 0.05, kind="synthetic")
    return generate_ratings(spec, seed=9, noise_sigma=0.2)


class RecordingCallback(FitCallback):
    """Records the hook order and the iteration ids it saw."""

    def __init__(self):
        self.events: list[str] = []
        self.iterations: list[int] = []

    def on_fit_start(self, session, train, test):
        self.events.append("start")

    def on_iteration_end(self, session, stats, x, theta):
        self.events.append("iter")
        self.iterations.append(stats.iteration)

    def on_fit_end(self, session, result):
        self.events.append("end")


# ---------------------------------------------------------------------- #
# registry
# ---------------------------------------------------------------------- #
class TestRegistry:
    def test_all_expected_solvers_registered(self):
        assert {"base", "mo", "su", "ccd++", "libmf-sgd", "nomad", "pals", "spark-als"} <= set(ALL_SOLVERS)

    def test_every_solver_has_kind_and_description(self):
        for name in ALL_SOLVERS:
            spec = get_solver_spec(name)
            assert spec.kind in ("als", "sgd", "ccd")
            assert spec.description

    @pytest.mark.parametrize("alias,canonical", [("base-als", "base"), ("mo-als", "mo"), ("su-als", "su"), ("ccd", "ccd++"), ("libmf", "libmf-sgd"), ("nomad-sgd", "nomad"), ("spark", "spark-als")])
    def test_aliases_resolve(self, alias, canonical):
        assert get_solver_spec(alias).name == canonical

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ValueError, match="unknown solver"):
            make_solver("tpu-als")

    def test_dict_spec_and_overrides(self):
        solver = make_solver({"name": "ccd++", "f": 4}, iterations=2)
        assert solver.config.f == 4 and solver.config.iterations == 2

    def test_dict_spec_requires_name(self):
        with pytest.raises(ValueError, match="'name'"):
            make_solver({"f": 4})

    def test_built_solver_passes_through(self):
        solver = build("base")
        assert make_solver(solver) is solver
        with pytest.raises(ValueError, match="already-built"):
            make_solver(solver, f=4)

    def test_config_families_map_across(self):
        sgd = make_solver("libmf-sgd", config=ALSConfig(f=7, lam=0.1, iterations=4, seed=3))
        assert (sgd.config.f, sgd.config.epochs, sgd.config.seed) == (7, 4, 3)
        als = make_solver("base", config=SGDConfig(f=5, lam=0.2, epochs=6, seed=2))
        assert (als.config.f, als.config.iterations, als.config.seed) == (5, 6, 2)

    @pytest.mark.parametrize("name", ALL_SOLVERS)
    def test_iteration_keywords_translate_both_ways(self, name):
        # iterations= and epochs= are interchangeable on every family.
        by_iterations = make_solver(name, f=4, iterations=2)
        by_epochs = make_solver(name, f=4, epochs=2)
        rounds = lambda s: getattr(s.config, "iterations", None) or getattr(s.config, "epochs", None)  # noqa: E731
        assert rounds(by_iterations) == rounds(by_epochs) == 2

    def test_ccd_accepts_config_positionally(self):
        solver = CCDPlusPlus(CCDConfig(f=4, iterations=2))
        assert solver.config.f == 4
        with pytest.raises(ValueError, match="not both"):
            CCDPlusPlus(CCDConfig(f=4), config=CCDConfig(f=5))


# ---------------------------------------------------------------------- #
# per-solver conformance
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ALL_SOLVERS)
class TestSolverConformance:
    def test_satisfies_protocol(self, name):
        solver = build(name)
        assert isinstance(solver, Solver)
        assert isinstance(solver.name, str) and solver.name

    def test_fit_shapes_and_history(self, name, data):
        result = build(name).fit(data.train, data.test)
        m, n = data.train.shape
        assert result.x.shape == (m, HYPER["f"])
        assert result.theta.shape == (n, HYPER["f"])
        assert len(result.history) == HYPER["iterations"]
        assert [h.iteration for h in result.history] == [1, 2, 3]
        assert all(h.seconds >= 0 for h in result.history)
        cumulative = [h.cumulative_seconds for h in result.history]
        assert cumulative == sorted(cumulative)
        assert np.isfinite(result.final_train_rmse)
        assert np.isfinite(result.final_test_rmse)

    def test_seed_determinism(self, name, data):
        a = build(name).fit(data.train)
        b = build(name).fit(data.train)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.theta, b.theta)

    def test_training_reduces_rmse(self, name, data):
        result = build(name).fit(data.train, data.test)
        assert result.final_train_rmse < result.history[0].train_rmse * 1.05

    def test_warm_start_accepted_and_used(self, name, data):
        m, n = data.train.shape
        rng = np.random.default_rng(0)
        x0 = rng.random((m, HYPER["f"]))
        theta0 = rng.random((n, HYPER["f"]))
        a = build(name, iterations=1).fit(data.train, x0=x0, theta0=theta0)
        b = build(name, iterations=1).fit(data.train, x0=x0, theta0=theta0)
        np.testing.assert_array_equal(a.x, b.x)
        # A different start must change the outcome (the factors are used).
        c = build(name, iterations=1).fit(data.train, x0=x0 + 0.5, theta0=theta0 + 0.5)
        assert not np.array_equal(a.x, c.x)

    def test_zero_iteration_run_returns_factors(self, name, data):
        result = build(name, iterations=0).fit(data.train)
        m, n = data.train.shape
        assert result.x.shape == (m, HYPER["f"])
        assert result.theta.shape == (n, HYPER["f"])
        assert result.history == []

    def test_callback_invocation_order(self, name, data):
        recorder = RecordingCallback()
        TrainingSession(build(name), callbacks=[recorder]).run(data.train, data.test)
        assert recorder.events == ["start"] + ["iter"] * HYPER["iterations"] + ["end"]
        assert recorder.iterations == [1, 2, 3]

    def test_early_stop_honors_tolerance(self, name, data):
        # An impossible per-iteration improvement (1e9) stalls immediately:
        # the run must stop at iteration 2, whatever the solver family.
        stopper = EarlyStopping(tolerance=1e9)
        result = TrainingSession(build(name, iterations=6), callbacks=[stopper]).run(data.train)
        assert len(result.history) == 2
        assert stopper.stopped_at == 2
        # A zero tolerance never stalls a converging run.
        relaxed = TrainingSession(build(name, iterations=3), callbacks=[EarlyStopping(tolerance=0.0)]).run(data.train)
        assert len(relaxed.history) == 3

    def test_resumed_history_continues_numbering(self, name, data):
        first = build(name).fit(data.train)
        resumed = TrainingSession(build(name)).run(
            data.train, x0=first.x, theta0=first.theta, start_iteration=first.history[-1].iteration
        )
        assert [h.iteration for h in resumed.history] == [4, 5, 6]

    def test_result_metadata(self, name, data):
        result = build(name).fit(data.train)
        assert result.solver == build(name).name
        assert result.config is not None and result.config.f == HYPER["f"]


# ---------------------------------------------------------------------- #
# the session harness and callbacks
# ---------------------------------------------------------------------- #
class TestTrainingSession:
    def test_objective_tracking_for_any_solver(self, data):
        result = TrainingSession(build("ccd++")).run(data.train, compute_objective=True)
        objectives = [h.objective for h in result.history]
        assert all(np.isfinite(o) for o in objectives)
        assert objectives[-1] <= objectives[0]

    def test_negative_start_iteration_rejected(self, data):
        with pytest.raises(ValueError, match="start_iteration"):
            TrainingSession(build("base")).run(data.train, start_iteration=-1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("split", ["train", "test"])
    @pytest.mark.parametrize("name", ["base", "mo", "su"])
    def test_non_finite_ratings_rejected(self, data, name, split, bad):
        """A NaN/inf rating is refused up front instead of training to NaN factors."""
        ratings = {"train": data.train, "test": data.test}
        clean = ratings[split]
        values = clean.data.copy()
        values[len(values) // 2] = bad
        ratings[split] = CSRMatrix(clean.shape, clean.indptr, clean.indices, values)
        with pytest.raises(ValueError, match=f"{split} ratings hold non-finite"):
            build(name).fit(ratings["train"], ratings["test"])

    def test_checkpoint_callback_saves_every_iteration(self, data, tmp_path):
        from repro.core.checkpoint import CheckpointManager

        manager = CheckpointManager(tmp_path, keep=10)
        TrainingSession(build("base"), callbacks=[CheckpointCallback(manager)]).run(data.train)
        assert manager.list_iterations() == [1, 2, 3]

    def test_metric_logger_emits_lines(self, data):
        lines = []
        TrainingSession(build("base"), callbacks=[MetricLogger(sink=lines.append)]).run(data.train)
        assert len(lines) == HYPER["iterations"]
        assert "base-als" in lines[0]

    def test_early_stopping_patience(self, data):
        stopper = EarlyStopping(tolerance=1e9, patience=3)
        result = TrainingSession(build("base", iterations=8), callbacks=[stopper]).run(data.train)
        assert len(result.history) == 4  # 1 warm-up + 3 stalled

    @pytest.mark.parametrize("name", ["pals", "spark-als"])
    def test_finalize_hook_is_once_per_run(self, name, data):
        solver = build(name)
        result = solver.fit(data.train)
        assert result.breakdown  # the session attached the stashed breakdown
        with pytest.raises(RuntimeError, match="iterate"):
            solver.finalize_result(result)  # stale second call is refused


# ---------------------------------------------------------------------- #
# satellite: identical validation messages across config families
# ---------------------------------------------------------------------- #
class TestUnifiedValidation:
    @pytest.mark.parametrize(
        "build_bad",
        [
            lambda: ALSConfig(f=0),
            lambda: SGDConfig(f=0),
            lambda: CCDConfig(f=0),
            lambda: CCDPlusPlus(f=-3),
        ],
        ids=["als", "sgd", "ccd-config", "ccd-loose"],
    )
    def test_f_message_identical(self, build_bad):
        with pytest.raises(ValueError) as err:
            build_bad()
        assert str(err.value) == MESSAGES["f"]

    @pytest.mark.parametrize(
        "build_bad",
        [lambda: ALSConfig(iterations=-1), lambda: CCDConfig(iterations=-1)],
        ids=["als", "ccd"],
    )
    def test_iterations_message_identical(self, build_bad):
        with pytest.raises(ValueError) as err:
            build_bad()
        assert str(err.value) == MESSAGES["iterations"]

    def test_epochs_message(self):
        with pytest.raises(ValueError) as err:
            SGDConfig(epochs=-1)
        assert str(err.value) == MESSAGES["epochs"]

    @pytest.mark.parametrize("kwargs,key", [(dict(lr=0.0), "lr"), (dict(lr=-1.0), "lr"), (dict(lr_decay=0.0), "lr_decay"), (dict(lr_decay=1.5), "lr_decay")])
    def test_lr_messages(self, kwargs, key):
        with pytest.raises(ValueError) as err:
            SGDConfig(**kwargs)
        assert str(err.value) == MESSAGES[key]

    @pytest.mark.parametrize(
        "build_bad",
        [
            lambda: PALS(ALSConfig(), workers=0),
            lambda: SparkALS(ALSConfig(), workers=0),
            lambda: NomadSGD(SGDConfig(), workers=0),
        ],
        ids=["pals", "spark", "nomad"],
    )
    def test_workers_message_identical(self, build_bad):
        with pytest.raises(ValueError) as err:
            build_bad()
        assert str(err.value) == MESSAGES["workers"]

    def test_cores_message(self):
        with pytest.raises(ValueError) as err:
            ParallelSGD(SGDConfig(), cores=0)
        assert str(err.value) == MESSAGES["cores"]

    @pytest.mark.parametrize("kwargs,key", [(dict(lam=-0.1), "lam"), (dict(inner_sweeps=0), "inner_sweeps")])
    def test_ccd_field_messages(self, kwargs, key):
        with pytest.raises(ValueError) as err:
            CCDConfig(**kwargs)
        assert str(err.value) == MESSAGES[key]


# ---------------------------------------------------------------------- #
# the CuMF facade over the registry
# ---------------------------------------------------------------------- #
class TestCuMFFacade:
    def test_any_registered_backend_accepted(self):
        for name in ALL_SOLVERS:
            assert CuMF(backend=name).backend == name

    def test_alias_backend_canonicalised(self):
        assert CuMF(backend="ccd").backend == "ccd++"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            CuMF(backend="tpu")

    @pytest.mark.parametrize("name", ["ccd++", "libmf-sgd", "pals"])
    def test_baseline_backend_trains_and_recommends(self, name, data):
        model = CuMF(ALSConfig(f=6, lam=0.05, iterations=3, seed=1), backend=name)
        result = model.fit(data.train, data.test)
        assert result.solver == make_solver(name).name
        recs = model.recommend(0, k=5, exclude=data.train)
        assert len(recs) == 5

    def test_baseline_trained_result_serves_end_to_end(self, data, tmp_path):
        """Train with CCD++, serve through the PR-4 RecommenderService."""
        model = CuMF(ALSConfig(f=6, lam=0.05, iterations=3, seed=1), backend="ccd++")
        model.fit(data.train, data.test)
        service = model.serve(
            ServingConfig(replicas=2, n_shards=2, registry_dir=tmp_path, ratings=data.train)
        )
        assert isinstance(service, RecommenderService)
        assert service.versions() == ["v0", "v0"]
        response = service.recommend(np.arange(8), k=4)
        response.raise_for_status()
        assert len(response.payload) == 8
        # The fold-in lam comes off the CCD config carried by the FitResult.
        unit = service.backend.serving_units()[0]
        assert unit.lam == pytest.approx(0.05)
        user = service.fold_in(np.array([1, 3, 5]), np.array([4.0, 5.0, 3.0]))
        single = service.recommend(user, k=3)
        assert single.status == "ok"

    def test_checkpoint_resume_continues_numbering_any_backend(self, data, tmp_path):
        cfg = ALSConfig(f=6, lam=0.05, iterations=2, seed=4)
        model = CuMF(cfg, backend="libmf-sgd", checkpoint_dir=str(tmp_path / "ckpt"))
        first = model.fit(data.train)
        assert [h.iteration for h in first.history] == [1, 2]
        resumed = CuMF(cfg, backend="libmf-sgd", checkpoint_dir=str(tmp_path / "ckpt"))
        second = resumed.fit(data.train, resume=True)
        assert [h.iteration for h in second.history] == [3, 4]
        assert second.final_train_rmse <= first.final_train_rmse + 1e-9

    def test_fit_callbacks_forwarded(self, data):
        recorder = RecordingCallback()
        CuMF(ALSConfig(f=6, iterations=2), backend="base").fit(data.train, callbacks=[recorder])
        assert recorder.events == ["start", "iter", "iter", "end"]

    def test_checkpoint_every_validated_at_construction(self):
        with pytest.raises(ValueError, match="checkpoint_every"):
            CuMF(backend="base", checkpoint_every=0)

    def test_checkpoint_every_controls_cadence(self, data, tmp_path):
        from repro.core.checkpoint import CheckpointManager

        cfg = ALSConfig(f=6, iterations=4, seed=2)
        model = CuMF(cfg, backend="base", checkpoint_dir=str(tmp_path / "a"), checkpoint_every=2)
        model.fit(data.train)
        assert CheckpointManager(str(tmp_path / "a")).list_iterations() == [2, 4]

    def test_caller_checkpoint_callback_takes_over(self, data, tmp_path):
        from repro.core.checkpoint import CheckpointManager

        cfg = ALSConfig(f=6, iterations=4, seed=2)
        own = CheckpointCallback(CheckpointManager(str(tmp_path / "own"), keep=10), every=4)
        model = CuMF(cfg, backend="base", checkpoint_dir=str(tmp_path / "auto"))
        model.fit(data.train, callbacks=[own])
        # The caller's callback ran; the automatic every-iteration one did not.
        assert CheckpointManager(str(tmp_path / "own"), keep=10).list_iterations() == [4]
        assert CheckpointManager(str(tmp_path / "auto")).list_iterations() == []
