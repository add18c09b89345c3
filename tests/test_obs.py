"""The observability layer: registry, tracer, exporters, instrumentation."""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.obs as obs
from repro.core.config import ALSConfig
from repro.core.schedule import ExecutionTrace, execute_graph
from repro.core.taskgraph import TaskGraph
from repro.core.trainer import CuMF
from repro.gpu.kernel import KernelProfile
from repro.gpu.machine import MultiGPUMachine
from repro.gpu.memory import MemoryKind
from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.tracing import Tracer
from repro.perf.counters import OpCounter
from repro.serving.service import ServingConfig
from repro.serving.simulator import QueryTrace
from repro.serving.tenancy import TenantPolicy


def small_profile(name: str = "k", mb: float = 64.0) -> KernelProfile:
    return KernelProfile(name=name, flops=1e9, traffic={MemoryKind.GLOBAL: mb * 1e6}, blocks=256)


# ---------------------------------------------------------------------- #
# registry
# ---------------------------------------------------------------------- #
class TestRegistry:
    def test_get_or_create_returns_same_series(self):
        reg = MetricsRegistry()
        a = reg.counter("serve.requests", tenant="free")
        b = reg.counter("serve.requests", tenant="free")
        assert a is b

    def test_labels_fan_out_distinct_series(self):
        reg = MetricsRegistry()
        free = reg.counter("serve.requests", tenant="free")
        pro = reg.counter("serve.requests", tenant="pro")
        free.inc(3)
        assert pro.value == 0.0 and free.value == 3.0
        assert len(reg) == 2

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        a = reg.gauge("g", device="gpu:0", solver="su")
        b = reg.gauge("g", solver="su", device="gpu:0")
        assert a is b

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered as a counter"):
            reg.gauge("x")

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="only go up"):
            reg.counter("c").inc(-1)

    def test_gauge_set_and_add(self):
        g = MetricsRegistry().gauge("g")
        g.set(2.5)
        g.add(-0.5)
        assert g.value == 2.0

    def test_value_and_reset(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(4)
        assert reg.value("c") == 4.0
        assert reg.value("missing") == 0.0
        reg.histogram("h").observe(1.0)
        with pytest.raises(ValueError, match="histogram"):
            reg.value("h")
        reg.reset()
        assert len(reg) == 0

    def test_metrics_sorted_for_stable_export(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.counter("a", z="2")
        reg.counter("a", z="1")
        names = [(m.name, m.labels) for m in reg.metrics()]
        assert names == sorted(names)


class TestHistogram:
    def test_streaming_matches_batch(self):
        values = np.random.default_rng(0).exponential(0.01, 500)
        one = MetricsRegistry().histogram("h")
        many = MetricsRegistry().histogram("h")
        for v in values:
            one.observe(v)
        many.observe_many(values)
        assert np.array_equal(one.counts, many.counts)
        assert one.count == many.count == 500
        assert one.sum == pytest.approx(many.sum)

    def test_quantiles_land_within_bucket_resolution(self):
        values = np.random.default_rng(1).exponential(0.02, 4000)
        h = MetricsRegistry().histogram("h")
        h.observe_many(values)
        for q in (0.5, 0.95, 0.99):
            exact = float(np.percentile(values, q * 100))
            approx = h.quantile(q)
            # log buckets step by 2-2.5x; interpolation keeps us inside one step
            assert exact / 2.6 <= approx <= exact * 2.6

    def test_quantile_exact_at_extremes_and_empty(self):
        h = MetricsRegistry().histogram("h")
        assert h.quantile(0.95) == 0.0
        h.observe_many(np.array([0.003, 0.004, 0.019]))
        assert h.quantile(1.0) == pytest.approx(0.019)
        assert h.mean == pytest.approx((0.003 + 0.004 + 0.019) / 3)

    def test_quantile_validates_range(self):
        with pytest.raises(ValueError, match="quantile"):
            MetricsRegistry().histogram("h").quantile(1.5)

    def test_cumulative_buckets_end_at_total_count(self):
        h = MetricsRegistry().histogram("h", buckets=(0.01, 0.1, 1.0))
        h.observe_many(np.array([0.005, 0.05, 0.5, 5.0]))
        pairs = h.cumulative_buckets()
        assert pairs[-1] == (float("inf"), 4)
        cums = [c for _, c in pairs]
        assert cums == sorted(cums)


# ---------------------------------------------------------------------- #
# context: enable / disable / observed
# ---------------------------------------------------------------------- #
class TestContext:
    def test_disabled_by_default_hands_out_noops(self):
        assert not obs.enabled()
        reg = obs.get_registry()
        c = reg.counter("anything", tenant="x")
        c.inc(100)
        assert c.value == 0.0
        assert reg.counter("other") is c  # one shared no-op instrument
        assert obs.get_tracer().add_span("s", start=0, end=1) is None

    def test_observed_scopes_and_restores(self):
        assert not obs.enabled()
        with obs.observed() as (reg, tracer):
            assert obs.enabled()
            assert obs.get_registry() is reg
            assert obs.get_tracer() is tracer
            reg.counter("c").inc()
        assert not obs.enabled()

    def test_observed_nests(self):
        with obs.observed() as (outer, _):
            with obs.observed() as (inner, _t):
                assert obs.get_registry() is inner
            assert obs.get_registry() is outer

    def test_enable_disable_roundtrip(self):
        reg, tracer = obs.enable()
        try:
            assert obs.enabled() and obs.get_registry() is reg
        finally:
            obs.disable()
        assert not obs.enabled()


# ---------------------------------------------------------------------- #
# tracer
# ---------------------------------------------------------------------- #
class TestTracer:
    def test_span_context_manager_uses_custom_clock(self):
        clock = iter([1.0, 3.5])
        tracer = Tracer()
        with tracer.span("work", category="fit", clock=lambda: next(clock)):
            pass
        (span,) = tracer.spans
        assert (span.start, span.end) == (1.0, 3.5)
        assert span.duration == 2.5

    def test_adopt_execution_applies_offset(self):
        trace = ExecutionTrace(scheduler="eager")
        trace.add("k", "kernel", "gpu:0", 0.0, 0.5)
        trace.add("t", "transfer", "host:0->gpu:0", 0.5, 0.7, nbytes=1e6)
        tracer = Tracer()
        n = tracer.adopt_execution(trace, offset=10.0)
        assert n == 2
        kernel, transfer = tracer.spans
        assert kernel.start == 10.0 and kernel.end == 10.5
        assert transfer.args["nbytes"] == 1e6
        assert transfer.args["scheduler"] == "eager"

    def test_to_chrome_pids_per_process_with_metadata(self):
        tracer = Tracer()
        tracer.add_span("k", start=0, end=1, process="train", track="gpu:0")
        tracer.add_span("r", start=0, end=1, process="serve", track="replica:0")
        tracer.instant("drain", ts=0.5, process="serve", track="lifecycle")
        doc = tracer.to_chrome()
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {m["args"]["name"] for m in meta} == {"train", "serve"}
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert pids == {0, 1}
        instant = next(e for e in doc["traceEvents"] if e["ph"] == "i")
        assert instant["s"] == "t" and "dur" not in instant

    def test_dump_round_trips(self, tmp_path):
        tracer = Tracer()
        tracer.add_span("x", start=0.0, end=0.25)
        path = tracer.dump(str(tmp_path / "trace.json"))
        loaded = json.loads(open(path).read())
        assert loaded["traceEvents"]

    def test_spans_for_filters(self):
        tracer = Tracer()
        tracer.add_span("a", start=0, end=1, process="train", category="kernel")
        tracer.add_span("b", start=0, end=1, process="serve", category="request")
        assert len(tracer.spans_for("train")) == 1
        assert len(tracer.spans_for(category="request")) == 1
        assert len(tracer.spans_for("serve", "kernel")) == 0


# ---------------------------------------------------------------------- #
# exporters
# ---------------------------------------------------------------------- #
class TestExporters:
    def _sample(self):
        reg = MetricsRegistry()
        reg.counter("serve.requests", tenant="pro", status="ok").inc(7)
        reg.gauge("gpu.busy_seconds", device="gpu:0").set(1.25)
        h = reg.histogram("serve.latency_s", tenant="pro")
        h.observe_many(np.random.default_rng(2).exponential(0.01, 200))
        return reg

    def test_prometheus_counter_gauge_histogram(self):
        text = obs.to_prometheus(self._sample())
        assert "# TYPE serve_requests_total counter" in text
        assert 'serve_requests_total{status="ok",tenant="pro"} 7' in text
        assert 'gpu_busy_seconds{device="gpu:0"} 1.25' in text
        assert "# TYPE serve_latency_s histogram" in text
        assert 'serve_latency_s_bucket{tenant="pro",le="+Inf"} 200' in text
        assert 'serve_latency_s_count{tenant="pro"} 200' in text

    def test_prometheus_includes_per_tenant_quantiles(self):
        text = obs.to_prometheus(self._sample())
        for q in ("0.5", "0.95", "0.99"):
            assert f'serve_latency_s{{tenant="pro",quantile="{q}"}}' in text

    def test_snapshot_is_json_safe_and_complete(self):
        reg = self._sample()
        tracer = Tracer()
        tracer.add_span("k", start=0, end=1, process="train")
        snap = json.loads(json.dumps(obs.to_snapshot(reg, tracer)))
        kinds = {m["kind"] for m in snap["metrics"]}
        assert kinds == {"counter", "gauge", "histogram"}
        hist = next(m for m in snap["metrics"] if m["kind"] == "histogram")
        assert set(hist["quantiles"]) == {"0.5", "0.95", "0.99"}
        assert snap["spans"]["per_process"] == {"train": 1}

    def test_merge_chrome_keeps_pids_distinct(self):
        a = {"traceEvents": [{"name": "x", "ph": "X", "pid": 0, "tid": "t", "ts": 0, "dur": 1}]}
        b = {"traceEvents": [{"name": "y", "ph": "X", "pid": 0, "tid": "t", "ts": 0, "dur": 1}]}
        merged = obs.merge_chrome(a, b)
        assert [e["pid"] for e in merged["traceEvents"]] == [0, 1]


# ---------------------------------------------------------------------- #
# shared report math (simulator/tenancy dedup)
# ---------------------------------------------------------------------- #
class TestStatsHelpers:
    def test_percentile_summary_matches_numpy(self):
        served = np.random.default_rng(3).exponential(0.01, 333)
        p50, p95, vmax = obs.percentile_summary(served)
        assert p50 == float(np.percentile(served, 50))
        assert p95 == float(np.percentile(served, 95))
        assert vmax == float(served.max())
        assert obs.percentile_summary(np.array([])) == (0.0, 0.0, 0.0)

    def test_event_window_p95_matches_inline_block(self):
        rng = np.random.default_rng(4)
        arrivals = np.sort(rng.random(100))
        latencies = rng.exponential(0.01, 100)
        lo, hi = 0.25, 0.75
        in_window = (arrivals >= lo) & (arrivals <= hi)
        count, p95 = obs.event_window_p95(arrivals, latencies, lo, hi, np.ones(100, dtype=bool))
        assert count == int(in_window.sum())
        assert p95 == float(np.percentile(latencies[in_window], 95))

    def test_event_window_p95_respects_served_mask(self):
        arrivals = np.array([0.1, 0.2, 0.3])
        latencies = np.array([1.0, 2.0, 3.0])
        mask = np.array([True, False, True])
        count, p95 = obs.event_window_p95(arrivals, latencies, 0.0, 1.0, served_mask=mask)
        assert count == 2
        assert p95 == float(np.percentile(latencies[mask], 95))
        assert obs.event_window_p95(arrivals, latencies, 5.0, 6.0, mask) == (0, 0.0)

    def test_utilization(self):
        assert obs.utilization([1.0, 3.0], 4.0) == (0.25, 0.75)
        assert obs.utilization([1.0, 3.0], 0.0) == (0.0, 0.0)


# ---------------------------------------------------------------------- #
# chrome-trace export of ExecutionTrace (satellite coverage)
# ---------------------------------------------------------------------- #
class TestExecutionTraceChrome:
    def test_to_chrome_event_schema(self):
        trace = ExecutionTrace(scheduler="serial")
        trace.add("herm:x", "kernel", "gpu:1", 0.0, 0.5)
        trace.add("h2d", "transfer", "host:0->gpu:1", 0.5, 0.6, nbytes=2e6)
        doc = trace.to_chrome()
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        for event in doc["traceEvents"]:
            assert set(event) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"}
            assert event["ph"] == "X"
            assert isinstance(event["pid"], int)
        kernel, transfer = doc["traceEvents"]
        assert kernel["tid"] == "gpu:1"
        assert kernel["ts"] == 0.0 and kernel["dur"] == pytest.approx(0.5e6)
        assert transfer["args"]["nbytes"] == 2e6
        assert transfer["args"]["scheduler"] == "serial"

    def test_merge_preserves_order(self):
        first = ExecutionTrace(scheduler="eager")
        first.add("a", "kernel", "gpu:0", 0.0, 1.0)
        second = ExecutionTrace(scheduler="eager")
        second.add("b", "kernel", "gpu:0", 1.0, 2.0)
        merged = ExecutionTrace.merge([first, second])
        assert [e.name for e in merged.events] == ["a", "b"]
        assert merged.scheduler == "eager"
        assert merged.makespan == 2.0

    def test_merged_train_serve_doc_round_trips(self):
        train = ExecutionTrace(scheduler="eager")
        train.add("k", "kernel", "gpu:0", 0.0, 0.5)
        tracer = Tracer()
        tracer.add_span("recommend", start=0.0, end=0.01, category="request", process="serve")
        merged = obs.merge_chrome(train.to_chrome(), tracer.to_chrome())
        loaded = json.loads(json.dumps(merged))
        cats = {e.get("cat") for e in loaded["traceEvents"]}
        assert {"kernel", "request"} <= cats
        pids = {e["pid"] for e in loaded["traceEvents"]}
        assert len(pids) == 2


# ---------------------------------------------------------------------- #
# machine counters -> gauges
# ---------------------------------------------------------------------- #
class TestMachinePublishing:
    def _run_graph(self, machine):
        g = TaskGraph()
        h2d = g.new_task("h2d", "transfer", transfer=machine.h2d(0, 3e6))
        moved = g.new_object(3e6, producer=h2d)
        g.new_task("k", "kernel", profile=small_profile(), pin=0, inputs=[moved])
        return execute_graph(g, machine, scheduler="serial")

    def test_from_machine_folds_all_counters(self):
        machine = MultiGPUMachine(n_gpus=1)
        self._run_graph(machine)
        counter = OpCounter.from_machine(machine)
        assert counter.flops == machine.devices[0].counters.flops
        assert counter.bytes_written == machine.transfer_engine.total_bytes_moved
        assert counter.named["transfer_batches"] == machine.transfer_engine.batches
        assert counter.bytes_read > 0
        assert counter.arithmetic_intensity() > 0

    def test_publish_machine_sets_gauges(self):
        machine = MultiGPUMachine(n_gpus=2)
        self._run_graph(machine)
        with obs.observed() as (reg, _):
            obs.publish_machine(machine, solver="su-als")
            assert reg.value("perf.flops", solver="su-als") == pytest.approx(1e9)
            assert reg.value("transfer.bytes_total", solver="su-als") == pytest.approx(3e6)
            assert reg.value("gpu.kernel_launches", solver="su-als", device="gpu:0") == 1.0
            assert reg.value("gpu.kernel_launches", solver="su-als", device="gpu:1") == 0.0

    def test_publish_defaults_to_noop_when_disabled(self):
        machine = MultiGPUMachine(n_gpus=1)
        OpCounter.from_machine(machine).publish()  # must not raise or allocate


# ---------------------------------------------------------------------- #
# instrumentation end to end
# ---------------------------------------------------------------------- #
class TestEndToEnd:
    @pytest.fixture()
    def config(self):
        return ALSConfig(f=6, iterations=2, lam=0.06, seed=3)

    def test_execute_graph_adopts_spans_with_clock_offset(self):
        machine = MultiGPUMachine(n_gpus=2)
        g = TaskGraph()
        h2d = g.new_task("h2d", "transfer", transfer=machine.h2d(0, 1e6))
        moved = g.new_object(1e6, producer=h2d)
        g.new_task("k", "kernel", profile=small_profile(), pin=0, inputs=[moved])
        with obs.observed() as (reg, tracer):
            machine.clock.advance(5.0, label="warmup")
            execute_graph(g, machine, scheduler="eager")
            kinds = {s.category for s in tracer.spans}
            assert {"kernel", "transfer"} <= kinds
            # event-mode traces start at zero; the adopted spans must not
            assert min(s.start for s in tracer.spans) >= 5.0
            assert reg.value("schedule.graphs", scheduler="eager") == 1.0
            assert reg.value("schedule.tasks", scheduler="eager") == 2.0

    def test_fit_and_serve_share_one_timeline(self, tiny_ratings, config):
        with obs.observed() as (reg, tracer):
            model = CuMF(config, backend="su", n_gpus=2, scheduler="eager")
            model.fit(tiny_ratings.train)
            service = model.serve(ServingConfig(replicas=2, ratings=tiny_ratings.train))
            response = service.recommend(1, k=5)
            assert response.ok
            trace = QueryTrace.poisson(n_requests=60, rate_qps=300, n_users=100, seed=5)
            service.simulate(trace)

            # acceptance: scheduler kernel/transfer spans AND serving
            # request spans in one exported chrome document
            doc = tracer.to_chrome()
            cats = {e.get("cat") for e in doc["traceEvents"]}
            assert {"kernel", "transfer", "request"} <= cats
            json.loads(json.dumps(doc))

            assert reg.value("train.iterations", solver="su-als") == 2.0
            assert reg.value("serve.requests", kind="recommend", status="ok", tenant="default") == 1.0
            hist = reg.get("serve.latency_s", tenant="default")
            assert hist is not None and hist.count > 0
            text = obs.to_prometheus(reg)
            assert 'serve_latency_s{tenant="default",quantile="0.95"}' in text

    def test_tenant_replay_fills_per_tenant_histograms(self, tiny_ratings, config):
        with obs.observed() as (reg, _):
            model = CuMF(config, backend="mo", n_gpus=1)
            model.fit(tiny_ratings.train)
            service = model.serve(
                ServingConfig(
                    replicas=2,
                    ratings=tiny_ratings.train,
                    tenants=[TenantPolicy("free", weight=1.0), TenantPolicy("pro", weight=2.0)],
                )
            )
            trace = QueryTrace.multi_tenant(
                {"free": 150.0, "pro": 150.0}, duration_s=0.4, n_users=100, seed=6
            )
            report = service.simulate(trace)
            assert report.n_requests > 0
            text = obs.to_prometheus(reg)
            assert 'serve_latency_s{tenant="free",quantile="0.95"}' in text
            assert 'serve_latency_s{tenant="pro",quantile="0.95"}' in text

    def test_cluster_drain_restore_marks_lifecycle(self, tiny_ratings, config):
        model = CuMF(config, backend="mo", n_gpus=1)
        model.fit(tiny_ratings.train)
        with obs.observed() as (reg, tracer):
            service = model.serve(ServingConfig(replicas=2, ratings=tiny_ratings.train))
            service.drain(1)
            service.restore(1)
            assert reg.value("serve.lifecycle", action="drain") == 1.0
            assert reg.value("serve.lifecycle", action="restore") == 1.0
            marks = tracer.spans_for("serve", "lifecycle")
            assert [s.phase for s in marks] == ["i", "i"]

    def test_shed_and_error_only_tick_counters(self, tiny_ratings, config):
        model = CuMF(config, backend="mo", n_gpus=1)
        model.fit(tiny_ratings.train)
        with obs.observed() as (reg, tracer):
            service = model.serve(ServingConfig(ratings=tiny_ratings.train))
            bad = service.recommend(10**9, k=5)
            assert bad.status == "error"
            assert reg.value("serve.requests", kind="recommend", status="error", tenant="default") == 1.0
            assert len(tracer.spans_for("serve", "request")) == 0

    def test_disabled_observability_is_invisible(self, tiny_ratings, config):
        """Zero-cost pin: factors and report aggregates are byte-identical."""
        assert not obs.enabled()
        baseline = CuMF(config, backend="su", n_gpus=2, scheduler="eager")
        base_result = baseline.fit(tiny_ratings.train)
        with obs.observed():
            observed_model = CuMF(config, backend="su", n_gpus=2, scheduler="eager")
            obs_result = observed_model.fit(tiny_ratings.train)
        assert np.array_equal(base_result.x, obs_result.x)
        assert np.array_equal(base_result.theta, obs_result.theta)

        def replay(model):
            service = model.serve(ServingConfig(replicas=2, ratings=tiny_ratings.train))
            trace = QueryTrace.poisson(n_requests=80, rate_qps=400, n_users=100, seed=9)
            return service.simulate(trace)

        plain = replay(baseline)
        with obs.observed():
            watched = replay(baseline)
        assert plain.latency_p50_s == watched.latency_p50_s
        assert plain.latency_p95_s == watched.latency_p95_s
        assert plain.makespan_s == watched.makespan_s
        assert plain.per_replica_queries == watched.per_replica_queries
