"""Tests for the unified observability layer (metrics + tracing + export)."""

import threading

import pytest

from repro.core.observability import (
    CACHE_SCHEMA_KEYS,
    FakeClock,
    MetricsRegistry,
    NULL_OBS,
    NoopObservability,
    Observability,
    SystemClock,
    Tracer,
    cache_stats_dict,
    load_jsonl,
    percentile,
    resolve_obs,
)
from repro.kg.datasets import movie_kg
from repro.llm import CachingLLM, load_model
from repro.llm.faults import FaultInjectingLLM, FaultProfile


class TestClocks:
    def test_fake_clock_is_deterministic(self):
        a, b = FakeClock(), FakeClock()
        assert [a.now() for _ in range(3)] == [b.now() for _ in range(3)]

    def test_fake_clock_strictly_increases(self):
        clock = FakeClock(start=5.0, tick=0.5)
        first, second = clock.now(), clock.now()
        assert second > first > 5.0

    def test_fake_clock_advance(self):
        clock = FakeClock(tick=0.001)
        clock.advance(10.0)
        assert clock.now() == pytest.approx(10.001)

    def test_fake_clock_rejects_negative_advance(self):
        with pytest.raises(ValueError):
            FakeClock().advance(-1.0)

    def test_system_clock_monotone(self):
        clock = SystemClock()
        assert clock.now() <= clock.now()


class TestCacheSchema:
    def test_canonical_keys(self):
        stats = cache_stats_dict(hits=3, misses=1, evictions=2,
                                 invalidations=1, size=7, max_size=10)
        assert tuple(stats) == CACHE_SCHEMA_KEYS
        assert stats["hits"] == 3 and stats["evictions"] == 2
        assert stats["hit_rate"] == pytest.approx(0.75)

    def test_zero_lookups_zero_hit_rate(self):
        assert cache_stats_dict(hits=0, misses=0)["hit_rate"] == 0.0

    def test_compares_as_plain_dict(self):
        stats = cache_stats_dict(hits=1, misses=1)
        assert stats == {"hits": 1, "misses": 1, "evictions": 0,
                         "invalidations": 0, "size": 0, "max_size": 0,
                         "hit_rate": 0.5}

    def test_unknown_key_still_raises(self):
        stats = cache_stats_dict(hits=1, misses=0)
        with pytest.raises(KeyError):
            stats["nope"]
        assert stats.get("nope", "dflt") == "dflt"


class TestMetricsRegistry:
    def test_labeled_counters(self):
        registry = MetricsRegistry()
        registry.inc("faults", kind="timeout")
        registry.inc("faults", kind="timeout")
        registry.inc("faults", 3, kind="rate_limit")
        assert registry.counter_value("faults", kind="timeout") == 2
        assert registry.counter_value("faults", kind="rate_limit") == 3
        assert registry.counter_value("faults", kind="never") == 0
        assert registry.counter_total("faults") == 5

    def test_gauge_latest_wins(self):
        registry = MetricsRegistry()
        registry.gauge("communities", 4)
        registry.gauge("communities", 7)
        snapshot = registry.snapshot()
        assert snapshot["gauges"] == [
            {"name": "communities", "labels": {}, "value": 7}]

    def test_histogram_stats(self):
        registry = MetricsRegistry()
        for value in (2.0, 8.0, 5.0):
            registry.observe("latency", value, stage="map")
        stats = registry.histogram_stats("latency", stage="map")
        assert stats == {"count": 3, "sum": 15.0, "min": 2.0, "max": 8.0}
        assert registry.histogram_stats("latency", stage="x")["count"] == 0

    def test_source_pulled_at_snapshot_time(self):
        registry = MetricsRegistry()
        state = {"hits": 0}
        registry.register_source("cache", lambda: state)
        state["hits"] = 42  # mutate after registration
        assert registry.snapshot()["sources"]["cache"] == {"hits": 42}

    def test_source_rebind_replaces(self):
        registry = MetricsRegistry()
        registry.register_source("s", lambda: {"v": 1})
        registry.register_source("s", lambda: {"v": 2})
        assert registry.snapshot()["sources"]["s"] == {"v": 2}

    def test_failing_source_reported_not_raised(self):
        registry = MetricsRegistry()

        def dead():
            raise RuntimeError("boom")

        registry.register_source("dead", dead)
        pulled = registry.snapshot()["sources"]["dead"]
        assert "boom" in pulled["error"]

    def test_source_filters_non_scalars(self):
        registry = MetricsRegistry()
        registry.register_source(
            "s", lambda: {"n": 1, "name": "x", "blob": [1, 2]})
        assert registry.snapshot()["sources"]["s"] == {"n": 1, "name": "x"}

    def test_thread_safe_counters(self):
        registry = MetricsRegistry()

        def work():
            for _ in range(1000):
                registry.inc("n")

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.counter_value("n") == 4000

    def test_histogram_quantiles_from_samples(self):
        registry = MetricsRegistry()
        for value in range(1, 101):  # 1..100
            registry.observe("latency", float(value), stage="map")
        quantiles = registry.histogram_quantiles(
            "latency", (0.0, 50.0, 99.0, 100.0), stage="map")
        assert quantiles["p0"] == 1.0
        assert quantiles["p50"] == 50.5
        assert quantiles["p99"] == pytest.approx(99.01)
        assert quantiles["p100"] == 100.0

    def test_histogram_quantiles_empty_series_is_zero(self):
        registry = MetricsRegistry()
        assert registry.histogram_quantiles("never") == \
            {"p50": 0.0, "p99": 0.0}

    def test_histogram_samples_bounded(self):
        registry = MetricsRegistry()
        registry.MAX_SAMPLES = 10  # shrink the retention bound for the test
        for value in range(100):
            registry.observe("latency", float(value))
        # Aggregates see every observation; samples keep only the bound.
        assert registry.histogram_stats("latency")["count"] == 100
        assert registry.histogram_quantiles("latency",
                                            (100.0,))["p100"] == 9.0

    def test_histogram_samples_never_exported(self):
        registry = MetricsRegistry()
        registry.observe("latency", 1.0)
        snapshot = registry.snapshot()
        for row in snapshot["histograms"]:
            assert set(row) == {"name", "labels", "count", "sum",
                                "min", "max"}


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 50.0) == 0.0

    def test_single_value(self):
        assert percentile([7.0], 99.0) == 7.0

    def test_linear_interpolation(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
        assert percentile([4.0, 1.0, 3.0, 2.0], 100.0) == 4.0
        assert percentile([4.0, 1.0, 3.0, 2.0], 0.0) == 1.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)
        with pytest.raises(ValueError):
            percentile([1.0], -1.0)


class TestTracer:
    def test_nesting_follows_with_blocks(self):
        tracer = Tracer(FakeClock())
        with tracer.span("run") as run:
            with tracer.span("stage") as stage:
                assert tracer.current() is stage
            assert tracer.current() is run
        assert tracer.current() is None
        run_span, stage_span = tracer.spans()
        assert stage_span.parent_id == run_span.span_id
        assert run_span.parent_id is None

    def test_elapsed_on_fake_clock(self):
        clock = FakeClock(tick=1.0)
        tracer = Tracer(clock)
        span = tracer.start("op")
        assert span.elapsed == 0.0  # still open
        tracer.end(span)
        assert span.elapsed == pytest.approx(1.0)

    def test_end_is_idempotent(self):
        tracer = Tracer(FakeClock())
        span = tracer.start("op")
        tracer.end(span)
        first_end = span.end
        tracer.end(span)
        assert span.end == first_end
        tracer.end(None)  # accepted for no-op flows

    def test_explicit_parent_across_threads(self):
        tracer = Tracer(FakeClock())
        parent = tracer.start("fanout")
        child_ids = []

        def worker():
            span = tracer.start("item", parent=parent)
            tracer.end(span)
            child_ids.append(span.parent_id)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        tracer.end(parent)
        assert child_ids == [parent.span_id]

    def test_exception_recorded_on_span(self):
        tracer = Tracer(FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("op"):
                raise RuntimeError("boom")
        (span,) = tracer.spans()
        assert span.end is not None and "boom" in span.attributes["error"]

    def test_tree_shape_independent_of_start_order(self):
        """Children sort by (name, attrs), so two runs that started the
        same children in different orders produce the same tree."""

        def run(order):
            tracer = Tracer(FakeClock())
            root = tracer.start("root")
            for name in order:
                tracer.end(tracer.start(name, parent=root))
            tracer.end(root)
            return strip_elapsed(tracer.tree())

        assert run(["b", "a", "c"]) == run(["a", "c", "b"])


def strip_elapsed(tree):
    """Drop timing from a span tree, keeping its shape and attributes."""
    return [{"name": n["name"], "attributes": n["attributes"],
             "children": strip_elapsed(n["children"])} for n in tree]


class TestObservabilityFacade:
    def test_worker_labels(self):
        obs = Observability(FakeClock())
        assert obs.worker_label() == "main"
        labels = []
        thread = threading.Thread(target=lambda: labels.append(obs.worker_label()))
        thread.start()
        thread.join()
        assert labels == ["w0"]
        assert obs.worker_label() == "main"  # stable on re-read

    def test_export_round_trip(self, tmp_path):
        obs = Observability(FakeClock())
        with obs.span("run", dataset="movie"):
            obs.count("calls", kind="map")
            obs.gauge("communities", 3)
            obs.observe("latency", 1.5, stage="map")
        obs.register_source("cache", lambda: {"hits": 9})
        path = str(tmp_path / "obs.jsonl")
        written = obs.export_jsonl(path)
        records = load_jsonl(path)
        assert len(records) == written
        assert records[0] == {"type": "meta", "version": 1}
        by_type = {}
        for record in records:
            by_type.setdefault(record["type"], []).append(record)
        (span,) = by_type["span"]
        assert span["name"] == "run" and span["attributes"] == {"dataset": "movie"}
        assert by_type["counter"][0]["value"] == 1
        assert by_type["gauge"][0]["value"] == 3
        assert by_type["histogram"][0]["count"] == 1
        assert {(r["source"], r["key"], r["value"])
                for r in by_type["source"]} == {("cache", "hits", 9)}

    def test_bind_llm_walks_wrapper_chain(self):
        ds = movie_kg(seed=0)
        base = load_model("chatgpt", world=ds.kg, seed=0)
        llm = FaultInjectingLLM(CachingLLM(base),
                                FaultProfile.uniform(0.0, seed=0))
        obs = Observability(FakeClock())
        obs.bind_llm(llm)
        llm.complete("Who directed movie_0?")
        sources = obs.metrics.snapshot()["sources"]
        assert sources["llm.faults"]["calls"] == 1
        assert sources["llm.faults"]["injected"] == 0
        assert sources["llm.cache"]["misses"] == 1
        assert sources["llm.model"]["calls"] == 1
        # Push-side instrumentation landed on every layer.
        assert base.obs is obs and llm.obs is obs

    def test_bind_llm_records_batch_sizes(self):
        ds = movie_kg(seed=0)
        llm = load_model("chatgpt", world=ds.kg, seed=0)
        obs = Observability(FakeClock())
        obs.bind_llm(llm)
        llm.complete_batch(["a?", "b?", "c?"])
        stats = obs.metrics.histogram_stats("llm.batch_size")
        assert stats["count"] == 1 and stats["max"] == 3

    def test_fault_kinds_counted(self):
        ds = movie_kg(seed=0)
        llm = FaultInjectingLLM(load_model("chatgpt", world=ds.kg, seed=0),
                                FaultProfile.uniform(0.8, seed=1))
        obs = Observability(FakeClock())
        obs.bind_llm(llm)
        for i in range(30):
            try:
                llm.complete(f"q{i}?")
            except Exception:
                pass
        injected = obs.metrics.snapshot()["sources"]["llm.faults"]["injected"]
        assert injected > 0
        assert obs.metrics.counter_total("llm.faults") == injected

    def test_bind_kg(self):
        ds = movie_kg(seed=0)
        obs = Observability(FakeClock())
        obs.bind_kg(ds.kg)
        term = next(iter(ds.kg.store.match(None, None, None))).subject
        ds.kg.label(term)
        sources = obs.metrics.snapshot()["sources"]
        assert sources["kg.cache"]["misses"] >= 1
        assert sources["kg.store"]["triples"] > 0


class TestNoopAndResolve:
    def test_resolve_none_and_false_share_null(self):
        assert resolve_obs(None) is NULL_OBS
        assert resolve_obs(False) is NULL_OBS

    def test_resolve_true_makes_fresh_recorder(self):
        obs = resolve_obs(True)
        assert isinstance(obs, Observability)
        assert resolve_obs(True) is not obs

    def test_resolve_passthrough(self):
        obs = Observability(FakeClock())
        assert resolve_obs(obs) is obs
        assert resolve_obs(NULL_OBS) is NULL_OBS

    def test_null_obs_is_inert(self):
        assert NULL_OBS.enabled is False
        with NULL_OBS.span("anything", attr=1) as span:
            assert span is None
        NULL_OBS.count("n")
        NULL_OBS.gauge("g", 1)
        NULL_OBS.observe("h", 1.0)
        NULL_OBS.register_source("s", lambda: {})
        NULL_OBS.end_span(NULL_OBS.start_span("x"))
        assert NULL_OBS.worker_label() == "main"

    def test_null_obs_clock_is_real(self):
        # Untraced pipelines keep wall-clock stage timings.
        assert isinstance(NULL_OBS.clock, SystemClock)

    def test_noop_bindings_accept_anything(self):
        noop = NoopObservability()
        noop.bind_llm(object())
        noop.bind_kg(object())
        noop.bind_cache("c", object())
        noop.bind_index("i", object())
