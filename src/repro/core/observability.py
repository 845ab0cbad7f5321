"""Unified observability: a metrics registry, a tracer, and a no-op default.

Until this layer existed, the repo's runtime telemetry was scattered:
three incompatible ``cache_stats()`` shapes (the LLM cache, the hash
embedder, the KG read caches), ad-hoc ``fault_log``/``stats()`` counters on
the LLM stack, and wall-clock tuples inside ``Pipeline.execute``. The
EmpiRE-Compass dashboard line of work (PAPERS.md) argues LLM ⟷ KG systems
need *inspectable* runtime telemetry; this module supplies the substrate:

* :class:`MetricsRegistry` — labeled counters, gauges and histograms plus
  pull-based **sources** (a source is any zero-arg callable returning a
  mapping, e.g. an existing ``cache_stats``/``stats`` surface), so legacy
  counter surfaces flow through one registry without double bookkeeping;
* :class:`Tracer` — nested spans (pipeline → stage → LLM call → retry
  attempt) over an **injectable clock**. With :class:`FakeClock` a traced
  run is fully deterministic and byte-identical across processes, which is
  what makes traces testable and diffable;
* :class:`Observability` — the facade components accept via their ``obs=``
  knob, with JSONL export (spans + metrics in one file) consumed by the
  ``repro obs report`` CLI;
* :data:`NULL_OBS` — the zero-overhead no-op recorder every knob defaults
  to: disabled paths cost one attribute check (``obs.enabled``) or one
  no-op method call, never an allocation.

Cache-stats schema
------------------
:func:`cache_stats_dict` is the one canonical shape for every cache
surface: integer ``hits``/``misses``/``evictions``/``invalidations``/
``size``/``max_size`` plus float ``hit_rate``.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Tuple)

__all__ = [
    "CACHE_SCHEMA_KEYS", "Clock", "FakeClock",
    "MetricsRegistry", "NULL_OBS", "NoopObservability", "Observability",
    "Span", "SystemClock", "Tracer", "cache_stats_dict", "load_jsonl",
    "percentile", "resolve_obs",
]


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0–100) by linear interpolation.

    Deterministic and dependency-free — the serving layer's p50/p99
    summaries must be byte-identical across runs and machines, so no
    estimator with platform-dependent behaviour is acceptable. Returns
    0.0 for an empty input (a latency summary over zero requests).
    """
    data = sorted(values)
    if not data:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q!r}")
    if len(data) == 1:
        return data[0]
    rank = (q / 100.0) * (len(data) - 1)
    lower = int(rank)
    upper = min(lower + 1, len(data) - 1)
    fraction = rank - lower
    return data[lower] + (data[upper] - data[lower]) * fraction


# ---------------------------------------------------------------------------
# Clocks
# ---------------------------------------------------------------------------

class Clock:
    """Anything with a monotonic ``now() -> float`` (seconds)."""

    def now(self) -> float:  # pragma: no cover - interface
        """Current time in seconds (monotonic)."""
        raise NotImplementedError


class SystemClock(Clock):
    """The process monotonic clock (``time.perf_counter``)."""

    def now(self) -> float:
        """Read the monotonic wall clock."""
        return time.perf_counter()


class FakeClock(Clock):
    """A deterministic clock for byte-identical traced runs.

    Every ``now()`` reading advances time by ``tick`` (so consecutive
    readings are strictly increasing, like a real clock, but with values
    that are a pure function of the call count); ``advance`` models
    explicit simulated latency. Thread-safe: concurrent readers each get a
    distinct tick, so span durations stay positive whatever the
    interleaving — only the *assignment* of ticks to threads is
    scheduling-dependent, which is why determinism suites assert span
    *structure* under parallelism and exact timings only for sequential
    runs.
    """

    def __init__(self, start: float = 0.0, tick: float = 0.001):
        self._now = start
        self.tick = tick
        self._lock = threading.Lock()

    def now(self) -> float:
        """Read the clock (consumes one tick)."""
        with self._lock:
            self._now += self.tick
            return self._now

    def advance(self, seconds: float) -> None:
        """Move the clock forward without consuming a tick."""
        if seconds < 0:
            raise ValueError("cannot advance a clock backwards")
        with self._lock:
            self._now += seconds


# ---------------------------------------------------------------------------
# Canonical cache-stats schema
# ---------------------------------------------------------------------------

#: The one schema every ``cache_stats()`` surface returns.
CACHE_SCHEMA_KEYS = ("hits", "misses", "evictions", "invalidations",
                     "size", "max_size", "hit_rate")


def cache_stats_dict(*, hits: int, misses: int, evictions: int = 0,
                     invalidations: int = 0, size: int = 0,
                     max_size: int = 0) -> Dict[str, float]:
    """Build a canonical cache-stats mapping (int counts, float hit rate).

    ``max_size=0`` means "unbounded".
    """
    lookups = hits + misses
    return {
        "hits": int(hits),
        "misses": int(misses),
        "evictions": int(evictions),
        "invalidations": int(invalidations),
        "size": int(size),
        "max_size": int(max_size),
        "hit_rate": hits / lookups if lookups else 0.0,
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

_LabelKey = Tuple[Tuple[str, Any], ...]


def _label_key(labels: Mapping[str, Any]) -> _LabelKey:
    return tuple(sorted(labels.items()))


class MetricsRegistry:
    """Thread-safe labeled counters, gauges, histograms and pull sources.

    Each series is identified by ``(name, sorted labels)``. Histograms keep
    count/sum/min/max — enough for latency summaries without binning
    decisions. **Sources** are zero-arg callables returning mappings; they
    are pulled lazily at :meth:`snapshot` time, which is how the legacy
    ``cache_stats()``/``stats()`` surfaces flow through the registry
    without every cache pushing on its own hot path.
    """

    #: Per-series bound on retained raw observations (see :meth:`observe`).
    MAX_SAMPLES = 65536

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, _LabelKey], float] = {}
        self._gauges: Dict[Tuple[str, _LabelKey], float] = {}
        self._histograms: Dict[Tuple[str, _LabelKey], Dict[str, float]] = {}
        self._samples: Dict[Tuple[str, _LabelKey], List[float]] = {}
        self._sources: Dict[str, Callable[[], Mapping[str, Any]]] = {}

    # -- write paths ---------------------------------------------------
    def inc(self, name: str, value: float = 1, **labels: Any) -> None:
        """Add ``value`` to a (labeled) counter."""
        key = (name, _label_key(labels))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set a (labeled) gauge to its latest value."""
        with self._lock:
            self._gauges[(name, _label_key(labels))] = value

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record one observation into a (labeled) histogram.

        Besides the count/sum/min/max summary, the first
        :data:`MAX_SAMPLES` raw observations per series are retained so
        :meth:`histogram_quantiles` can answer p50/p99 exactly — the
        latency summaries the serving layer gates on. The bound keeps a
        runaway series from growing without limit; once it is hit, the
        summary keeps updating but quantiles reflect the retained prefix.
        Samples never appear in :meth:`snapshot` (exports stay compact).
        """
        key = (name, _label_key(labels))
        with self._lock:
            series = self._histograms.get(key)
            if series is None:
                self._histograms[key] = {"count": 1, "sum": value,
                                         "min": value, "max": value}
                self._samples[key] = [value]
            else:
                series["count"] += 1
                series["sum"] += value
                series["min"] = min(series["min"], value)
                series["max"] = max(series["max"], value)
                samples = self._samples[key]
                if len(samples) < self.MAX_SAMPLES:
                    samples.append(value)

    def register_source(self, name: str,
                        source: Callable[[], Mapping[str, Any]]) -> None:
        """Register a pull source (e.g. a ``cache_stats`` bound method).

        Re-registering a name replaces the source — rebinding a component
        is idempotent.
        """
        with self._lock:
            self._sources[name] = source

    # -- read paths ----------------------------------------------------
    def counter_value(self, name: str, **labels: Any) -> float:
        """Current value of one counter series (0 when never incremented)."""
        with self._lock:
            return self._counters.get((name, _label_key(labels)), 0)

    def counter_total(self, name: str) -> float:
        """Sum of a counter across all of its label series."""
        with self._lock:
            return sum(v for (n, _), v in self._counters.items() if n == name)

    def histogram_stats(self, name: str, **labels: Any) -> Dict[str, float]:
        """count/sum/min/max of one histogram series (zeros when empty)."""
        with self._lock:
            series = self._histograms.get((name, _label_key(labels)))
            return dict(series) if series else {"count": 0, "sum": 0.0,
                                                "min": 0.0, "max": 0.0}

    def histogram_quantiles(self, name: str,
                            quantiles: Iterable[float] = (50.0, 99.0),
                            **labels: Any) -> Dict[str, float]:
        """Exact percentiles over one series' retained samples.

        Returns ``{"p50": ..., "p99": ...}``-style keys (``p99.9`` for
        fractional quantiles); zeros when the series is empty.
        """
        with self._lock:
            samples = list(self._samples.get((name, _label_key(labels)), ()))
        out: Dict[str, float] = {}
        for q in quantiles:
            key = f"p{q:g}"
            out[key] = percentile(samples, q)
        return out

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-able snapshot: all series plus freshly pulled sources."""
        with self._lock:
            counters = [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in sorted(
                    self._counters.items(), key=lambda kv: repr(kv[0]))]
            gauges = [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in sorted(
                    self._gauges.items(), key=lambda kv: repr(kv[0]))]
            histograms = [
                {"name": name, "labels": dict(labels), **series}
                for (name, labels), series in sorted(
                    self._histograms.items(), key=lambda kv: repr(kv[0]))]
            sources = list(self._sources.items())
        pulled: Dict[str, Dict[str, Any]] = {}
        for name, source in sources:  # pulled outside the lock: sources
            try:                      # may take their own locks
                pulled[name] = {k: v for k, v in dict(source()).items()
                                if isinstance(v, (int, float, str, bool))}
            except Exception as exc:  # a dead source must not kill a report
                pulled[name] = {"error": repr(exc)}
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms, "sources": pulled}


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Span:
    """One timed operation, possibly nested under a parent span."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: Optional[float] = None
    attributes: Dict[str, Any] = field(default_factory=dict)

    @property
    def elapsed(self) -> float:
        """Span duration (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0


class _SpanHandle:
    """Context-manager wrapper so ``with tracer.span(...) as span:`` works."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None:
            self.span.attributes.setdefault("error", repr(exc))
        self._tracer.end(self.span)
        return False


class Tracer:
    """Nested spans over an injectable clock.

    Spans open on the current thread nest under that thread's innermost
    open span; fan-out code records the coordinator's span before
    dispatching and passes it as the explicit ``parent`` so worker-thread
    spans attach to the right subtree. Span ids are a shared counter, so
    sequential runs number spans deterministically.
    """

    def __init__(self, clock: Optional[Clock] = None):
        self.clock = clock or SystemClock()
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._next_id = 1
        self._local = threading.local()

    # -- span lifecycle ------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def start(self, name: str, parent: Optional[Span] = None,
              **attributes: Any) -> Span:
        """Open a span (nested under ``parent`` or this thread's current)."""
        if parent is None:
            parent = self.current()
        with self._lock:
            span = Span(span_id=self._next_id,
                        parent_id=parent.span_id if parent else None,
                        name=name, start=self.clock.now(),
                        attributes=dict(attributes))
            self._next_id += 1
            self._spans.append(span)
        self._stack().append(span)
        return span

    def end(self, span: Optional[Span], **attributes: Any) -> None:
        """Close a span (idempotent; ``None`` is accepted for no-op flows)."""
        if span is None or span.end is not None:
            return
        span.attributes.update(attributes)
        span.end = self.clock.now()
        stack = self._stack()
        for i, open_span in enumerate(stack):
            if open_span is span:
                del stack[i:]
                break

    def span(self, name: str, parent: Optional[Span] = None,
             **attributes: Any) -> _SpanHandle:
        """``with tracer.span("stage:x") as span:`` convenience."""
        return _SpanHandle(self, self.start(name, parent=parent, **attributes))

    # -- read paths ----------------------------------------------------
    def spans(self) -> List[Span]:
        """All spans recorded so far (open ones included), in start order."""
        with self._lock:
            return list(self._spans)

    def tree(self) -> List[Dict[str, Any]]:
        """The nested span forest as JSON-able dicts.

        Children are sorted by ``(name, attributes)`` — not by timestamp or
        id — so the *shape* of a traced parallel run is stable across
        scheduling interleavings.
        """
        spans = self.spans()
        children: Dict[Optional[int], List[Span]] = {}
        for span in spans:
            children.setdefault(span.parent_id, []).append(span)

        def build(span: Span) -> Dict[str, Any]:
            kids = sorted(children.get(span.span_id, []),
                          key=lambda s: (s.name, repr(sorted(
                              s.attributes.items())), s.span_id))
            return {"name": span.name, "attributes": dict(span.attributes),
                    "elapsed": span.elapsed,
                    "children": [build(k) for k in kids]}

        roots = sorted(children.get(None, []),
                       key=lambda s: (s.start, s.span_id))
        return [build(root) for root in roots]


# ---------------------------------------------------------------------------
# The facade
# ---------------------------------------------------------------------------

class Observability:
    """Metrics + tracing behind one handle — the live ``obs=`` object.

    One instance is shared by every component of a run: pipelines open
    spans on its tracer, executors record queue/run timings into its
    registry, and the legacy counter surfaces (``cache_stats``/``stats``/
    fault logs) are *bound* as pull sources so a single
    :meth:`export_jsonl` captures the whole system's state.
    """

    enabled = True

    def __init__(self, clock: Optional[Clock] = None):
        self.clock = clock or SystemClock()
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(self.clock)
        self._worker_lock = threading.Lock()
        self._worker_ids: Dict[int, str] = {}

    # -- recording shortcuts -------------------------------------------
    def span(self, name: str, parent: Optional[Span] = None,
             **attributes: Any) -> _SpanHandle:
        """Open a span as a context manager (see :meth:`Tracer.span`)."""
        return self.tracer.span(name, parent=parent, **attributes)

    def start_span(self, name: str, parent: Optional[Span] = None,
                   **attributes: Any) -> Span:
        """Open a span explicitly (see :meth:`Tracer.start`)."""
        return self.tracer.start(name, parent=parent, **attributes)

    def end_span(self, span: Optional[Span], **attributes: Any) -> None:
        """Close a span opened with :meth:`start_span`."""
        self.tracer.end(span, **attributes)

    def count(self, name: str, value: float = 1, **labels: Any) -> None:
        """Increment a labeled counter."""
        self.metrics.inc(name, value, **labels)

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set a labeled gauge."""
        self.metrics.gauge(name, value, **labels)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record one observation into a labeled histogram."""
        self.metrics.observe(name, value, **labels)

    def register_source(self, name: str,
                        source: Callable[[], Mapping[str, Any]]) -> None:
        """Register a pull source (see :meth:`MetricsRegistry.register_source`)."""
        self.metrics.register_source(name, source)

    def worker_label(self) -> str:
        """A stable small label for the calling thread (``main``/``w0``…).

        Labels are assigned in first-use order per facade, so utilization
        series stay readable however the pool names its threads.
        """
        ident = threading.get_ident()
        with self._worker_lock:
            label = self._worker_ids.get(ident)
            if label is None:
                if threading.current_thread() is threading.main_thread():
                    label = "main"
                else:
                    label = f"w{sum(1 for v in self._worker_ids.values() if v != 'main')}"
                self._worker_ids[ident] = label
            return label

    # -- binding legacy surfaces ---------------------------------------
    def bind_llm(self, llm: Any, name: str = "llm") -> None:
        """Register every layer of an LLM wrapper chain as pull sources.

        Walks ``.inner`` links: caching layers contribute a
        ``{name}.cache`` source, fault injectors a ``{name}.faults``
        source, and the base simulated model a ``{name}.model`` source.
        Each layer also gets ``layer.obs = self`` so its push-side
        instrumentation (batch sizes, fault kinds) lands here. Idempotent.
        """
        layer, depth = llm, 0
        while layer is not None and depth < 8:
            fields = vars(layer) if hasattr(layer, "__dict__") else {}
            if "fault_log" in fields:
                self.register_source(
                    f"{name}.faults",
                    lambda lyr=layer: {
                        "calls": lyr.fault_calls,
                        "injected": lyr.faults_injected})
            elif "_cache" in fields and hasattr(type(layer), "cache_stats"):
                self.register_source(f"{name}.cache", layer.cache_stats)
            if "memory" in fields and hasattr(type(layer), "usage"):
                self.register_source(
                    f"{name}.model",
                    lambda lyr=layer: {**lyr.usage,
                                       "batch_dedup_hits": lyr.batch_dedup_hits})
            try:
                layer.obs = self
            except AttributeError:  # pragma: no cover - frozen wrappers
                pass
            layer = fields.get("inner")
            depth += 1

    def bind_kg(self, kg: Any, name: str = "kg") -> None:
        """Register a knowledge graph's caches and store as pull sources."""
        self.register_source(f"{name}.cache", kg.cache_stats)
        self.register_source(f"{name}.store", kg.stats)

    def bind_cache(self, name: str, cache: Any) -> None:
        """Register any object with a ``cache_stats()`` surface."""
        self.register_source(name, cache.cache_stats)

    def bind_index(self, name: str, index: Any) -> None:
        """Register a vector index's ``stats()`` surface."""
        self.register_source(name, index.stats)

    # -- export ---------------------------------------------------------
    def export_records(self) -> List[Dict[str, Any]]:
        """The run's spans + metrics as a flat list of JSON-able records."""
        records: List[Dict[str, Any]] = [{"type": "meta", "version": 1}]
        for span in self.tracer.spans():
            records.append({
                "type": "span", "span_id": span.span_id,
                "parent_id": span.parent_id, "name": span.name,
                "start": span.start, "end": span.end,
                "elapsed": span.elapsed, "attributes": span.attributes,
            })
        snapshot = self.metrics.snapshot()
        for counter in snapshot["counters"]:
            records.append({"type": "counter", **counter})
        for gauge in snapshot["gauges"]:
            records.append({"type": "gauge", **gauge})
        for histogram in snapshot["histograms"]:
            records.append({"type": "histogram", **histogram})
        for source, values in snapshot["sources"].items():
            for key, value in values.items():
                records.append({"type": "source", "source": source,
                                "key": key, "value": value})
        return records

    def export_jsonl(self, path: str) -> int:
        """Write the full run record to ``path`` (one JSON object per
        line); returns the number of records written."""
        records = self.export_records()
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True,
                                        default=repr) + "\n")
        return len(records)


def load_jsonl(path: str) -> List[Dict[str, Any]]:
    """Read a JSONL export back into records (blank lines skipped).

    A line that is not valid JSON — the usual symptom of a truncated or
    torn export — raises :class:`ValueError` naming the file and line
    number, so CLI consumers can degrade with a clear message instead of
    a bare traceback.
    """
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: invalid JSONL record "
                    f"(truncated or corrupt trace?): {exc}") from exc
    return records


# ---------------------------------------------------------------------------
# The zero-overhead default
# ---------------------------------------------------------------------------

class _NoopSpanHandle:
    """A reusable do-nothing span context manager."""

    __slots__ = ()
    span = None

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_SPAN = _NoopSpanHandle()


class NoopObservability:
    """The disabled recorder: every recording call is a cheap no-op.

    ``obs.enabled`` is the hot-path guard — instrumented loops check it
    once and skip per-item bookkeeping entirely. The clock is still the
    real system clock so un-traced pipelines keep their wall-clock stage
    timings (pre-observability behaviour, byte-identical reports).
    """

    enabled = False
    metrics = None
    tracer = None

    def __init__(self) -> None:
        self.clock = SystemClock()

    def span(self, name: str, parent: Optional[Span] = None,
             **attributes: Any) -> _NoopSpanHandle:
        """No-op: returns the shared do-nothing context manager."""
        return _NOOP_SPAN

    def start_span(self, name: str, parent: Optional[Span] = None,
                   **attributes: Any) -> None:
        """No-op: returns ``None`` (accepted by :meth:`end_span`)."""
        return None

    def end_span(self, span: Optional[Span], **attributes: Any) -> None:
        """No-op."""
        return None

    def count(self, name: str, value: float = 1, **labels: Any) -> None:
        """No-op."""
        return None

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        """No-op."""
        return None

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """No-op."""
        return None

    def register_source(self, name: str, source: Any) -> None:
        """No-op."""
        return None

    def worker_label(self) -> str:
        """Always ``"main"`` — no worker bookkeeping when disabled."""
        return "main"

    def bind_llm(self, llm: Any, name: str = "llm") -> None:
        """No-op."""
        return None

    def bind_kg(self, kg: Any, name: str = "kg") -> None:
        """No-op."""
        return None

    def bind_cache(self, name: str, cache: Any) -> None:
        """No-op."""
        return None

    def bind_index(self, name: str, index: Any) -> None:
        """No-op."""
        return None


#: The shared disabled recorder every ``obs=`` knob defaults to.
NULL_OBS = NoopObservability()


def resolve_obs(obs: Any) -> Any:
    """Resolve a consumer-facing ``obs`` knob.

    ``None``/``False`` → the shared no-op recorder; ``True`` → a fresh
    :class:`Observability` on the system clock; an existing
    :class:`Observability`/:class:`NoopObservability` passes through (the
    sharing case: one facade observing a whole multi-component run).
    """
    if obs is None or obs is False:
        return NULL_OBS
    if obs is True:
        return Observability()
    return obs
