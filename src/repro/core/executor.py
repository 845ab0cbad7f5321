"""A deterministic parallel executor for fan-out-shaped pipeline work.

Every throughput-shaped workload in this repo — per-sentence extraction,
per-question RAG, per-hop frontier expansion, per-system eval runs — is an
ordered list of independent items. This module supplies the one fan-out
primitive they all share, with two guarantees the ad-hoc loops it replaces
never had to state:

* **Determinism.** Results are collected *in input order* regardless of
  worker count or scheduling interleavings, and error handling is resolved
  by item index (the lowest-index failure wins an abort), so a run at
  ``max_workers=4`` is bit-identical to ``max_workers=1``. Ordering-
  sensitive shared state (an LLM fault schedule, a cache's LRU order) must
  not be mutated from inside worker callables — the batched LLM entry
  points (``complete_batch``) exist precisely so pipelines assign call
  indices deterministically *before* fanning pure work out to workers.
* **Per-item error capture.** :meth:`ParallelExecutor.map_outcomes` never
  raises; each item's exception is captured in an ordered
  :class:`ItemOutcome`. :meth:`ParallelExecutor.map` re-raises the
  lowest-index one. Retry, fallback and skip policies live in one place,
  :class:`~repro.core.pipeline.StagePolicy` on a pipeline stage.

``max_workers=1`` is exactly the sequential path: no threads are created
and callables run inline, which keeps single-item debugging stack traces
flat. Threads only pay off when the work releases the GIL (numpy batch
encoding, index search, IO); the order-of-magnitude throughput wins come
from the batch APIs this executor composes with, not from thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, TypeVar

from repro.core.observability import resolve_obs

T = TypeVar("T")
R = TypeVar("R")


def chunked(items: Sequence[T], size: Optional[int]) -> Iterator[Sequence[T]]:
    """Split ``items`` into consecutive chunks of ``size``.

    ``size=None`` (or a size covering everything) yields one chunk — the
    degenerate batching every ``batch_size=None`` knob defaults to.
    """
    if size is not None and size <= 0:
        raise ValueError(f"chunk size must be positive, got {size}")
    if size is None or size >= len(items):
        if len(items):
            yield items
        return
    for start in range(0, len(items), size):
        yield items[start:start + size]


@dataclass
class ItemOutcome:
    """One item's result within a fan-out stage."""

    index: int
    value: Any = None
    error: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        """Whether the item produced a value."""
        return self.error is None


class ParallelExecutor:
    """An ordered, error-capturing thread-pool map.

    ``max_workers=1`` runs inline (no threads, identical semantics); any
    higher count fans items out to a thread pool while preserving input
    order in the collected results. Worker callables must be safe to run
    concurrently — pure functions of their item, or functions whose shared
    state is guarded (the thread-safe caches) and whose *values* do not
    depend on scheduling order.
    """

    def __init__(self, max_workers: int = 1, obs=None):
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        # Observability recorder (no-op by default). When live, every
        # fan-out records per-item queue-wait and run time plus per-worker
        # busy time — the utilization series ``repro obs report`` renders.
        self.obs = resolve_obs(obs)

    @property
    def sequential(self) -> bool:
        """Whether this executor runs items inline, one at a time."""
        return self.max_workers == 1

    # ------------------------------------------------------------------
    # Core primitives
    # ------------------------------------------------------------------
    def map_outcomes(self, items: Iterable[T], fn: Callable[[T], R],
                     label: str = "map") -> List[ItemOutcome]:
        """Apply ``fn`` per item; capture every exception; never raise.

        The returned list is ordered by item index whatever the scheduling
        order was. ``label`` names the fan-out in traces and metrics (it
        has no effect on execution).
        """
        items = list(items)
        obs = self.obs

        def run_one(pair) -> ItemOutcome:
            index, item = pair
            try:
                return ItemOutcome(index=index, value=fn(item))
            except BaseException as exc:  # noqa: BLE001 - captured per item
                return ItemOutcome(index=index, error=exc)

        indexed = list(enumerate(items))
        if not obs.enabled:
            if self.sequential or len(indexed) <= 1:
                return [run_one(pair) for pair in indexed]
            with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
                return list(pool.map(run_one, indexed))
        return self._map_observed(indexed, run_one, label)

    def _map_observed(self, indexed: List, run_one: Callable,
                      label: str) -> List[ItemOutcome]:
        """The traced fan-out path: queue-wait/run-time histograms, one
        span per item (parented on the coordinating span, so worker-thread
        spans attach to the right subtree), and per-worker busy time."""
        obs = self.obs
        clock = obs.clock
        with obs.span(f"fanout:{label}", items=len(indexed),
                      workers=self.max_workers) as fanout_span:
            submitted = clock.now()

            def run_timed(pair) -> ItemOutcome:
                index, _ = pair
                started = clock.now()
                worker = obs.worker_label()
                span = obs.start_span(f"item:{label}", parent=fanout_span,
                                      index=index, worker=worker)
                outcome = run_one(pair)
                obs.end_span(span, status="ok" if outcome.ok else "failed")
                finished = clock.now()
                obs.observe("executor.queue_wait", started - submitted,
                            stage=label)
                obs.observe("executor.run_time", finished - started,
                            stage=label)
                obs.count("executor.worker_busy", finished - started,
                          stage=label, worker=worker)
                obs.count("executor.items", stage=label)
                return outcome

            if self.sequential or len(indexed) <= 1:
                return [run_timed(pair) for pair in indexed]
            with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
                return list(pool.map(run_timed, indexed))

    def map(self, items: Iterable[T], fn: Callable[[T], R],
            label: str = "map") -> List[R]:
        """Apply ``fn`` per item and return ordered values.

        If any item raised, the *lowest-index* error is re-raised after all
        items finish — the same error a sequential loop would have surfaced
        first, so abort behaviour is scheduling-independent. ``label`` names
        the fan-out in traces (the sharded store labels its shard fan-outs).
        """
        outcomes = self.map_outcomes(items, fn, label=label)
        for outcome in outcomes:
            if outcome.error is not None:
                raise outcome.error
        return [outcome.value for outcome in outcomes]

    def map_batched(self, items: Iterable[T], fn: Callable[[T], R],
                    batch_size: Optional[int] = None) -> List[R]:
        """Chunk ``items`` and fan each chunk out; ordered flat results.

        Composes chunking with fan-out: chunks are processed one after
        another (so chunk N+1 sees any shared caches warmed by chunk N),
        items *within* a chunk fan out across workers.
        """
        out: List[R] = []
        for chunk in chunked(list(items), batch_size):
            out.extend(self.map(chunk, fn))
        return out
