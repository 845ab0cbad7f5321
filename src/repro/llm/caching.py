"""A memoizing wrapper around the simulated LLM.

Every retrieval-backed architecture in this repo (RAG variants, GraphRAG
map-reduce, KAPING-style QA) re-issues identical prompts: the same question
asked twice, the same community report re-summarized, the same closed-book
fallback. Against a real API each repeat costs money and latency; against
:class:`~repro.llm.model.SimulatedLLM` it costs the full handler dispatch.
:class:`CachingLLM` memoizes ``complete`` by ``(prompt, max_tokens)`` with
LRU eviction and exposes hit/miss/eviction counters via ``cache_stats()``.

The wrapper is sound precisely because the simulated model is deterministic:
a completion is a pure function of ``(model seed, prompt)``, so replaying a
cached response is observationally identical to recomputing it — except that
the inner model's call/token counters stop growing, which is the point.

The wrapper is **thread-safe**: one lock guards every cache read and
mutation, so :class:`~repro.core.executor.ParallelExecutor` workers can
share a cache without corrupting the LRU order or the counters.
(Thread-safety means *no corruption*; bit-identical counter/LRU evolution
is guaranteed for the deterministic call order the batched pipelines use,
where all LLM traffic flows through ``complete_batch`` on the coordinating
thread.)

``complete_batch`` and ``chat`` come from
:class:`~repro.llm.model.LLMWrapper`: a batch is a loop over the caching
``complete``, so counters, LRU order and the inner call sequence equal
``[complete(p) for p in prompts]`` by construction, eviction inside the
batch and a fault part-way through included.

Composability with :class:`~repro.llm.faults.FaultInjectingLLM`:

* ``CachingLLM(FaultInjectingLLM(llm))`` — hits bypass the fault schedule
  entirely (a cache in front of a flaky API); only misses can fault, and
  faulting calls are never cached, so a retry after a transient error goes
  back upstream. A batch that faults part-way has already cached the
  completions before the fault, as a sequential caller would have.
* ``FaultInjectingLLM(CachingLLM(llm))`` — every call still faces the fault
  schedule, but clean calls are served from cache (a shared cache behind a
  per-request fault boundary).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Tuple

from repro.core.observability import cache_stats_dict
from repro.llm.model import LLMResponse, LLMWrapper
from repro.llm.streaming import replay_stream
from repro.llm.tokenizer import count_tokens

#: Default maximum number of memoized completions.
DEFAULT_CACHE_SIZE = 4096

_CacheKey = Tuple[str, int]


def _copy(response: LLMResponse) -> LLMResponse:
    """A fresh response with the same fields, so no caller can alter the
    cached one."""
    return LLMResponse(response.text, response.prompt_tokens,
                       response.completion_tokens, response.model)


class CachingLLM(LLMWrapper):
    """Memoize ``complete``/``chat`` over any LLM-shaped inner model.

    Every attribute other than the inference entry points is delegated to
    ``inner`` (see :class:`~repro.llm.model.LLMWrapper`).

    ``max_size`` bounds the cache with least-recently-used eviction.
    Exceptions are never cached: a call that raises (e.g. a fault injected
    by a wrapped :class:`~repro.llm.faults.FaultInjectingLLM`) leaves no
    cache entry behind, so the next identical prompt retries upstream.
    """

    def __init__(self, inner, max_size: int = DEFAULT_CACHE_SIZE):
        if max_size <= 0:
            raise ValueError("max_size must be positive")
        super().__init__(inner)
        self.max_size = max_size
        self._cache: "OrderedDict[_CacheKey, LLMResponse]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    # Inference entry points
    # ------------------------------------------------------------------
    def complete(self, prompt: str, max_tokens: int = 256) -> LLMResponse:
        """Complete a prompt, serving repeats from the LRU cache."""
        key = (prompt, max_tokens)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._hits += 1
                self._cache.move_to_end(key)
                return _copy(cached)
            self._misses += 1
            response = self.inner.complete(prompt, max_tokens=max_tokens)
            self._store(key, response)
            return _copy(response)

    def complete_stream(self, prompt: str, max_tokens: int = 256):
        """Stream a completion through the cache.

        A **hit** replays the memoized text as decode-step chunks without
        touching the inner model at all (this is what a streaming cache is
        for: zero upstream tokens, instant first chunk). A **miss** streams
        through the inner model and records the chunks as they pass; only a
        *fully drained, fault-free* stream is stored — a stream that faults
        mid-flight or is abandoned by its consumer leaves no cache entry,
        preserving the "exceptions are never cached" contract (the next
        identical prompt retries upstream).

        Hit/miss counters advance when the stream is created, mirroring
        when ``complete`` would have counted them.
        """
        key = (prompt, max_tokens)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._hits += 1
                self._cache.move_to_end(key)
                return replay_stream(cached.text)
            self._misses += 1
            inner_stream = self.inner.complete_stream(
                prompt, max_tokens=max_tokens)
        return self._recording_stream(key, prompt, inner_stream)

    def _recording_stream(self, key: _CacheKey, prompt: str, stream):
        """Pass chunks through, banking the completion on a clean drain."""
        chunks: List[str] = []
        for chunk in stream:
            chunks.append(chunk)
            yield chunk
        text = "".join(chunks)
        response = LLMResponse(
            text=text, prompt_tokens=count_tokens(prompt),
            completion_tokens=count_tokens(text),
            model=getattr(getattr(self.inner, "config", None), "name",
                          "sim-llm"))
        with self._lock:
            if key not in self._cache:
                self._store(key, response)

    def _store(self, key: _CacheKey, response: LLMResponse) -> None:
        if len(self._cache) >= self.max_size:
            self._cache.popitem(last=False)
            self._evictions += 1
        self._cache[key] = response

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, float]:
        """Counters in the canonical cache-stats schema
        (see :func:`repro.core.observability.cache_stats_dict`)."""
        with self._lock:
            return cache_stats_dict(
                hits=self._hits, misses=self._misses,
                evictions=self._evictions, size=len(self._cache),
                max_size=self.max_size)


def maybe_cached(llm, cache) -> object:
    """Resolve a consumer-facing ``cache`` knob into a (possibly) wrapped LLM.

    ``cache`` may be falsy (no wrapping), ``True`` (wrap with the default
    cache size), or a positive int (wrap with that size). Pipelines accept
    this knob in their constructors so enabling memoization is one argument,
    not a refactor.
    """
    if not cache:
        return llm
    if cache is True:
        return CachingLLM(llm)
    return CachingLLM(llm, max_size=int(cache))
