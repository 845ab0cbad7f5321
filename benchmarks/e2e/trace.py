"""Span-recording wrappers around each layer's public functions.

The traced run replaces the public entry points of every layer (gateway,
QA pipelines, RAG, agent, LLM, vector index, SPARQL engine, KG store,
shard transport, WAL) with wrappers that record a span per call. They
are installed at runtime, only inside the benchmark process, and removed
again by :meth:`Tracer.uninstall`; no file of the system changes.

A span opens only while an operation is active (between
:meth:`Tracer.begin_op` and :meth:`Tracer.end_op`), so set-up and
correctness checks stay untraced. A call re-entering the span it is
already inside (``SimulatedLLM.chat`` calling ``complete``) is part of
that span rather than a new one, so ``calls`` counts layer entries.

Spans are aggregated in memory as (calls, self seconds) per name. Self
time is a span's duration minus the time its child spans cover, so the
self times of all spans plus the root's own sum exactly to the summed
operation time. Full span trees are kept for every
:data:`KEEP_EVERY`-th operation and written out by :meth:`write_spans`.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

#: (span name, module, owner class, methods). ``recover`` runs once per
#: run outside any operation and is timed as ``recover_s`` instead.
TARGETS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("serve.gateway", "repro.serve.gateway", "Gateway", ("offer",)),
    ("qa.chatbot", "repro.qa.chatbot", "KGChatbot", ("chat",)),
    ("qa.text2sparql", "repro.qa.text2sparql", "ResilientText2SparqlQA",
     ("answer_with_route",)),
    ("enhanced.rag", "repro.enhanced.rag", "NaiveRAG",
     ("answer_with_report", "closed_book_answer")),
    ("enhanced.graphrag", "repro.enhanced.graph_rag", "GraphRAG",
     ("answer_global_strict", "answer_local")),
    ("agent.run", "repro.agent.loop", "GraphAgent", ("run",)),
    ("agent.tool", "repro.agent.tools", "ToolRegistry", ("get",)),
    ("llm.complete", "repro.llm.model", "SimulatedLLM",
     ("complete", "chat", "complete_batch")),
    ("llm.cache", "repro.llm.caching", "CachingLLM", ("complete",)),
    ("vector.search", "repro.vector.index", "VectorIndex", ("search",)),
    ("vector.search", "repro.vector.index", "ClusteredVectorIndex",
     ("search",)),
    ("sparql.select", "repro.sparql.evaluator", "SparqlEngine",
     ("select", "ask")),
    ("kg.read", "repro.kg.store", "TripleStore",
     ("match", "match_count", "objects", "subjects", "value")),
    ("kg.shard", "repro.kg.sharding", "ShardedTripleStore",
     ("match", "match_count", "objects", "subjects", "value")),
    ("kg.transport", "repro.kg.replication", "ShardTransport", ("call",)),
    ("kg.label", "repro.kg.graph", "KnowledgeGraph", ("label",)),
    ("kg.write", "repro.kg.store", "TripleStore", ("add_all", "remove_all")),
    ("kg.wal.append", "repro.kg.wal", "WriteAheadLog", ("append",)),
    ("kg.wal.snapshot", "repro.kg.wal", "DurableTripleStore", ("snapshot",)),
)

#: Every span name, in table order.
SPANS: Tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in TARGETS))

#: Root span of one measured operation.
ROOT = "op"

#: Keep the full span tree of every n-th operation.
KEEP_EVERY = 100


def _count_tokens(result) -> int:
    responses = result if isinstance(result, list) else [result]
    return sum(r.prompt_tokens + r.completion_tokens for r in responses)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        #: span -> [calls, self seconds]
        self.spans: Dict[str, List[float]] = {name: [0, 0.0]
                                              for name in (ROOT,) + SPANS}
        #: Counters measured at span boundaries.
        self.counters: Dict[str, float] = {
            "kg.read.rows": 0, "sparql.rows": 0, "agent.steps": 0,
            "llm.tokens": 0, "llm.cache.hits": 0, "kg.label.hits": 0,
            "kg.wal.bytes": 0}
        self.ops = 0
        self.kept: List[Dict[str, Any]] = []
        # Open frames: [name, start, child seconds, children, kept index].
        self._stack: List[list] = []
        self._op_id = -1
        self._keep = False
        self._installed: List[Tuple[Any, str, Any]] = []
        self._tools: Dict[int, Tuple[Any, Any]] = {}

    # ------------------------------------------------------------------
    # Operations (root spans)
    # ------------------------------------------------------------------
    def begin_op(self, op_id: int) -> None:
        """Open the root span of operation ``op_id``."""
        self._op_id = op_id
        self._keep = op_id % KEEP_EVERY == 0
        self._open(ROOT)

    def end_op(self) -> None:
        """Close the root span."""
        self._close()
        self.ops += 1
        self._keep = False

    def _open(self, name: str) -> None:
        kept = -1
        if self._keep:
            parent = self._stack[-1][4] if self._stack else -1
            kept = len(self.kept)
            self.kept.append({"op": self._op_id, "span": name,
                              "parent": parent, "start": 0.0, "end": 0.0})
        self._stack.append([name, perf_counter(), 0.0, 0, kept])

    def _close(self) -> list:
        end = perf_counter()
        frame = self._stack.pop()
        duration = end - frame[1]
        entry = self.spans[frame[0]]
        entry[0] += 1
        entry[1] += duration - frame[2]
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent[3] += 1
        if frame[4] >= 0:
            record = self.kept[frame[4]]
            record["start"], record["end"] = frame[1], end
        return frame

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _wrap(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        counters = self.counters
        hook = self._hooks().get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack or stack[-1][0] == name:
                return fn(*args, **kwargs)
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                frame = self._close()
            if hook is not None:
                hook(counters, result, frame)
            return result
        return traced

    @staticmethod
    def _hooks() -> Dict[str, Callable]:
        def add(key, value):
            def hook(counters, result, frame):
                counters[key] += value(result, frame)
            return hook
        return {
            "kg.read": add("kg.read.rows", lambda r, f:
                           len(r) if isinstance(r, list) else 0),
            "sparql.select": add("sparql.rows", lambda r, f:
                                 len(r) if isinstance(r, list) else 0),
            "agent.run": add("agent.steps", lambda r, f: len(r.steps)),
            "llm.complete": add("llm.tokens",
                                lambda r, f: _count_tokens(r)),
            # A cached read that needed no inner call was served from cache.
            "llm.cache": add("llm.cache.hits", lambda r, f: f[3] == 0),
            "kg.label": add("kg.label.hits", lambda r, f: f[3] == 0),
            "kg.wal.append": add("kg.wal.bytes", lambda r, f: r),
        }

    def _wrap_registry_get(self, get: Callable) -> Callable:
        """``ToolRegistry.get`` returning tools whose ``fn`` is traced."""
        tools = self._tools

        @functools.wraps(get)
        def traced_get(registry, name):
            tool = get(registry, name)
            cached = tools.get(id(tool))
            if cached is None or cached[0] is not tool:
                cached = (tool, dataclasses.replace(
                    tool, fn=self._wrap("agent.tool", tool.fn)))
                tools[id(tool)] = cached
            return cached[1]
        return traced_get

    def install(self) -> None:
        """Replace every target with its traced wrapper."""
        if self._installed:
            return
        for span, module_name, owner_name, attrs in TARGETS:
            owner = getattr(importlib.import_module(module_name),
                            owner_name)
            for attr in attrs:
                original = vars(owner)[attr]
                if span == "agent.tool":
                    wrapper = self._wrap_registry_get(original)
                else:
                    wrapper = self._wrap(span, original)
                setattr(owner, attr, wrapper)
                self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every original function."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def total_seconds(self) -> float:
        """Summed duration of all root spans (the traced operation time)."""
        return sum(entry[1] for entry in self.spans.values())

    def write_spans(self, path: str) -> int:
        """Write the kept span trees as JSON lines; returns the count."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.kept:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return len(self.kept)
