"""E-OBS — no-op recorder overhead gate for the observability layer.

The ``obs=`` knob defaults to :data:`~repro.core.observability.NULL_OBS`,
whose recording calls are all cheap no-ops. This bench quantifies what the
disabled instrumentation costs on the three hottest instrumented paths —
LLM batch completion, pipeline execution, executor fan-out — by timing
each workload and, separately, the exact sequence of no-op recording
calls that workload makes, as two legs of :func:`gates.legs`. The ratio
of their medians is the no-op overhead, bounded at ``MAX_OVERHEAD`` (5%)
on every path. Results land in ``BENCH_observability.json`` at the repo
root.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.core import Pipeline
from repro.core.executor import ParallelExecutor
from repro.core.observability import NULL_OBS
from repro.kg.datasets import movie_kg
from repro.llm import load_model
from repro.llm.embedding import TextEncoder

import gates

QUICK = gates.QUICK

#: The gate: disabled instrumentation may cost at most 5% of a hot path.
MAX_OVERHEAD = 0.05

# Workload sizes (shrunk in quick mode; the overhead is a ratio, so the
# verdict is size-independent).
BATCHES = 40 if QUICK else 200
PIPELINE_RUNS = 100 if QUICK else 400
MAP_RUNS = 100 if QUICK else 500
MAP_ITEMS = 100


def _overhead(workload: Callable[[], object],
              noop_calls: Callable[[], None]) -> Dict[str, object]:
    row: Dict[str, object] = gates.legs({"workload_s": workload,
                                         "noop_s": noop_calls})
    row["overhead"] = row["noop_s"]["median"] / row["workload_s"]["median"]
    return row


def _enabled_checks(calls: int) -> None:
    """A disabled path's whole recording cost: one ``obs.enabled`` check
    per call."""
    for _ in range(calls):
        if NULL_OBS.enabled:  # pragma: no cover - always false
            raise AssertionError("NULL_OBS must be disabled")


def _llm_batch_path() -> Dict[str, object]:
    ds = movie_kg(seed=0)
    llm = load_model("chatgpt", world=ds.kg, seed=0)
    prompts = [f"Question: who directed movie_{i}?\nAnswer:"
               for i in range(8)]

    # complete_batch makes exactly one no-op observe call per batch.
    def noop_calls():
        observe = NULL_OBS.observe
        for _ in range(BATCHES):
            observe("llm.batch_size", len(prompts))

    return _overhead(
        lambda: [llm.complete_batch(prompts) for _ in range(BATCHES)],
        noop_calls)


def _pipeline_execute_path() -> Dict[str, object]:
    # Stages carry representative work (encode + complete, the
    # retrieval/generation shape of every RAG pipeline): the gate
    # bounds the no-op cost relative to what real stages actually do.
    ds = movie_kg(seed=0)
    llm = load_model("chatgpt", world=ds.kg, seed=0)
    encoder = TextEncoder(dim=96)

    def retrieve(ctx):
        ctx["vector"] = encoder.encode(ctx["question"])

    def generate(ctx):
        ctx["answer"] = llm.complete(
            f"Question: {ctx['question']}\nAnswer:").text

    pipeline = (Pipeline("bench")
                .add("retrieval", retrieve)
                .add("generation", generate))
    questions = [f"who directed movie_{i}?" for i in range(8)]
    # A disabled ``execute`` checks ``obs.enabled`` once per call and
    # opens no span and records no count.
    return _overhead(
        lambda: [pipeline.execute(question=questions[i % len(questions)])
                 for i in range(PIPELINE_RUNS)],
        lambda: _enabled_checks(PIPELINE_RUNS))


def _executor_map_path() -> Dict[str, object]:
    executor = ParallelExecutor(max_workers=1)
    items = list(range(MAP_ITEMS))

    def fn(x):
        return x * x + 1

    # The disabled fan-out path checks ``obs.enabled`` once per map call
    # and records nothing per item.
    return _overhead(
        lambda: [executor.map(items, fn) for _ in range(MAP_RUNS)],
        lambda: _enabled_checks(MAP_RUNS))


def test_noop_overhead():
    results = {
        "llm.complete_batch": _llm_batch_path(),
        "pipeline.execute": _pipeline_execute_path(),
        "executor.map": _executor_map_path(),
    }
    for name, row in results.items():
        print(f"{name}: workload {row['workload_s']['median'] * 1e3:.2f} ms, "
              f"no-op calls {row['noop_s']['median'] * 1e6:.1f} us, "
              f"overhead {row['overhead']:.4%}")
    gates.finish("observability", results, None, bounds={
        f"{name}: no-op recorder overhead {row['overhead']:.2%} <= 5%":
            row["overhead"] <= MAX_OVERHEAD
        for name, row in results.items()})
