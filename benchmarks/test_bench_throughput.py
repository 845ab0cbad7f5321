"""E-THROUGHPUT — batched/parallel substrate vs the sequential paths.

Measures the end-to-end throughput wins of the batch + parallelism
substrate, each against a faithful inline replica of the pre-batching
sequential path:

1. **Batch NER** — ``PromptNER.extract_batch`` vs a per-sentence
   ``extract`` loop, on a repetition-heavy sentence trace (documents
   repeat boilerplate; the batch path completes each distinct prompt
   once per chunk and replays it);
2. **Batch RAG QA** — ``NaiveRAG.answer_batch`` vs a per-question
   ``answer`` loop on a repeated-question trace (the shape of eval
   reruns and FAQ traffic);
3. **Parallel eval harness** — ``run_experiments`` over per-system eval
   jobs using the batched QA entry points, vs the inline sequential
   loop over the same systems using per-question answering;
4. **Bulk triple loading** — ``TripleStore.add_all`` (one version bump
   per batch) vs per-triple ``add`` in the interleaved write-then-read
   pattern construction pipelines use, where every per-triple bump
   invalidates the KG label cache;
5. **Vocabulary accessors** — index-key ``subjects``/``predicates``/
   ``objects`` vs the old ``match()``-then-dedup scans.

All accelerated paths are asserted *result-identical* to their replicas
before timings count. Each workload is timed as two legs, ``before_s``
and ``after_s``, by :func:`gates.before_after`; ``speedup`` is reported,
not gated. Results land in ``BENCH_throughput.json`` at the repo root;
under ``REPRO_BENCH_GATE=1`` every leg is judged against
``benchmarks/BENCH_throughput_baseline.json`` (see ``gates.py``).
"""

from __future__ import annotations

from typing import Dict, List

import gates
from repro.construction.ner import PromptNER
from repro.core.executor import ParallelExecutor
from repro.enhanced import NaiveRAG
from repro.eval.harness import EvalJob, run_experiments
from repro.kg.datasets import enterprise_kg, movie_kg
from repro.kg.graph import KnowledgeGraph
from repro.kg.store import TripleStore, _distinct
from repro.kg.triples import IRI, Triple
from repro.llm import load_model
from repro.qa.multihop import (KapingQA, LLMOnlyQA,
                               generate_multihop_questions)

QUICK = gates.QUICK


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _ner_trace() -> List[str]:
    """A repetition-heavy sentence trace: few distinct sentences, many
    occurrences — the shape of boilerplate-laden document streams."""
    distinct = [
        "Alice Smith works at Acme Corp in Paris.",
        "Bob Jones founded Beta Inc in Berlin.",
        "Carol Nguyen leads the research team at Gamma Labs.",
        "Dave Miller moved to London last year.",
        "Acme Corp acquired Beta Inc for ten million dollars.",
        "Eve Chen joined Gamma Labs as chief scientist.",
        "Frank Diaz advises Acme Corp and Gamma Labs.",
        "Grace Kim opened an office in Tokyo.",
    ]
    repeats = 8 if QUICK else 16
    return [distinct[i % len(distinct)] for i in range(len(distinct) * repeats)]


def _bench_batch_ner() -> Dict[str, object]:
    sentences = _ner_trace()
    types = ["person", "organization", "location"]

    seq_ner = PromptNER(load_model("chatgpt", seed=0), types)
    bat_ner = PromptNER(load_model("chatgpt", seed=0), types)
    reference = [seq_ner.extract(s) for s in sentences]
    batched = bat_ner.extract_batch(sentences, batch_size=64)
    assert reference == batched, \
        "batched NER diverged from the sequential reference"

    row = gates.before_after(
        lambda: [seq_ner.extract(s) for s in sentences],
        lambda: bat_ner.extract_batch(sentences, batch_size=64))
    row["items"] = float(len(sentences))
    return row


def _bench_batch_rag_qa() -> Dict[str, object]:
    ds = enterprise_kg(seed=0)
    docs = ds.metadata["documents"]
    distinct = [f"Who manages {ds.kg.label(e)}?"
                for e in sorted({t.subject for t in ds.kg.store},
                                key=lambda e: e.value)[:6]]
    repeats = 8 if QUICK else 16
    questions = [distinct[i % len(distinct)]
                 for i in range(len(distinct) * repeats)]

    def build() -> NaiveRAG:
        rag = NaiveRAG(load_model("chatgpt", world=ds.kg, seed=0))
        rag.index_documents(docs)
        return rag

    seq_rag, bat_rag = build(), build()
    reference = [seq_rag.answer(q) for q in questions]
    batched = bat_rag.answer_batch(questions, batch_size=48)
    assert reference == batched, \
        "batched RAG answers diverged from the sequential reference"

    row = gates.before_after(
        lambda: [seq_rag.answer(q) for q in questions],
        lambda: bat_rag.answer_batch(questions, batch_size=48))
    row["items"] = float(len(questions))
    return row


def _bench_parallel_harness() -> Dict[str, object]:
    """The eval harness at 4 workers + batched QA vs the inline loop.

    The replica is the pre-substrate harness: a sequential loop over
    systems, each answering every question one completion at a time. The
    new path fans the jobs out over ``ParallelExecutor(4)`` and routes
    each job's answering through the batched entry points.
    """
    datasets = [("enterprise", enterprise_kg(seed=0)),
                ("movie", movie_kg(seed=0))]
    traces = {}
    for name, ds in datasets:
        qs = generate_multihop_questions(ds, n=4, hops=1)
        repeats = 6 if QUICK else 12
        traces[name] = [q.text for q in qs for _ in range(repeats)]

    systems = [("llm-only", LLMOnlyQA), ("kaping", KapingQA)]

    def hit_rate(answers) -> float:
        return sum(1 for a in answers if a) / len(answers)

    # Model loading and index building are identical setup either way and
    # excluded from the timing — the substrate accelerates the *answering*
    # path. Answers are pure per question, so reusing instances across
    # timing repeats does not change results.
    def build() -> Dict[str, object]:
        return {f"{sys_name}/{ds_name}":
                (cls(load_model("chatgpt", world=ds.kg, seed=0), ds.kg),
                 traces[ds_name])
                for ds_name, ds in datasets for sys_name, cls in systems}

    seq_systems, par_systems = build(), build()
    for name, (system, _) in par_systems.items():
        if hasattr(system, "_build_index"):
            system._build_index()  # KAPING lazily builds on first answer
    for name, (system, _) in seq_systems.items():
        if hasattr(system, "_build_index"):
            system._build_index()

    def sequential_replica() -> Dict[str, float]:
        return {name: hit_rate([system.answer(q) for q in trace])
                for name, (system, trace) in seq_systems.items()}

    def harness_run() -> Dict[str, float]:
        jobs = [EvalJob(system=name,
                        run=lambda system=system, trace=trace: {
                            "answered": hit_rate(
                                system.answer_batch(trace, batch_size=48))})
                for name, (system, trace) in par_systems.items()]
        table = run_experiments("throughput", ["answered"], jobs,
                                executor=ParallelExecutor(4))
        return {row.system: row.metrics["answered"] for row in table.rows}

    assert sequential_replica() == harness_run(), \
        "parallel harness rows diverged from the sequential replica"

    return gates.before_after(sequential_replica, harness_run)


def _bench_bulk_load() -> Dict[str, object]:
    n_triples = 2000 if QUICK else 10000
    chunk = 100
    ex = "http://example.org/"
    triples = [Triple(IRI(f"{ex}s{i % 500}"), IRI(f"{ex}p{i % 20}"),
                      IRI(f"{ex}o{i}"))
               for i in range(n_triples)]

    # The version-bump contract first: one bulk load, one invalidation.
    store = TripleStore()
    v0 = store.version
    added = store.add_all(triples)
    assert added == n_triples
    assert store.version - v0 == 1, \
        f"bulk load bumped the version {store.version - v0} times, not once"

    # Timing: the construction-pipeline pattern — write extracted facts,
    # resolving entity mentions by label as you go (alignment does this).
    # ``find_by_label`` answers from a reverse index rebuilt once per
    # store version, so per-triple version bumps force an O(n) rebuild on
    # every resolution; one bump per ``add_all`` chunk amortizes it.
    kg_triples = triples[: (400 if QUICK else 1200)]

    def run_legacy():
        kg = KnowledgeGraph()
        for t in kg_triples:
            kg.store.add(t)
            kg.find_by_label(t.subject.local_name)

    def run_bulk():
        kg = KnowledgeGraph()
        for start in range(0, len(kg_triples), chunk):
            batch = kg_triples[start:start + chunk]
            kg.store.add_all(batch)
            for t in batch:
                kg.find_by_label(t.subject.local_name)

    row = gates.before_after(run_legacy, run_bulk)
    row["version_delta"] = float(store.version - v0)
    return row


def _legacy_subjects(store: TripleStore, p, o):
    return _distinct(t.subject for t in store.match(None, p, o))


def _legacy_predicates(store: TripleStore, s, o):
    return _distinct(t.predicate for t in store.match(s, None, o))


def _legacy_objects(store: TripleStore, s, p):
    return _distinct(t.object for t in store.match(s, p, None))


def _bench_vocab_accessors() -> Dict[str, object]:
    ds = movie_kg(seed=0)
    store = ds.kg.store
    rounds = 20 if QUICK else 60
    preds = store.relations()[:10]
    subjects = store.subjects()[:20]
    objects = [t.object for t in list(store)[:20]]

    for p in preds[:4]:
        assert store.subjects(p, None) == _legacy_subjects(store, p, None)
        assert store.objects(None, p) == _legacy_objects(store, None, p)
    for s in subjects[:4]:
        assert store.predicates(s, None) == _legacy_predicates(store, s, None)
    for o in objects[:4]:
        assert store.subjects(None, o) == _legacy_subjects(store, None, o)

    def run_legacy():
        for _ in range(rounds):
            for p in preds:
                _legacy_subjects(store, p, None)
                _legacy_objects(store, None, p)
            for s in subjects:
                _legacy_predicates(store, s, None)
            for o in objects:
                _legacy_subjects(store, None, o)

    def run_new():
        for _ in range(rounds):
            for p in preds:
                store.subjects(p, None)
                store.objects(None, p)
            for s in subjects:
                store.predicates(s, None)
            for o in objects:
                store.subjects(None, o)

    return gates.before_after(run_legacy, run_new)


# ---------------------------------------------------------------------------
# The benchmark
# ---------------------------------------------------------------------------

def test_throughput_benchmark():
    results = {
        "batch_ner": _bench_batch_ner(),
        "batch_rag_qa": _bench_batch_rag_qa(),
        "parallel_eval_harness": _bench_parallel_harness(),
        "bulk_triple_load": _bench_bulk_load(),
        "vocab_accessors": _bench_vocab_accessors(),
    }

    print("\nE-THROUGHPUT — batch/parallel substrate before/after "
          "(median ms)")
    for name, row in results.items():
        print(f"  {name:24s} {row['before_s']['median']*1e3:9.2f}ms → "
              f"{row['after_s']['median']*1e3:9.2f}ms   "
              f"{row['speedup']:6.1f}x")
    gates.finish("throughput", results, gates.per_path)
