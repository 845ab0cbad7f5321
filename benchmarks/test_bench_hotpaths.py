"""E-HOTPATH — before/after micro-benchmarks for the acceleration layer.

Measures the four hot paths the acceleration layer rewrote, each against a
faithful inline replica of the pre-acceleration implementation:

1. ``TextEncoder.encode_batch`` (batch dedup + matrix reduction) vs the
   per-text Python loop, on a repeated-token corpus;
2. ``VectorIndex`` (capacity-doubling packed rows) vs re-stacking the whole
   matrix after every insert, on an interleaved add/search workload;
3. ``ClusteredVectorIndex`` (per-cell packed matrices, expanded-form
   k-means distances) vs per-query ``np.stack`` and the n×k×d broadcast;
4. the ``KnowledgeGraph`` label/description cache vs per-call index probes;
5. ``CachingLLM`` memoization on a repeated-query RAG workload.

Every path is timed as two legs, ``before_s`` and ``after_s``, by
:func:`gates.before_after`; ``speedup`` is the ratio of their medians and
is reported, not gated. Results land in ``BENCH_hotpaths.json`` at the
repo root; under ``REPRO_BENCH_GATE=1`` every leg is judged against
``benchmarks/BENCH_hotpaths_baseline.json`` (see ``gates.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

import gates

from repro.enhanced import NaiveRAG
from repro.kg.datasets import enterprise_kg, movie_kg
from repro.kg.graph import LABEL, KnowledgeGraph, _humanize_relation
from repro.kg.triples import RDF, RDFS, Literal
from repro.llm import load_model
from repro.llm.embedding import TextEncoder
from repro.vector import ClusteredVectorIndex, VectorIndex

QUICK = gates.QUICK


# ---------------------------------------------------------------------------
# Legacy replicas (the pre-acceleration implementations, verbatim semantics)
# ---------------------------------------------------------------------------

def _legacy_encode_batch(encoder: TextEncoder, texts: List[str]) -> np.ndarray:
    """The old ``encode_batch``: a per-text Python loop over ``encode``."""
    if not texts:
        return np.zeros((0, encoder.dim))
    return np.stack([encoder.encode(t) for t in texts])


class _LegacyVectorIndex:
    """The old exact index: every ``add`` invalidates the packed matrix."""

    def __init__(self, dim: int):
        self.dim = dim
        self._keys: list = []
        self._rows: list = []
        self._matrix: Optional[np.ndarray] = None
        self._norms: Optional[np.ndarray] = None

    def add(self, key, vector) -> None:
        self._keys.append(key)
        self._rows.append(np.asarray(vector, dtype=np.float64))
        self._matrix = None

    def search(self, query: np.ndarray, k: int = 5):
        if not self._rows:
            return []
        if self._matrix is None:
            self._matrix = np.stack(self._rows)
            norms = np.linalg.norm(self._matrix, axis=1)
            norms[norms == 0.0] = 1.0
            self._norms = norms
        qn = np.linalg.norm(query) or 1.0
        scores = (self._matrix @ query) / (self._norms * qn)
        order = np.argsort(-scores, kind="stable")[: min(k, len(self._keys))]
        return [(self._keys[i], float(scores[i])) for i in order]


class _LegacyClusteredIndex:
    """The old IVF index: n×k×d k-means distances, per-query np.stack."""

    def __init__(self, dim: int, n_cells: int, nprobe: int, seed: int = 0):
        self.dim, self.n_cells, self.nprobe, self.seed = dim, n_cells, nprobe, seed
        self._keys: list = []
        self._rows: list = []
        self._centroids: Optional[np.ndarray] = None
        self._cells: List[List[int]] = []

    def add(self, key, vector) -> None:
        self._keys.append(key)
        self._rows.append(np.asarray(vector, dtype=np.float64))
        self._centroids = None

    def build(self, iterations: int = 8) -> None:
        matrix = np.stack(self._rows)
        n_cells = min(self.n_cells, matrix.shape[0])
        rng = np.random.default_rng(self.seed)
        centroids = matrix[rng.choice(matrix.shape[0], size=n_cells,
                                      replace=False)].copy()
        assignment = np.zeros(matrix.shape[0], dtype=np.int64)
        for _ in range(iterations):
            distances = ((matrix[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            new_assignment = distances.argmin(axis=1)
            if np.array_equal(new_assignment, assignment):
                break
            assignment = new_assignment
            for cell in range(n_cells):
                members = matrix[assignment == cell]
                if members.shape[0]:
                    centroids[cell] = members.mean(axis=0)
        self._centroids = centroids
        self._cells = [[] for _ in range(n_cells)]
        for index, cell in enumerate(assignment):
            self._cells[int(cell)].append(index)

    def search(self, query: np.ndarray, k: int = 5):
        cell_distance = ((self._centroids - query[None, :]) ** 2).sum(axis=1)
        probe = np.argsort(cell_distance, kind="stable")[: self.nprobe]
        candidate_ids: List[int] = []
        for cell in probe:
            candidate_ids.extend(self._cells[int(cell)])
        if not candidate_ids:
            return []
        matrix = np.stack([self._rows[i] for i in candidate_ids])
        norms = np.linalg.norm(matrix, axis=1)
        norms[norms == 0.0] = 1.0
        qn = np.linalg.norm(query) or 1.0
        scores = (matrix @ query) / (norms * qn)
        order = np.argsort(-scores, kind="stable")[: min(k, len(candidate_ids))]
        return [(self._keys[candidate_ids[i]], float(scores[i])) for i in order]


def _legacy_label(kg: KnowledgeGraph, term) -> str:
    """The old ``KnowledgeGraph.label``: an index probe on every call."""
    if isinstance(term, Literal):
        return term.lexical
    for t in kg.store.match(term, LABEL, None):
        if isinstance(t.object, Literal):
            return t.object.lexical
    return term.local_name.replace("_", " ")


def _legacy_find_by_label(kg: KnowledgeGraph, label: str) -> list:
    """The old ``find_by_label``: a full LABEL scan on every call."""
    wanted = label.strip().lower()
    out = [t.subject for t in kg.store.match(None, LABEL, None)
           if isinstance(t.object, Literal) and t.object.lexical.lower() == wanted]
    if not out:
        token = wanted.replace(" ", "_")
        out = [e for e in kg.store.entities() if e.local_name.lower() == token]
    return out


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _bench_encode_batch() -> Dict[str, object]:
    n_texts = 200 if QUICK else 600
    rng = np.random.default_rng(0)
    vocab = [f"term{i}" for i in range(80)]
    distinct = [" ".join(rng.choice(vocab, size=18)) for _ in range(n_texts // 6)]
    # Repeated-token corpus: a small shared vocabulary AND recurring texts,
    # the shape of fact verbalizations feeding a RAG/KAPING index build.
    texts = [distinct[i % len(distinct)] for i in range(n_texts)]
    encoder = TextEncoder(dim=96)
    encoder.fit_idf(distinct)
    _legacy_encode_batch(encoder, texts[:10])  # warm the token cache
    reference = _legacy_encode_batch(encoder, texts)
    batched = encoder.encode_batch(texts)
    assert np.abs(reference - batched).max() < 1e-9, \
        "batched encoding diverged from the sequential reference"
    return gates.before_after(lambda: _legacy_encode_batch(encoder, texts),
                              lambda: encoder.encode_batch(texts))


def _bench_vector_index() -> Dict[str, object]:
    n_ops = 300 if QUICK else 800
    dim = 64
    rng = np.random.default_rng(1)
    vectors = rng.normal(size=(n_ops, dim))
    queries = rng.normal(size=(n_ops, dim))

    def run_legacy():
        index = _LegacyVectorIndex(dim)
        for i in range(n_ops):
            index.add(i, vectors[i])
            index.search(queries[i], k=5)

    def run_new():
        index = VectorIndex(dim)
        for i in range(n_ops):
            index.add(i, vectors[i])
            index.search(queries[i], k=5)

    # Same results on the final state:
    legacy, packed = _LegacyVectorIndex(dim), VectorIndex(dim)
    for i in range(n_ops):
        legacy.add(i, vectors[i])
        packed.add(i, vectors[i])
    for q in queries[:10]:
        assert [k for k, _ in legacy.search(q, k=5)] == \
            [h.key for h in packed.search(q, k=5)]
    return gates.before_after(run_legacy, run_new)


def _bench_clustered_index() -> Dict[str, object]:
    n_vectors = 800 if QUICK else 2500
    n_queries = 150 if QUICK else 500
    dim, n_cells = 48, 16
    rng = np.random.default_rng(2)
    vectors = rng.normal(size=(n_vectors, dim))
    queries = rng.normal(size=(n_queries, dim))

    def run_legacy():
        index = _LegacyClusteredIndex(dim, n_cells=n_cells, nprobe=3)
        for i in range(n_vectors):
            index.add(i, vectors[i])
        index.build()
        for q in queries:
            index.search(q, k=10)

    def run_new():
        index = ClusteredVectorIndex(dim, n_cells=n_cells, nprobe=3)
        for i in range(n_vectors):
            index.add(i, vectors[i])
        index.build()
        for q in queries:
            index.search(q, k=10)

    return gates.before_after(run_legacy, run_new)


def _bench_label_cache() -> Dict[str, object]:
    ds = movie_kg(seed=0)
    kg = ds.kg
    rounds = 3 if QUICK else 8
    triples = [t for t in kg.store
               if t.predicate not in (RDFS.label, RDFS.comment, RDF.type)]
    labels = [t.object.lexical
              for t in kg.store.match(None, LABEL, None)
              if isinstance(t.object, Literal)][:40]

    def run_legacy():
        for _ in range(rounds):
            for t in triples:
                subject = _legacy_label(kg, t.subject)
                predicate = _legacy_label(kg, t.predicate)
                obj = _legacy_label(kg, t.object)
                f"{subject} {_humanize_relation(predicate)} {obj}."
            for label in labels:
                _legacy_find_by_label(kg, label)

    def run_new():
        for _ in range(rounds):
            for t in triples:
                kg.verbalize_triple(t)
            for label in labels:
                kg.find_by_label(label)

    for label in labels[:10]:
        assert kg.find_by_label(label) == _legacy_find_by_label(kg, label)
    for t in triples[:25]:
        assert kg.label(t.subject) == _legacy_label(kg, t.subject)
    return gates.before_after(run_legacy, run_new)


def _bench_caching_llm_rag() -> Dict[str, object]:
    ds = enterprise_kg(seed=0)
    docs = ds.metadata["documents"]
    questions = [f"Who manages {ds.kg.label(dept)}?"
                 for dept in (t.subject for t in ds.kg.store.match(None, RDF.type, None))][:6]
    if not questions:
        questions = ["Who manages the sales department?"]
    rounds = 8 if QUICK else 20

    def build(cache: bool) -> NaiveRAG:
        llm = load_model("chatgpt", world=ds.kg, seed=0)
        rag = NaiveRAG(llm, cache=cache)
        rag.index_documents(docs)
        return rag

    def answer_loop(rag: NaiveRAG) -> None:
        for _ in range(rounds):
            for question in questions:
                rag.answer(question)

    cached = build(True)
    answer_loop(cached)
    stats = cached.llm.cache_stats()
    assert stats["hits"] > 0, "repeated questions never hit the cache"

    # Setup (model load, document indexing) is identical either way and is
    # built before the timing — the cache accelerates the *query* path.
    # A fresh pipeline per run, so every cached run pays its cold
    # first-round misses.
    runs = gates.WARMUP + gates.ROUNDS
    uncached = iter([build(False) for _ in range(runs)])
    fresh = iter([build(True) for _ in range(runs)])
    row = gates.before_after(lambda: answer_loop(next(uncached)),
                             lambda: answer_loop(next(fresh)))
    row["cache_hit_rate"] = stats["hit_rate"]
    return row


# ---------------------------------------------------------------------------
# The benchmark
# ---------------------------------------------------------------------------

def test_hotpaths_benchmark():
    results = {
        "encode_batch": _bench_encode_batch(),
        "vector_index_interleaved": _bench_vector_index(),
        "clustered_index": _bench_clustered_index(),
        "kg_label_cache": _bench_label_cache(),
        "caching_llm_rag": _bench_caching_llm_rag(),
    }

    print("\nE-HOTPATH — acceleration-layer before/after (median ms)")
    for name, row in results.items():
        print(f"  {name:28s} {row['before_s']['median']*1e3:9.2f}ms → "
              f"{row['after_s']['median']*1e3:9.2f}ms   "
              f"{row['speedup']:6.1f}x")
    gates.finish("hotpaths", results, gates.per_path)
