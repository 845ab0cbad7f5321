"""E-DURABILITY — the WAL/checkpoint layer's overhead on the hot paths.

Durability is only acceptable if it is near-free: the WAL must not tax
construction-speed bulk loading, and checkpoint journaling must not tax
batched QA. Two before/after pairs, each asserted result-identical before
timings count:

1. **Bulk triple load** — chunked ``add_all`` into a
   :class:`~repro.kg.wal.DurableTripleStore` (one framed, CRC'd log record
   per batch) vs the plain in-memory :class:`~repro.kg.store.TripleStore`;
2. **Batch RAG QA** — ``NaiveRAG.answer_batch`` journaling every chunk
   through a :class:`~repro.core.durability.CheckpointManager` vs the same
   batch run with no journal.

Both overheads must stay **≤ 10%**: the durable leg's median at most
1.10 × the plain leg's. A third row times cold recovery for context.

Each pair is timed by :func:`gates.legs`: the two legs alternate round
by round, each run probe-normalised, and each leg is reported as a
median with quartiles. Scratch directories and journals are made before
the timed region and live on a tmpfs when one is available, because the
tax under test is the WAL *discipline* (encoding, checksumming, framing,
flushing), not the scratch device's writeback stalls.

Results land in ``BENCH_durability.json`` at the repo root; under
``REPRO_BENCH_GATE=1`` every leg is also judged against
``benchmarks/BENCH_durability_baseline.json`` (see ``gates.py``).
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Dict, List

from repro.core.durability import CheckpointManager
from repro.enhanced import NaiveRAG
from repro.kg.datasets import enterprise_kg
from repro.kg.store import TripleStore
from repro.kg.triples import IRI, Triple
from repro.kg.wal import DurableTripleStore, recover
from repro.llm import load_model
from repro.qa import generate_multihop_questions

import gates

QUICK = gates.QUICK

#: The durability tax ceiling: durable time ≤ 1.10 × in-memory time.
MAX_OVERHEAD = 0.10

#: Timed runs per leg, each of which needs its own scratch state.
RUNS = gates.WARMUP + gates.ROUNDS


def _scratch_dir(prefix: str) -> str:
    """A scratch directory on tmpfs when available (see module docstring)."""
    base = "/dev/shm" if os.path.isdir("/dev/shm") else None
    return tempfile.mkdtemp(prefix=prefix, dir=base)


def _load_triples(n: int) -> List[Triple]:
    ex = "http://example.org/"
    return [Triple(IRI(f"{ex}s{i % 500}"), IRI(f"{ex}p{i % 20}"),
                   IRI(f"{ex}o{i}"))
            for i in range(n)]


def _tax(row: Dict[str, object]) -> Dict[str, object]:
    """``row`` with ``overhead``: the durable leg's median over the plain
    leg's, minus one."""
    row["overhead"] = row["durable_s"]["median"] / row["plain_s"]["median"] - 1
    return row


def _bench_bulk_load() -> Dict[str, object]:
    n_triples = 5000 if QUICK else 10000
    chunk = 100
    triples = _load_triples(n_triples)

    def load(store) -> None:
        for start in range(0, len(triples), chunk):
            store.add_all(triples[start:start + chunk])

    # Result identity first: the durable store is the in-memory store plus
    # a log — same triples, same version, and recoverable to both.
    directory = _scratch_dir("bench-wal-")
    try:
        reference = TripleStore()
        durable = DurableTripleStore(directory)
        load(reference)
        load(durable)
        assert set(durable) == set(reference)
        assert durable.version == reference.version
        durable.close()
        recovered = recover(directory)
        assert set(recovered) == set(reference)
        assert recovered.version == reference.version
        recovered.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    def run_durable(directory: str) -> None:
        store = DurableTripleStore(directory)
        load(store)
        store.close()

    base = _scratch_dir("bench-wal-")
    try:
        directories = iter([tempfile.mkdtemp(dir=base) for _ in range(RUNS)])
        row = _tax(gates.legs({
            "plain_s": lambda: load(TripleStore()),
            "durable_s": lambda: run_durable(next(directories))}))
    finally:
        shutil.rmtree(base, ignore_errors=True)
    row["items"] = float(n_triples)
    return row


def _bench_batch_rag() -> Dict[str, object]:
    ds = enterprise_kg(seed=0)
    docs = ds.metadata["documents"]
    # Enough work to amortize per-run fixed costs (manager construction,
    # the meta record) the way a real long job does.
    distinct = generate_multihop_questions(ds, n=24 if QUICK else 48, hops=1)
    questions = [q.text for q in distinct] * 4
    batch_size = 24

    def build() -> NaiveRAG:
        rag = NaiveRAG(load_model("chatgpt", world=ds.kg, seed=0))
        rag.index_documents(docs)
        return rag

    # Result identity: journaling must not change a single answer.
    directory = _scratch_dir("bench-ckpt-")
    try:
        plain_rag, durable_rag = build(), build()
        reference = plain_rag.answer_batch(questions, batch_size=batch_size)
        journaled = durable_rag.answer_batch(
            questions, batch_size=batch_size,
            checkpoint=CheckpointManager(
                os.path.join(directory, "identity.jsonl")))
        assert reference == journaled, \
            "journaled batch RAG diverged from the plain batch run"

        journals = [CheckpointManager(os.path.join(directory, f"run{i}.jsonl"))
                    for i in range(RUNS)]
        fresh = iter(journals)
        row = _tax(gates.legs({
            "plain_s": lambda: plain_rag.answer_batch(
                questions, batch_size=batch_size),
            "durable_s": lambda: durable_rag.answer_batch(
                questions, batch_size=batch_size, checkpoint=next(fresh))}))
        for journal in journals:
            journal.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    row["items"] = float(len(questions))
    return row


def _bench_recovery() -> Dict[str, object]:
    """Cold recovery speed (context row, no bound)."""
    n_triples = 2000 if QUICK else 10000
    triples = _load_triples(n_triples)
    directory = _scratch_dir("bench-recover-")
    try:
        store = DurableTripleStore(directory)
        store.add_all(triples[:n_triples // 2])
        store.snapshot()
        for start in range(n_triples // 2, n_triples, 100):
            store.add_all(triples[start:start + 100])
        store.close()

        row = gates.legs({"recover_s": lambda: recover(directory).close()})
        recovered = recover(directory)
        assert len(recovered) == len(store)
        recovered.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    row["items"] = float(n_triples)
    row["triples_per_s"] = n_triples / row["recover_s"]["median"]
    return row


def test_durability_benchmark():
    results = {
        "bulk_load_wal": _bench_bulk_load(),
        "batch_rag_checkpoint": _bench_batch_rag(),
        "cold_recovery": _bench_recovery(),
    }

    print("\nE-DURABILITY — WAL/checkpoint overhead on the hot paths "
          "(median ms)")
    for name in ("bulk_load_wal", "batch_rag_checkpoint"):
        row = results[name]
        print(f"  {name:22s} {row['plain_s']['median']*1e3:9.2f}ms → "
              f"{row['durable_s']['median']*1e3:9.2f}ms   "
              f"overhead {row['overhead']*100:+5.1f}%")
    rec = results["cold_recovery"]
    print(f"  cold_recovery          {rec['recover_s']['median']*1e3:9.2f}ms"
          f"   ({rec['triples_per_s']:,.0f} triples/s)")
    # The durability tax ceiling: ≤10% on both hot paths.
    bulk, rag = (results[name]["overhead"]
                 for name in ("bulk_load_wal", "batch_rag_checkpoint"))
    gates.finish("durability", results, gates.per_path, bounds={
        f"WAL tax on bulk load {bulk:.1%} <= 10%": bulk <= MAX_OVERHEAD,
        f"checkpoint tax on batch RAG {rag:.1%} <= 10%": rag <= MAX_OVERHEAD,
    })
