"""Subprocess worker for the crash-injection suite.

``test_crash_recovery.py`` launches this script, lets it die at a seeded
crash point (``os._exit`` — no atexit handlers, no buffered cleanup, the
closest a test can get to ``kill -9`` without racing the scheduler), and
then recovers or resumes the half-finished state in a fresh process.

Three workloads, one per durable surface:

* ``store``   — applies a deterministic mutation sequence to a
  :class:`~repro.kg.wal.DurableTripleStore`, optionally smearing a torn
  half-record over the WAL tail before dying;
* ``qa``      — the ``repro run`` workload (GraphRAG global batch QA with
  fault injection and a parallel executor) journaled through a
  :class:`~repro.core.durability.CheckpointManager`, dying after a seeded
  number of chunk commits;
* ``harness`` — a keyed :func:`~repro.eval.harness.run_experiments` fan-out,
  dying after a seeded number of journaled jobs.

Crashes exit with :data:`CRASH_EXIT`; clean completions exit 0 and print
their results to stdout so the test can compare resumed output against an
uninterrupted reference run byte for byte.
"""

import argparse
import os
import sys

from repro.core.durability import CheckpointManager
from repro.core.executor import ParallelExecutor
from repro.eval.harness import EvalJob, run_experiments
from repro.kg.datasets import family_kg, movie_kg
from repro.kg.triples import IRI, Triple
from repro.kg.wal import DurableTripleStore
from repro.llm import FaultInjectingLLM, FaultProfile, load_model

CRASH_EXIT = 17

# A torn frame: the header promises a 64-byte payload, the crash left 7.
TORN_WAL_TAIL = b"\x00\x00\x00\x40\xde\xad\xbe\xefgarbage"

# A torn journal line: valid JSON prefix, no closing brace, no newline.
TORN_JOURNAL_TAIL = b'{"type": "item", "value": ["half a rec'


def store_ops(count):
    """The deterministic mutation sequence applied by ``store`` mode.

    Every step is one *effective* batch (so the store's version counter
    advances by exactly one per step): mostly single adds, with periodic
    batch adds and removals of earlier triples mixed in.
    """
    ns = "http://crash.repro.dev/"
    triple = lambda i: Triple(IRI(f"{ns}e{i}"), IRI(f"{ns}p{i % 3}"),
                              IRI(f"{ns}v{i}"))
    ops = []
    for i in range(count):
        if i % 5 == 3:
            ops.append(("remove", [triple(i - 3)]))
        elif i % 7 == 6:
            ops.append(("add", [triple(1000 + 3 * i + k) for k in range(3)]))
        else:
            ops.append(("add", [triple(i)]))
    return ops


def apply_store_op(store, op):
    """Apply one ``store_ops`` step to any TripleStore-compatible store."""
    kind, triples = op
    if kind == "add":
        store.add_all(triples)
    else:
        store.remove_all(triples)


def _append_raw(path, data):
    """Smear raw bytes onto a file's tail (the torn-write injector)."""
    with open(path, "ab") as handle:
        handle.write(data)
        handle.flush()


class CrashingCheckpoint(CheckpointManager):
    """A CheckpointManager that kills the process after N successful writes.

    The crash fires *after* the journal append returns, so the journal holds
    exactly N durable records — the honest "power failed between two
    commits" scenario. With ``torn`` set, a half-written record is smeared
    onto the tail first, simulating a crash mid-append.
    """

    def __init__(self, path, crash_after, torn=False):
        super().__init__(path)
        self._crash_after = crash_after
        self._torn = torn
        self._writes = 0

    def _maybe_crash(self):
        self._writes += 1
        if self._crash_after is not None and self._writes >= self._crash_after:
            if self._torn:
                _append_raw(self.path, TORN_JOURNAL_TAIL)
            sys.stdout.flush()
            os._exit(CRASH_EXIT)

    def record(self, key, value):
        """Keyed append, then maybe die."""
        super().record(key, value)
        self._maybe_crash()

    def record_chunk(self, values, llm_calls=None, extra=None):
        """Chunk commit, then maybe die."""
        super().record_chunk(values, llm_calls=llm_calls, extra=extra)
        self._maybe_crash()


def run_store(args):
    """``store`` mode: mutate a durable store, maybe die mid-sequence.

    With ``--shards N`` the store is a
    :class:`~repro.kg.sharding.DurableShardedTripleStore`, which writes the
    same log and snapshot as the flat store.
    """
    if args.shards:
        from repro.kg.sharding import DurableShardedTripleStore
        store = DurableShardedTripleStore(
            args.dir, shards=args.shards,
            snapshot_every=args.snapshot_every)
    else:
        store = DurableTripleStore(args.dir,
                                   snapshot_every=args.snapshot_every)
    for index, op in enumerate(store_ops(args.ops)):
        apply_store_op(store, op)
        if args.crash_after is not None and index + 1 >= args.crash_after:
            if args.torn:
                _append_raw(store.wal_path, TORN_WAL_TAIL)
            os._exit(CRASH_EXIT)
    print(f"version={store.version} triples={len(store)}")
    store.close()
    return 0


def run_qa(args):
    """``qa`` mode: the ``repro run`` workload with a seeded crash point."""
    ds = family_kg(seed=args.seed)
    llm = load_model("chatgpt", world=ds.kg, seed=args.seed)
    if args.fault_rate:
        llm = FaultInjectingLLM(
            llm, FaultProfile.uniform(args.fault_rate, seed=args.seed))
    from repro.enhanced.graph_rag import GraphRAG
    rag = GraphRAG(llm, ds.kg)
    checkpoint = CrashingCheckpoint(args.journal, args.crash_after,
                                    torn=args.torn)
    checkpoint.ensure_meta("graphrag:answer_global_batch")
    questions = [f"What are the main topics? (pass {i})"
                 if i else "What are the main topics?"
                 for i in range(args.questions)]
    answers = rag.answer_global_batch(
        questions, batch_size=args.batch_size,
        executor=ParallelExecutor(max_workers=args.workers),
        checkpoint=checkpoint)
    for index, answer in enumerate(answers):
        print(f"[{index}] {answer}")
    print(f"restored={checkpoint.resume_skips} "
          f"faulted={rag.last_faulted_communities}", file=sys.stderr)
    return 0


def run_harness(args):
    """``harness`` mode: keyed eval fan-out with a seeded crash point."""
    ds = movie_kg(seed=args.seed)

    def job(system, predicate):
        def run():
            matches = [t for t in ds.kg.store
                       if t.predicate.value.endswith(predicate)]
            return {"triples": len(matches),
                    "entities": len({t.subject for t in matches})}
        return EvalJob(system=system, run=run)

    jobs = [job("directed", "directedBy"), job("starred", "starring"),
            job("genre", "hasGenre"), job("released", "releaseYear")]
    checkpoint = CrashingCheckpoint(args.journal, args.crash_after,
                                    torn=args.torn)
    table = run_experiments(
        "crash-harness", ["triples", "entities"], jobs,
        executor=ParallelExecutor(max_workers=args.workers),
        checkpoint=checkpoint)
    print(table.render())
    print(f"restored={checkpoint.resume_skips}", file=sys.stderr)
    return 0


def build_parser():
    """CLI for the three crash workloads."""
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)

    store = sub.add_parser("store")
    store.add_argument("--dir", required=True)
    store.add_argument("--ops", type=int, default=20)
    store.add_argument("--snapshot-every", type=int, default=None)
    store.add_argument("--crash-after", type=int, default=None)
    store.add_argument("--torn", action="store_true")
    store.add_argument("--shards", type=int, default=0)

    qa = sub.add_parser("qa")
    qa.add_argument("--journal", required=True)
    qa.add_argument("--questions", type=int, default=6)
    qa.add_argument("--batch-size", type=int, default=2)
    qa.add_argument("--workers", type=int, default=1)
    qa.add_argument("--fault-rate", type=float, default=0.0)
    qa.add_argument("--seed", type=int, default=0)
    qa.add_argument("--crash-after", type=int, default=None)
    qa.add_argument("--torn", action="store_true")

    harness = sub.add_parser("harness")
    harness.add_argument("--journal", required=True)
    harness.add_argument("--workers", type=int, default=1)
    harness.add_argument("--seed", type=int, default=0)
    harness.add_argument("--crash-after", type=int, default=None)
    harness.add_argument("--torn", action="store_true")

    return parser


def main(argv=None):
    """Dispatch one crash workload."""
    args = build_parser().parse_args(argv)
    handler = {"store": run_store, "qa": run_qa, "harness": run_harness}
    return handler[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
