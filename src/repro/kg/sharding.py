"""Hash-sharded triple storage behind a drop-in ``TripleStore`` façade.

The survey's "millions of users" read path outgrows one monolithic
:class:`~repro.kg.store.TripleStore`: every index lives in one set of hash
maps, so bulk load, mixed read/write and selective pattern matching all
serialize on one structure. :class:`ShardedTripleStore` partitions the
store into N sub-stores **by subject hash** (CRC32 of the subject IRI —
Python's string hash is process-salted and would not be stable across
runs) while preserving the *entire* TripleStore contract:

* **insertion-order iteration** — the façade keeps the global
  ``_triples`` dict itself (membership + order); only the SPO/POS/OSP
  indexes move down into the shards, so ``list(store)`` is byte-identical
  to the unsharded store at any shard count;
* **one write path** — the façade inherits the flat store's mutators,
  which go through the same ``_insert``/``_delete``/``_reset`` hooks WAL
  replay drives; only the stamping step is routed, once per touched
  shard per batch. ``version`` counts façade batches (the WAL's LSN);
  ``epoch`` and ``predicate_version`` are the largest of the shards'
  (and the façade's own), so a write made directly on a sub-store moves
  them too and the derived-read memos see it;
* **deterministic reads** — a subject-bound pattern routes to exactly one
  shard; an unbound-subject pattern broadcasts to the shards that contain
  the bound predicate (predicate-routed broadcast) and k-way-merges the
  per-shard sorted results with the same ``_term_key`` order the
  unsharded ``match`` produces. The fan-out can run through a
  :class:`~repro.core.executor.ParallelExecutor`; results are identical
  at any worker count.

:class:`DurableShardedTripleStore` is the flat
:class:`~repro.kg.wal.DurableTripleStore` plus this routing, by
cooperative inheritance: one ``wal.log``, one ``snapshot.nt`` and the same
:func:`~repro.kg.wal.recover`, byte-identical on disk to the flat store at
any shard count. Each batch is logged atomically as one record. The only
sharded-specific file is the advisory ``manifest.json`` recording the
shard count; replay routes every triple afresh, so a directory recovers
under any shard count.
"""

from __future__ import annotations

import heapq
import json
import os
import zlib
from operator import attrgetter, itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.kg.store import TripleStore, _distinct, _term_key
from repro.kg.triples import IRI, Literal, Term, Triple
from repro.kg.wal import DurableTripleStore

__all__ = [
    "DEFAULT_SHARDS", "DurableShardedTripleStore", "MANIFEST_FILENAME",
    "ShardedTripleStore", "shard_of",
]

DEFAULT_SHARDS = 4

_subject = itemgetter(0)
_subject_predicate = itemgetter(0, 1)
_epoch = attrgetter("_epoch")

#: Advisory shard-count manifest inside a durable sharded directory.
MANIFEST_FILENAME = "manifest.json"


def shard_of(subject: IRI, shard_count: int) -> int:
    """The shard owning ``subject``: CRC32 of the IRI, mod the shard count.

    CRC32 rather than ``hash()`` because Python salts string hashes per
    process — routing must agree between the writer, a recovery in a fresh
    process, and any future reader of the same directory.
    """
    return zlib.crc32(subject.value.encode("utf-8")) % shard_count


class ShardedTripleStore(TripleStore):
    """N hash-partitioned sub-stores behind the full TripleStore contract.

    The façade owns global membership and insertion order (the inherited
    ``_triples`` dict) plus a predicate registry that replicates the POS
    index's key lifecycle (created on first use, dropped when emptied) so
    ``relations()``/``stats()`` stay byte-identical. The inherited
    SPO/POS/OSP maps stay empty — all index structure lives in the shards.
    """

    def __init__(self, triples: Optional[Iterable[Triple]] = None, *,
                 shards: int = DEFAULT_SHARDS, executor=None):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        # Shard state must exist before TripleStore.__init__, which calls
        # add_all (and so our hooks) for any seed triples.
        self._shards: List[TripleStore] = [TripleStore() for _ in range(shards)]
        self._executor = executor
        self._pred_counts: Dict[IRI, int] = {}
        super().__init__(triples)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def shards(self) -> Tuple[TripleStore, ...]:
        """The sub-stores, in shard order (read-only view)."""
        return tuple(self._shards)

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    def shard_index(self, subject: IRI) -> int:
        """Which shard owns ``subject``."""
        return shard_of(subject, len(self._shards))

    def shard_stats(self) -> List[Dict[str, int]]:
        """Per-shard triple/relation counts and versions (``repro kg stats``)."""
        return [{"triples": len(shard), "relations": len(shard.relations()),
                 "version": shard.version}
                for shard in self._shards]

    # ------------------------------------------------------------------
    # Read tokens and stamping
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """The largest of the façade's and the shards' epochs.

        Every epoch is fresh from one counter, so the largest moves on
        every façade batch and on every write made directly on a shard,
        and never returns to an earlier value.
        """
        return max(self._epoch, max(map(_epoch, self._shards)))

    def predicate_version(self, predicate: IRI) -> int:
        """The largest of the shards' stamps for ``predicate``."""
        # A plain loop: this runs on every cached label read.
        largest = 0
        for shard in self._shards:
            stamp = shard._predicate_versions.get(predicate,
                                                  shard._cleared_at)
            if stamp > largest:
                largest = stamp
        return largest

    def _bump(self, triples: Optional[Iterable[Triple]]) -> None:
        """Stamp each touched shard once for the batch, then the façade."""
        groups = dict.fromkeys(range(len(self._shards))) \
            if triples is None else self._by_shard(triples)
        for index, group in groups.items():
            self._shards[index]._bump(group)
        super()._bump(triples)

    def _by_shard(self, triples: Iterable[Triple]) -> Dict[int, List[Triple]]:
        """``triples`` grouped by owning shard, in first-seen order."""
        groups: Dict[int, List[Triple]] = {}
        for t in triples:
            groups.setdefault(self.shard_index(t.subject), []).append(t)
        return groups

    def _bump_pred(self, predicate: IRI, delta: int) -> None:
        count = self._pred_counts.get(predicate, 0) + delta
        if count <= 0:
            # Dropping the key (and re-appending on the next add) replicates
            # the POS index's key order exactly — relations() depends on it.
            self._pred_counts.pop(predicate, None)
        else:
            self._pred_counts[predicate] = count

    # ------------------------------------------------------------------
    # Reads (route on subject; predicate-routed broadcast otherwise)
    # ------------------------------------------------------------------
    def _read(self, index: int, fn: Callable[[TripleStore], List]):
        """Apply one read closure to the shard at ``index``.

        Every per-shard read in the contract funnels through this hook —
        subject-routed single-shard lookups and each branch of a broadcast
        alike — so a subclass can interpose a transport (replica choice,
        fault injection, failover) without re-implementing the routing
        logic. The base implementation reads the local sub-store directly.
        """
        return fn(self._shards[index])

    def _targets(self, predicate: Optional[IRI]) -> List[int]:
        """Broadcast target *indices*: with a bound predicate, only the
        shards that actually contain it (predicate-routed broadcast)."""
        if predicate is None:
            return list(range(len(self._shards)))
        return [i for i, s in enumerate(self._shards)
                if s.has_predicate(predicate)]

    def _fanout(self, targets: List[int],
                fn: Callable[[TripleStore], List]) -> List[List]:
        executor = self._executor
        if executor is not None and not executor.sequential and len(targets) > 1:
            return executor.map(targets, lambda i: self._read(i, fn),
                                label="kg.shard")
        return [self._read(i, fn) for i in targets]

    @staticmethod
    def _merge(parts: List[List], key) -> List:
        live = [part for part in parts if part]
        if not live:
            return []
        if len(live) == 1:
            return live[0]
        return list(heapq.merge(*live, key=key))

    def contains(self, subject: Term, predicate: Term, object: Term) -> bool:
        # Façade membership, like an all-bound ``match``: no shard read.
        return isinstance(subject, IRI) and isinstance(predicate, IRI) and \
            Triple(subject, predicate, object) in self._triples

    def membership(self, subject: Optional[Term], predicate: Term,
                   object: Optional[Term]) -> Callable[[Term], bool]:
        # Façade membership, like ``contains``: no shard read. A plain
        # tuple hashes and compares as the ``Triple`` it spells, and a
        # non-IRI subject or predicate is simply absent.
        triples = self._triples
        if subject is None:
            return lambda term: (term, predicate, object) in triples
        return lambda term: (subject, predicate, term) in triples

    def match(self, subject: Optional[IRI] = None,
              predicate: Optional[IRI] = None,
              object: Optional[Term] = None) -> List[Triple]:
        s, p, o = subject, predicate, object
        if s is None and p is None and o is None:
            return list(self._triples)
        if s is not None and p is not None and o is not None:
            t = Triple(s, p, o)
            return [t] if t in self._triples else []
        if s is not None:
            return self._read(self.shard_index(s), lambda sh: sh.match(s, p, o))
        parts = self._fanout(self._targets(p), lambda sh: sh.match(s, p, o))
        # Per-shard results arrive in the unsharded order for their branch;
        # the merge key re-states that order so the k-way merge reproduces
        # the monolithic store's output exactly. Subjects and predicates
        # are IRIs, whose tuple order is their ``_term_key`` order.
        if p is not None and o is not None:
            key = _subject
        elif p is not None:
            key = lambda t: (_term_key(t.object), _term_key(t.subject))  # noqa: E731
        else:  # o bound only
            key = _subject_predicate
        return self._merge(parts, key)

    def match_count(self, subject: Optional[IRI] = None,
                    predicate: Optional[IRI] = None,
                    object: Optional[Term] = None) -> int:
        s, p, o = subject, predicate, object
        if s is None and p is None and o is None:
            return len(self._triples)
        if s is not None and p is not None and o is not None:
            return int(self.contains(s, p, o))
        if s is not None:
            return self._read(self.shard_index(s),
                              lambda sh: sh.match_count(s, p, o))
        return sum(self._fanout(self._targets(p),
                                lambda sh: sh.match_count(s, p, o)))

    def subjects(self, predicate: Optional[IRI] = None,
                 object: Optional[Term] = None) -> List[IRI]:
        p, o = predicate, object
        if p is None and o is None:
            return _distinct(t.subject for t in self._triples)
        if p is not None and o is None:
            # Dedup over the merged match stream — identical to the
            # unsharded first-appearance-in-(object, subject)-order.
            return _distinct(t.subject for t in self.match(None, p, None))
        # Subjects are disjoint across shards, so a plain sorted merge of
        # the per-shard (already sorted, already distinct) lists suffices.
        parts = self._fanout(self._targets(p), lambda sh: sh.subjects(p, o))
        return self._merge(parts, None)

    def predicates(self, subject: Optional[IRI] = None,
                   object: Optional[Term] = None) -> List[IRI]:
        s, o = subject, object
        if s is not None:
            return self._read(self.shard_index(s),
                              lambda sh: sh.predicates(s, o))
        if o is None:
            return _distinct(t.predicate for t in self._triples)
        return _distinct(t.predicate for t in self.match(None, None, o))

    def objects(self, subject: Optional[IRI] = None,
                predicate: Optional[IRI] = None) -> List[Term]:
        s, p = subject, predicate
        if s is not None:
            return self._read(self.shard_index(s),
                              lambda sh: sh.objects(s, p))
        if p is None:
            return _distinct(t.object for t in self._triples)
        # The same object may live in several shards; merge with
        # adjacent-equal dedup (equal _term_key implies equal term).
        parts = self._fanout(self._targets(p), lambda sh: sh.objects(None, p))
        merged = self._merge(parts, _term_key)
        out: List[Term] = []
        for term in merged:
            if not out or out[-1] != term:
                out.append(term)
        return out

    def value(self, subject: IRI, predicate: IRI) -> Optional[Term]:
        return self._read(self.shard_index(subject),
                          lambda sh: sh.value(subject, predicate))

    def relations(self) -> List[IRI]:
        return list(self._pred_counts)

    def has_predicate(self, predicate: IRI) -> bool:
        return predicate in self._pred_counts

    def predicate_stats(self) -> Dict[IRI, Dict[str, int]]:
        out: Dict[IRI, Dict[str, int]] = {}
        per_shard = self._fanout(list(range(len(self._shards))),
                                 lambda sh: sh.predicate_stats())
        for p in self._pred_counts:
            count = subjects = 0
            for stats in per_shard:
                row = stats.get(p)
                if row:
                    count += row["count"]
                    subjects += row["subjects"]  # disjoint across shards
            out[p] = {"count": count, "subjects": subjects,
                      "objects": len(self.objects(None, p))}
        return out

    def stats(self) -> Dict[str, int]:
        return {
            "triples": len(self._triples),
            "entities": len(self.entities()),
            "relations": len(self._pred_counts),
            "literals": sum(1 for t in self._triples
                            if isinstance(t.object, Literal)),
        }

    def copy(self) -> "ShardedTripleStore":
        return ShardedTripleStore(self._triples, shards=len(self._shards),
                                  executor=self._executor)

    # ------------------------------------------------------------------
    # Write hooks: the live mutators and WAL replay both route through
    # these (neither stamps nor calls _committed)
    # ------------------------------------------------------------------
    def _insert(self, triple: Triple) -> bool:
        """Route ``triple`` to its shard; the façade's ``_triples`` value is
        ``None``, the slot a durable snapshot keeps its N-Triples line in."""
        if triple in self._triples:
            return False
        self._triples[triple] = None
        self._bump_pred(triple.predicate, +1)
        self._shards[self.shard_index(triple.subject)]._insert(triple)
        return True

    def _delete(self, triple: Triple) -> bool:
        if triple not in self._triples:
            return False
        del self._triples[triple]
        self._bump_pred(triple.predicate, -1)
        self._shards[self.shard_index(triple.subject)]._delete(triple)
        return True

    def _reset(self) -> None:
        self._triples.clear()
        self._pred_counts.clear()
        for shard in self._shards:
            shard._reset()


class DurableShardedTripleStore(DurableTripleStore, ShardedTripleStore):
    """A sharded store persisted exactly like the flat durable store.

    :class:`~repro.kg.wal.DurableTripleStore` supplies logging, snapshots
    and recovery; :class:`ShardedTripleStore` supplies the routed
    ``_insert``/``_delete``/``_reset`` hooks that the mutators and
    recovery both drive. This class adds only ``manifest.json`` (``{"shards":
    N}``), which lets a resume omit the shard count. It is advisory:
    ``shards=`` overrides it and replay re-routes every triple.
    """

    def __init__(self, directory: str, *, shards: Optional[int] = None,
                 snapshot_every: Optional[int] = None, executor=None,
                 obs=None):
        self.manifest_path = os.path.join(directory, MANIFEST_FILENAME)
        if shards is None:
            shards = self._read_manifest() or DEFAULT_SHARDS
        super().__init__(directory, snapshot_every=snapshot_every, obs=obs,
                         shards=shards, executor=executor)
        self._write_manifest()

    def _read_manifest(self) -> Optional[int]:
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as handle:
                return int(json.load(handle)["shards"])
        except (OSError, ValueError, KeyError):
            return None

    def _write_manifest(self) -> None:
        tmp = self.manifest_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump({"shards": len(self._shards)}, handle)
        os.replace(tmp, self.manifest_path)
