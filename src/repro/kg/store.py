"""An in-memory triple store with hash indexes over all access paths.

The store is the substrate every SPARQL query, completion model, and RAG
retriever in this toolkit runs against. It maintains three nested hash
indexes (SPO, POS, OSP) so that any triple pattern with at least one bound
position is answered without a full scan — the property the E-SPARQL
micro-benchmark measures.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.kg.triples import IRI, Literal, Term, Triple


class TripleStore:
    """A set of triples with SPO/POS/OSP indexes and pattern matching.

    The store behaves like a mathematical set of triples: duplicate inserts
    are idempotent, iteration order is insertion order (useful for
    reproducible tests), and all pattern queries return freshly constructed
    lists so callers may mutate the store while holding results.
    """

    def __init__(self, triples: Optional[Iterable[Triple]] = None):
        self._triples: Dict[Triple, None] = {}
        self._spo: Dict[IRI, Dict[IRI, Set[Term]]] = defaultdict(lambda: defaultdict(set))
        self._pos: Dict[IRI, Dict[Term, Set[IRI]]] = defaultdict(lambda: defaultdict(set))
        self._osp: Dict[Term, Dict[IRI, Set[IRI]]] = defaultdict(lambda: defaultdict(set))
        self._version = 0
        if triples is not None:
            self.add_all(triples)

    @property
    def version(self) -> int:
        """A counter bumped by every effective mutation.

        Read-path caches (notably :class:`~repro.kg.graph.KnowledgeGraph`'s
        label/description/type caches) key their validity off this value:
        comparing versions is O(1) and never misses a mutation, including
        mutations made directly on the store behind a graph façade.
        """
        return self._version

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, triple: Triple) -> bool:
        """Insert ``triple``; returns True if it was not already present."""
        if not self._insert(triple):
            return False
        self._version += 1
        self._committed("add", (triple,))
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Insert every triple; returns the number actually added.

        Bulk-load fast path: the whole batch is **one effective mutation**,
        so the version counter is bumped once (and only when at least one
        triple was actually new). Read caches keyed off :attr:`version`
        only need to observe *that* the store changed; bumping per triple
        would invalidate them ``n`` times per load for no extra safety.
        """
        added = [t for t in triples if self._insert(t)]
        if added:
            self._version += 1
            self._committed("add", added)
        return len(added)

    def _insert(self, triple: Triple) -> bool:
        """Index ``triple`` without touching the version counter."""
        if triple in self._triples:
            return False
        self._triples[triple] = None
        s, p, o = triple.as_tuple()
        self._spo[s][p].add(o)
        self._pos[p][o].add(s)
        self._osp[o][s].add(p)
        return True

    def remove(self, triple: Triple) -> bool:
        """Remove ``triple``; returns True if it was present."""
        if not self._delete(triple):
            return False
        self._version += 1
        self._committed("remove", (triple,))
        return True

    def remove_all(self, triples: Iterable[Triple]) -> int:
        """Remove every triple; returns the number actually removed.

        Like :meth:`add_all`, one version bump per *effective* batch: a
        batch where nothing was present removes nothing, bumps nothing,
        and invalidates no read caches.
        """
        removed = [t for t in list(triples) if self._delete(t)]
        if removed:
            self._version += 1
            self._committed("remove", removed)
        return len(removed)

    def _delete(self, triple: Triple) -> bool:
        """Unindex ``triple`` without touching the version counter."""
        if triple not in self._triples:
            return False
        del self._triples[triple]
        s, p, o = triple.as_tuple()
        self._discard_index(self._spo, s, p, o)
        self._discard_index(self._pos, p, o, s)
        self._discard_index(self._osp, o, s, p)
        return True

    @staticmethod
    def _discard_index(index, k1, k2, value) -> None:
        bucket = index[k1][k2]
        bucket.discard(value)
        if not bucket:
            del index[k1][k2]
            if not index[k1]:
                del index[k1]

    def clear(self) -> None:
        """Remove every triple.

        Always counts as one effective mutation (unlike the batch
        mutators, ``clear`` is an explicit whole-store reset and callers
        rely on it invalidating read caches unconditionally).
        """
        self._reset()
        self._version += 1
        self._committed("clear", ())

    def _reset(self) -> None:
        """Drop every triple without touching the version counter."""
        self._triples.clear()
        self._spo.clear()
        self._pos.clear()
        self._osp.clear()

    def _committed(self, op: str, triples: Iterable[Triple]) -> None:
        """Hook invoked after every *effective* mutation batch.

        ``op`` is one of ``"add"``/``"remove"``/``"clear"`` and ``triples``
        holds exactly the triples that changed state (empty for ``clear``).
        The base store does nothing; durable subclasses append the batch to
        a write-ahead log. The hook fires *after* the version bump, so the
        current :attr:`version` is the batch's LSN.
        """

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def match(
        self,
        subject: Optional[IRI] = None,
        predicate: Optional[IRI] = None,
        object: Optional[Term] = None,
    ) -> List[Triple]:
        """All triples matching the pattern; ``None`` positions are wildcards.

        The most selective available index is chosen based on which positions
        are bound, so only fully unbound patterns scan the whole store.
        """
        s, p, o = subject, predicate, object
        if s is not None and p is not None and o is not None:
            t = Triple(s, p, o)
            return [t] if t in self._triples else []
        if s is not None and p is not None:
            return [Triple(s, p, obj) for obj in sorted(self._spo.get(s, {}).get(p, ()), key=_term_key)]
        if p is not None and o is not None:
            return [Triple(subj, p, o) for subj in sorted(self._pos.get(p, {}).get(o, ()), key=_term_key)]
        if s is not None and o is not None:
            return [Triple(s, pred, o) for pred in sorted(self._osp.get(o, {}).get(s, ()), key=_term_key)]
        if s is not None:
            out: List[Triple] = []
            for pred, objs in sorted(self._spo.get(s, {}).items(), key=lambda kv: _term_key(kv[0])):
                out.extend(Triple(s, pred, obj) for obj in sorted(objs, key=_term_key))
            return out
        if p is not None:
            out = []
            for obj, subjs in sorted(self._pos.get(p, {}).items(), key=lambda kv: _term_key(kv[0])):
                out.extend(Triple(subj, p, obj) for subj in sorted(subjs, key=_term_key))
            return out
        if o is not None:
            out = []
            for subj, preds in sorted(self._osp.get(o, {}).items(), key=lambda kv: _term_key(kv[0])):
                out.extend(Triple(subj, pred, o) for pred in sorted(preds, key=_term_key))
            return out
        return list(self._triples)

    def match_count(
        self,
        subject: Optional[IRI] = None,
        predicate: Optional[IRI] = None,
        object: Optional[Term] = None,
    ) -> int:
        """Number of triples matching the pattern, without materializing them."""
        s, p, o = subject, predicate, object
        if s is not None and p is not None and o is not None:
            return 1 if Triple(s, p, o) in self._triples else 0
        if s is not None and p is not None:
            return len(self._spo.get(s, {}).get(p, ()))
        if p is not None and o is not None:
            return len(self._pos.get(p, {}).get(o, ()))
        if s is not None and o is not None:
            return len(self._osp.get(o, {}).get(s, ()))
        if s is not None:
            return sum(len(objs) for objs in self._spo.get(s, {}).values())
        if p is not None:
            return sum(len(subjs) for subjs in self._pos.get(p, {}).values())
        if o is not None:
            return sum(len(preds) for preds in self._osp.get(o, {}).values())
        return len(self._triples)

    def scan_match(
        self,
        subject: Optional[IRI] = None,
        predicate: Optional[IRI] = None,
        object: Optional[Term] = None,
    ) -> List[Triple]:
        """Pattern matching by full scan — the baseline for E-SPARQL.

        Semantically identical to :meth:`match` but deliberately ignores the
        indexes; benchmarks use it to quantify what the indexes buy.
        """
        out = []
        for t in self._triples:
            if subject is not None and t.subject != subject:
                continue
            if predicate is not None and t.predicate != predicate:
                continue
            if object is not None and t.object != object:
                continue
            out.append(t)
        return out

    # ------------------------------------------------------------------
    # Vocabulary accessors
    # ------------------------------------------------------------------
    def subjects(self, predicate: Optional[IRI] = None, object: Optional[Term] = None) -> List[IRI]:
        """Distinct subjects of triples matching the (p, o) pattern.

        Reads distinct keys straight off the POS/OSP indexes (no ``Triple``
        lists are materialized); ordering is identical to deduplicating the
        corresponding :meth:`match` results.
        """
        p, o = predicate, object
        if p is not None and o is not None:
            return sorted(self._pos.get(p, {}).get(o, ()), key=_term_key)
        if p is not None:
            return _distinct(
                subj
                for _, subjs in sorted(self._pos.get(p, {}).items(),
                                       key=lambda kv: _term_key(kv[0]))
                for subj in sorted(subjs, key=_term_key))
        if o is not None:
            return sorted(self._osp.get(o, {}).keys(), key=_term_key)
        return _distinct(t.subject for t in self._triples)

    def predicates(self, subject: Optional[IRI] = None, object: Optional[Term] = None) -> List[IRI]:
        """Distinct predicates of triples matching the (s, o) pattern.

        Index-key reads like :meth:`subjects`, via SPO/OSP.
        """
        s, o = subject, object
        if s is not None and o is not None:
            return sorted(self._osp.get(o, {}).get(s, ()), key=_term_key)
        if s is not None:
            return sorted(self._spo.get(s, {}).keys(), key=_term_key)
        if o is not None:
            return _distinct(
                pred
                for _, preds in sorted(self._osp.get(o, {}).items(),
                                       key=lambda kv: _term_key(kv[0]))
                for pred in sorted(preds, key=_term_key))
        return _distinct(t.predicate for t in self._triples)

    def objects(self, subject: Optional[IRI] = None, predicate: Optional[IRI] = None) -> List[Term]:
        """Distinct objects of triples matching the (s, p) pattern.

        Index-key reads like :meth:`subjects`, via SPO/POS.
        """
        s, p = subject, predicate
        if s is not None and p is not None:
            return sorted(self._spo.get(s, {}).get(p, ()), key=_term_key)
        if s is not None:
            return _distinct(
                obj
                for _, objs in sorted(self._spo.get(s, {}).items(),
                                      key=lambda kv: _term_key(kv[0]))
                for obj in sorted(objs, key=_term_key))
        if p is not None:
            return sorted(self._pos.get(p, {}).keys(), key=_term_key)
        return _distinct(t.object for t in self._triples)

    def value(self, subject: IRI, predicate: IRI) -> Optional[Term]:
        """The unique object for (subject, predicate), or None.

        Raises ValueError when more than one object exists — callers that
        expect functional properties should hear about violations.
        """
        objs = self._spo.get(subject, {}).get(predicate, set())
        if not objs:
            return None
        if len(objs) > 1:
            raise ValueError(
                f"value() on non-functional data: {subject.n3()} {predicate.n3()} has {len(objs)} objects"
            )
        return next(iter(objs))

    def entities(self) -> List[IRI]:
        """Every IRI appearing in subject or object position."""
        seen: Dict[IRI, None] = {}
        for t in self._triples:
            seen.setdefault(t.subject, None)
            if isinstance(t.object, IRI):
                seen.setdefault(t.object, None)
        return list(seen)

    def relations(self) -> List[IRI]:
        """Every predicate in the store."""
        return list(self._pos.keys())

    def has_predicate(self, predicate: IRI) -> bool:
        """Whether any triple uses ``predicate``.

        O(1); the sharded façade uses this for predicate-routed broadcast
        (skipping shards that cannot contribute to a bound-predicate
        pattern) and the query planner for zero-cardinality short-circuits.
        """
        return predicate in self._pos

    def predicate_stats(self) -> Dict[IRI, Dict[str, int]]:
        """Per-predicate cardinality statistics for the query planner.

        For each predicate: the triple ``count`` and the number of distinct
        ``subjects``/``objects`` it relates. O(total triples); callers
        (:class:`repro.sparql.planner.StoreStatistics`) cache the result
        keyed off :attr:`version`.
        """
        out: Dict[IRI, Dict[str, int]] = {}
        for p, objmap in self._pos.items():
            subjects: Set[IRI] = set()
            count = 0
            for subjs in objmap.values():
                count += len(subjs)
                subjects.update(subjs)
            out[p] = {"count": count, "subjects": len(subjects),
                      "objects": len(objmap)}
        return out

    # ------------------------------------------------------------------
    # Whole-store operations
    # ------------------------------------------------------------------
    def copy(self) -> "TripleStore":
        """A shallow copy (terms are immutable so this is a safe fork)."""
        return TripleStore(self._triples)

    def union(self, other: "TripleStore") -> "TripleStore":
        """A new store containing every triple of both stores."""
        out = self.copy()
        out.add_all(other)
        return out

    def difference(self, other: "TripleStore") -> "TripleStore":
        """A new store with the triples of ``self`` not in ``other``."""
        return TripleStore(t for t in self._triples if t not in other)

    def stats(self) -> Dict[str, int]:
        """Coarse statistics used by dataset reports and benchmarks."""
        return {
            "triples": len(self._triples),
            "entities": len(self.entities()),
            "relations": len(self._pos),
            "literals": sum(1 for t in self._triples if isinstance(t.object, Literal)),
        }


def _term_key(term: Term) -> Tuple[int, str, str, str]:
    """A total order over mixed IRI/Literal collections for stable output."""
    if isinstance(term, IRI):
        return (0, term.value, "", "")
    return (1, term.lexical, term.datatype or "", term.language or "")


def _distinct(items: Iterable) -> List:
    seen: Dict = {}
    for item in items:
        seen.setdefault(item, None)
    return list(seen)
