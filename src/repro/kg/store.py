"""An in-memory triple store with hash indexes over all access paths.

The store is the substrate every SPARQL query, completion model, and RAG
retriever in this toolkit runs against. It maintains three nested hash
indexes (SPO, POS, OSP) so that any triple pattern with at least one bound
position is answered without a full scan — the property the E-SPARQL
micro-benchmark measures.
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from types import MappingProxyType
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Set, Tuple)

from repro.core.memo import next_epoch
from repro.kg.triples import IRI, Literal, Term, Triple

_key = itemgetter(0)
_predicate = itemgetter(1)
#: Builds a ``Triple`` from index terms, which were checked on insert.
_triple = tuple.__new__
#: The default of every index probe: one shared read-only empty mapping,
#: so a probe that misses allocates nothing.
_EMPTY: Mapping = MappingProxyType({})


class TripleStore:
    """A set of triples with SPO/POS/OSP indexes and pattern matching.

    The store behaves like a mathematical set of triples: duplicate inserts
    are idempotent, iteration order is insertion order (useful for
    reproducible tests), and all pattern queries return freshly constructed
    lists so callers may mutate the store while holding results.
    """

    def __init__(self, triples: Optional[Iterable[Triple]] = None):
        self._triples: Dict[Triple, Optional[str]] = {}
        self._spo: Dict[IRI, Dict[IRI, Set[Term]]] = defaultdict(lambda: defaultdict(set))
        self._pos: Dict[IRI, Dict[Term, Set[IRI]]] = defaultdict(lambda: defaultdict(set))
        self._osp: Dict[Term, Dict[IRI, Set[IRI]]] = defaultdict(lambda: defaultdict(set))
        self._version = 0
        self._epoch = self._cleared_at = next_epoch()
        self._predicate_versions: Dict[IRI, int] = {}
        if triples is not None:
            self.add_all(triples)

    @property
    def version(self) -> int:
        """The number of effective mutation batches: the WAL's LSN.

        A durable store logs each batch under this value and recovery
        restores it. Derived reads key on :attr:`epoch` instead.
        """
        return self._version

    @property
    def epoch(self) -> int:
        """The read token: it moves on every effective batch and ``clear``.

        Taken from :func:`~repro.core.memo.next_epoch`, so no later state
        of this store, and no state of another store (a copy included),
        repeats a value. Compare it only for equality.
        """
        return self._epoch

    def predicate_version(self, predicate: IRI) -> int:
        """A stamp that moves whenever triples with ``predicate`` change.

        It is the :attr:`epoch` of the last effective batch that added or
        removed a triple with ``predicate``, or of the last :meth:`clear`
        (or construction) when none has since. A read cache that depends
        on one predicate (the graph's label cache on ``rdfs:label``) keys
        on it, so writes to other predicates leave the cache warm.
        """
        return self._predicate_versions.get(predicate, self._cleared_at)

    def _bump(self, triples: Optional[Iterable[Triple]]) -> None:
        """Stamp one effective batch (``None``: a ``clear``).

        The batch's predicates are stamped first and the epoch is
        published last, so a reader that sees the new epoch also sees the
        new stamps. Every mutator ends here, after the data changed.
        """
        epoch = next_epoch()
        if triples is None:
            self._cleared_at = epoch
            self._predicate_versions.clear()
        else:
            self._predicate_versions.update(
                dict.fromkeys(map(_predicate, triples), epoch))
        self._version += 1
        self._epoch = epoch

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, triple: Triple) -> bool:
        """Insert ``triple``; returns True if it was not already present."""
        if not self._insert(triple):
            return False
        self._bump((triple,))
        self._committed("add", (triple,))
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Insert every triple; returns the number actually added.

        Bulk-load fast path: the whole batch is **one effective mutation**,
        so it is stamped once (and only when at least one triple was
        actually new). Read caches keyed on :attr:`epoch` only need to
        observe *that* the store changed; stamping per triple would
        invalidate them ``n`` times per load for no extra safety.
        """
        added = [t for t in triples if self._insert(t)]
        if added:
            self._bump(added)
            self._committed("add", added)
        return len(added)

    def _insert(self, triple: Triple) -> bool:
        """Index ``triple`` without stamping it (see :meth:`_bump`).

        The ``_triples`` value is ``None``: a durable store's snapshot
        fills it with the triple's N-Triples line (see
        :meth:`~repro.kg.wal.DurableTripleStore.snapshot`), and a
        re-added triple starts over with ``None`` at its new position.
        """
        if triple in self._triples:
            return False
        self._triples[triple] = None
        s, p, o = triple
        self._spo[s][p].add(o)
        self._pos[p][o].add(s)
        self._osp[o][s].add(p)
        return True

    def remove(self, triple: Triple) -> bool:
        """Remove ``triple``; returns True if it was present."""
        if not self._delete(triple):
            return False
        self._bump((triple,))
        self._committed("remove", (triple,))
        return True

    def remove_all(self, triples: Iterable[Triple]) -> int:
        """Remove every triple; returns the number actually removed.

        Like :meth:`add_all`, one stamp per *effective* batch: a batch
        where nothing was present removes nothing, stamps nothing, and
        invalidates no read caches.
        """
        removed = [t for t in list(triples) if self._delete(t)]
        if removed:
            self._bump(removed)
            self._committed("remove", removed)
        return len(removed)

    def _delete(self, triple: Triple) -> bool:
        """Unindex ``triple`` without stamping it (see :meth:`_bump`)."""
        if triple not in self._triples:
            return False
        del self._triples[triple]
        s, p, o = triple
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
        self._bump(None)
        self._committed("clear", ())

    def _reset(self) -> None:
        """Drop every triple without stamping (see :meth:`_bump`)."""
        self._triples.clear()
        self._spo.clear()
        self._pos.clear()
        self._osp.clear()

    def _committed(self, op: str, triples: Iterable[Triple]) -> None:
        """Hook invoked after every *effective* mutation batch.

        ``op`` is one of ``"add"``/``"remove"``/``"clear"`` and ``triples``
        holds exactly the triples that changed state (empty for ``clear``).
        The base store does nothing; durable subclasses append the batch to
        a write-ahead log. The hook fires *after* :meth:`_bump`, so the
        current :attr:`version` is the batch's LSN.
        """

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def contains(self, subject: Term, predicate: Term, object: Term) -> bool:
        """Whether ``(subject, predicate, object)`` is stored.

        A membership probe on the SPO index that builds no ``Triple``, so
        any terms may be passed: a literal subject is simply absent.
        """
        return object in self._spo.get(subject, _EMPTY).get(predicate, ())

    def membership(self, subject: Optional[Term], predicate: Term,
                   object: Optional[Term]) -> Callable[[Term], bool]:
        """A membership test for the free end of a one-free-end pattern.

        Exactly one of ``subject``/``object`` is ``None``; the test takes
        a term for that end and answers :meth:`contains`. One index read:
        the POS bucket of ``(predicate, object)`` or the SPO bucket of
        ``(subject, predicate)``, whose ``__contains__`` is the test.
        Use it within one read; a later write may or may not show in it.
        """
        if subject is None:
            return self._pos.get(predicate, _EMPTY).get(object, ()).__contains__
        return self._spo.get(subject, _EMPTY).get(predicate, ()).__contains__

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
            return [_triple(Triple, (s, p, obj)) for obj in
                    _sorted_terms(self._spo.get(s, _EMPTY).get(p, ()))]
        if p is not None and o is not None:
            return [_triple(Triple, (subj, p, o)) for subj in
                    _sorted_iris(self._pos.get(p, _EMPTY).get(o, ()))]
        if s is not None and o is not None:
            return [_triple(Triple, (s, pred, o)) for pred in
                    _sorted_iris(self._osp.get(o, _EMPTY).get(s, ()))]
        out: List[Triple] = []
        if s is not None:
            for pred, objs in sorted(self._spo.get(s, _EMPTY).items(), key=_key):
                out.extend([_triple(Triple, (s, pred, obj))
                            for obj in _sorted_terms(objs)])
            return out
        if p is not None:
            for obj, subjs in sorted(self._pos.get(p, _EMPTY).items(),
                                     key=_term_item_key):
                out.extend([_triple(Triple, (subj, p, obj))
                            for subj in _sorted_iris(subjs)])
            return out
        if o is not None:
            for subj, preds in sorted(self._osp.get(o, _EMPTY).items(), key=_key):
                out.extend([_triple(Triple, (subj, pred, o))
                            for pred in _sorted_iris(preds)])
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
            return int(self.contains(s, p, o))
        if s is not None and p is not None:
            return len(self._spo.get(s, _EMPTY).get(p, ()))
        if p is not None and o is not None:
            return len(self._pos.get(p, _EMPTY).get(o, ()))
        if s is not None and o is not None:
            return len(self._osp.get(o, _EMPTY).get(s, ()))
        if s is not None:
            return sum(len(objs) for objs in self._spo.get(s, _EMPTY).values())
        if p is not None:
            return sum(len(subjs) for subjs in self._pos.get(p, _EMPTY).values())
        if o is not None:
            return sum(len(preds) for preds in self._osp.get(o, _EMPTY).values())
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
            return _sorted_iris(self._pos.get(p, _EMPTY).get(o, ()))
        if p is not None:
            return _distinct(
                subj
                for _, subjs in sorted(self._pos.get(p, _EMPTY).items(),
                                       key=_term_item_key)
                for subj in _sorted_iris(subjs))
        if o is not None:
            return _sorted_iris(self._osp.get(o, _EMPTY))
        return _distinct(t.subject for t in self._triples)

    def predicates(self, subject: Optional[IRI] = None, object: Optional[Term] = None) -> List[IRI]:
        """Distinct predicates of triples matching the (s, o) pattern.

        Index-key reads like :meth:`subjects`, via SPO/OSP.
        """
        s, o = subject, object
        if s is not None and o is not None:
            return _sorted_iris(self._osp.get(o, _EMPTY).get(s, ()))
        if s is not None:
            return _sorted_iris(self._spo.get(s, _EMPTY))
        if o is not None:
            return _distinct(
                pred
                for _, preds in sorted(self._osp.get(o, _EMPTY).items(), key=_key)
                for pred in _sorted_iris(preds))
        return _distinct(t.predicate for t in self._triples)

    def objects(self, subject: Optional[IRI] = None, predicate: Optional[IRI] = None) -> List[Term]:
        """Distinct objects of triples matching the (s, p) pattern.

        Index-key reads like :meth:`subjects`, via SPO/POS.
        """
        s, p = subject, predicate
        if s is not None and p is not None:
            return _sorted_terms(self._spo.get(s, _EMPTY).get(p, ()))
        if s is not None:
            return _distinct(
                obj
                for _, objs in sorted(self._spo.get(s, _EMPTY).items(), key=_key)
                for obj in _sorted_terms(objs))
        if p is not None:
            return _sorted_terms(self._pos.get(p, _EMPTY))
        return _distinct(t.object for t in self._triples)

    def value(self, subject: IRI, predicate: IRI) -> Optional[Term]:
        """The unique object for (subject, predicate), or None.

        Raises ValueError when more than one object exists — callers that
        expect functional properties should hear about violations.
        """
        objs = self._spo.get(subject, _EMPTY).get(predicate, ())
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
        keyed on :attr:`epoch`.
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
        return (0, term[0], "", "")
    lexical, datatype, language = term
    return (1, lexical, datatype or "", language or "")


def _term_item_key(item: Tuple[Term, object]) -> Tuple[int, str, str, str]:
    """:func:`_term_key` of an index item's key (a mixed IRI/Literal)."""
    return _term_key(item[0])


def _sorted_terms(terms) -> List[Term]:
    """Mixed IRIs and literals as a fresh list in :func:`_term_key` order."""
    return sorted(terms, key=_term_key) if len(terms) > 1 else list(terms)


def _sorted_iris(iris) -> List[IRI]:
    """IRIs as a fresh sorted list.

    An IRI is the 1-tuple of its value, so its tuple order is its
    :func:`_term_key` order and the sort compares in C, with no key.
    """
    return sorted(iris) if len(iris) > 1 else list(iris)


def _distinct(items: Iterable) -> List:
    seen: Dict = {}
    for item in items:
        seen.setdefault(item, None)
    return list(seen)
