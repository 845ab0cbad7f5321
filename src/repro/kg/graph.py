"""A graph-shaped façade over :class:`~repro.kg.store.TripleStore`.

Most surveyed methods think of a KG as a labelled multigraph — neighbours,
k-hop subgraphs, relation paths — rather than as a bag of triples. The
:class:`KnowledgeGraph` wraps a store and adds those operations plus the
label/alias/description machinery LLM-facing code needs for verbalization.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.memo import Memo, Segments
from repro.core.observability import cache_stats_dict
from repro.kg.store import TripleStore, _term_key
from repro.kg.triples import IRI, Literal, RDF, RDFS, Term, Triple, term_from_python

#: Predicate used for human-readable labels.
LABEL = RDFS.label
#: Predicate used for long-form descriptions (RQ1 output target).
COMMENT = RDFS.comment
#: Predicate used for instance typing.
TYPE = RDF.type

#: A path step: (relation, neighbour, direction) where direction is
#: ``"out"`` when the triple is (node, relation, neighbour) and ``"in"``
#: when it is (neighbour, relation, node).
Step = Tuple[IRI, Term, str]


class KnowledgeGraph:
    """A knowledge graph: a triple store plus graph navigation helpers."""

    def __init__(self, store: Optional[TripleStore] = None, name: str = "kg"):
        self.store = store if store is not None else TripleStore()
        self.name = name
        # Read-path memos for the verbalization hot path (DESIGN.md "KG
        # read caches"). The label, description and types memos each key
        # on the store's stamp for their one predicate, so a write to
        # another predicate leaves them warm. The label reverse index
        # keeps one segment per backing store (per shard for a sharded
        # façade), each on that store's epoch, so a write to one shard
        # rebuilds one segment; its local-name fallback keys on the
        # store's epoch. Any effective write, through the graph, on
        # ``self.store`` or on one of its shards, and any swap of
        # ``self.store``, moves the tokens these read.
        self._labels = Memo(lambda store: store.predicate_version(LABEL))
        self._descriptions = Memo(
            lambda store: store.predicate_version(COMMENT))
        self._types = Memo(lambda store: store.predicate_version(TYPE))
        self._label_segments = Segments(_label_segment)
        self._local_names = Memo(attrgetter("epoch"), 1)

    def cache_stats(self) -> Dict[str, int]:
        """Read-path cache counters in the canonical cache-stats schema.

        ``find_by_label`` counts one lookup per call: a hit when no
        segment rebuilt.
        """
        memos = [memo.stats() for memo in
                 (self._labels, self._descriptions, self._types)]
        segments = self._label_segments
        return cache_stats_dict(
            hits=sum(m["hits"] for m in memos) + segments.hits,
            misses=sum(m["misses"] for m in memos) + segments.misses,
            evictions=sum(m["evictions"] for m in memos),
            invalidations=sum(m["invalidations"] for m in memos),
            size=sum(m["size"] for m in memos))

    def label_index_stats(self) -> Dict[str, int]:
        """Maintenance counters for the segmented label reverse index.

        ``segments`` is the backing-store count (shards, or 1),
        ``rebuilds`` the number of per-segment rebuilds so far — under
        shard-aware invalidation a write costs one rebuild, not one per
        segment. ``entries`` is the total number of indexed labels.
        Reading them revalidates the segments, as a lookup does.
        """
        segments = self._label_segments
        indexes = segments.values(self._backing_stores())
        return {
            "segments": len(indexes),
            "rebuilds": segments.rebuilds,
            "entries": sum(len(rows) for index in indexes
                           for rows in index.values()),
        }

    # ------------------------------------------------------------------
    # Construction sugar
    # ------------------------------------------------------------------
    def add(self, subject: IRI, predicate: IRI, obj) -> Triple:
        """Add one statement, coercing plain Python objects to literals."""
        triple = Triple(subject, predicate, term_from_python(obj))
        self.store.add(triple)
        return triple

    def add_triples(self, triples: Iterable[Triple]) -> int:
        """Bulk-add pre-built triples; returns the number actually added."""
        return self.store.add_all(triples)

    def set_label(self, entity: IRI, label: str) -> None:
        """Attach a human-readable label to an entity (or relation)."""
        self.add(entity, LABEL, label)

    def set_description(self, entity: IRI, text: str) -> None:
        """Attach a long-form natural-language description to an entity."""
        self.add(entity, COMMENT, text)

    def set_type(self, entity: IRI, cls: IRI) -> None:
        """Declare ``entity`` an instance of class ``cls``."""
        self.add(entity, TYPE, cls)

    # ------------------------------------------------------------------
    # Label access (what LLM-facing code verbalizes)
    # ------------------------------------------------------------------
    def label(self, term: Term) -> str:
        """The best human-readable name for a term.

        Falls back to the IRI local name (with underscores split) so every
        term is always verbalizable.
        """
        if isinstance(term, Literal):
            return term.lexical
        return self._labels.get(self.store, term, _scan_label, term)

    def description(self, entity: IRI) -> Optional[str]:
        """The attached description of an entity, if any."""
        return self._descriptions.get(self.store, entity, _scan_description,
                                      entity)

    def types(self, entity: IRI) -> List[IRI]:
        """The declared classes of an entity."""
        return list(self._types.get(self.store, entity, _scan_types, entity))

    def instances(self, cls: IRI) -> List[IRI]:
        """All declared instances of a class."""
        return [t.subject for t in self.store.match(None, TYPE, cls)]

    def _backing_stores(self) -> Sequence[TripleStore]:
        """The independently-stamped stores behind ``self.store``.

        A :class:`~repro.kg.sharding.ShardedTripleStore` exposes its
        sub-stores via ``shards``; anything else is one backing store.
        """
        shards = getattr(self.store, "shards", None)
        return tuple(shards) if shards else (self.store,)

    def find_by_label(self, label: str) -> List[IRI]:
        """Entities whose label matches ``label`` case-insensitively.

        Answered from a *segmented* label→entities reverse index: one
        segment per backing store (per shard when the store is sharded),
        each keyed on that store's own epoch. A write to one shard
        rebuilds only that shard's segment, so interleaved write/read
        workloads keep their hit rate. Lookups merge the per-segment
        entry lists by ``(label-object, subject)`` term key — exactly the
        order the unsharded single-index build produced.
        """
        wanted = label.strip().lower()
        rows: List[Tuple[tuple, IRI]] = []
        for index in self._label_segments.values(self._backing_stores()):
            rows.extend(index.get(wanted, ()))
        rows.sort(key=lambda row: row[0])
        out = [entity for _, entity in rows]
        if not out:
            # Fall back to local-name matching so generated IRIs resolve
            # too. This index stays global (keyed on the store's epoch):
            # it is built in store insertion order, which cannot be
            # decomposed per shard, and the fallback only serves misses.
            local_index = self._local_names.get(self.store, None,
                                                _local_name_index)
            out = list(local_index.get(wanted.replace(" ", "_"), ()))
        return out

    # ------------------------------------------------------------------
    # Navigation
    # ------------------------------------------------------------------
    def outgoing(self, entity: IRI) -> List[Triple]:
        """Triples with ``entity`` as subject."""
        return self.store.match(entity, None, None)

    def incoming(self, entity: IRI) -> List[Triple]:
        """Triples with ``entity`` as object."""
        return self.store.match(None, None, entity)

    def neighbours(self, entity: IRI, relation: Optional[IRI] = None,
                   direction: str = "both") -> List[Step]:
        """The one-hop neighbourhood of an entity.

        ``direction`` is ``"out"``, ``"in"`` or ``"both"``. Literal
        neighbours are included for ``"out"`` steps (attribute values).
        """
        steps: List[Step] = []
        if direction in ("out", "both"):
            for t in self.store.match(entity, relation, None):
                steps.append((t.predicate, t.object, "out"))
        if direction in ("in", "both"):
            for t in self.store.match(None, relation, entity):
                steps.append((t.predicate, t.subject, "in"))
        return steps

    def degree(self, entity: IRI) -> int:
        """Total number of incident triples (in + out)."""
        return self.store.match_count(entity, None, None) + self.store.match_count(None, None, entity)

    def subgraph_triples(self, seeds: Sequence[IRI], hops: int = 1,
                         max_triples: Optional[int] = None) -> List[Triple]:
        """The k-hop neighbourhood around the seed entities, as a list.

        This is the retrieval primitive LARK, RoG, KG-GPT, KAPING and
        SPARQLGEN all share: gather every triple reachable within ``hops``
        edges of any seed, optionally capped at ``max_triples``. Nodes
        expand in IRI order per hop, each node's outgoing triples before
        its incoming ones; a triple appears once, where first seen.
        Callers that only iterate the neighbourhood (prompt rendering)
        should use this instead of :meth:`subgraph`, which indexes it.
        """
        out: List[Triple] = []
        seen: Set[Triple] = set()
        frontier: Set[IRI] = set(seeds)
        visited: Set[IRI] = set()
        for _ in range(hops):
            next_frontier: Set[IRI] = set()
            for node in sorted(frontier, key=lambda e: e.value):
                if node in visited:
                    continue
                visited.add(node)
                for t in self.outgoing(node) + self.incoming(node):
                    if max_triples is not None and len(out) >= max_triples:
                        return out
                    if t not in seen:
                        seen.add(t)
                        out.append(t)
                    for term in (t.subject, t.object):
                        if isinstance(term, IRI) and term not in visited:
                            next_frontier.add(term)
            frontier = next_frontier
        return out

    def subgraph(self, seeds: Sequence[IRI], hops: int = 1,
                 max_triples: Optional[int] = None) -> TripleStore:
        """:meth:`subgraph_triples` as an indexed store, in the same order."""
        return TripleStore(self.subgraph_triples(seeds, hops, max_triples))

    def paths(self, source: IRI, target: IRI, max_hops: int = 3,
              max_paths: int = 25) -> List[List[Step]]:
        """Simple relation paths from ``source`` to ``target`` (both directions).

        Each path is a list of steps; used by multi-hop QA and question
        generation. Breadth-first so shorter paths come first.
        """
        results: List[List[Step]] = []
        queue: deque = deque([(source, [])])
        while queue and len(results) < max_paths:
            node, path = queue.popleft()
            if len(path) >= max_hops:
                continue
            for relation, neighbour, direction in self.neighbours(node):
                if not isinstance(neighbour, IRI):
                    continue
                if any(step[1] == neighbour for step in path) or neighbour == source:
                    continue
                new_path = path + [(relation, neighbour, direction)]
                if neighbour == target:
                    results.append(new_path)
                    if len(results) >= max_paths:
                        break
                else:
                    queue.append((neighbour, new_path))
        return results

    def random_walk(self, start: IRI, length: int, rng) -> List[Step]:
        """A seeded random walk used by dataset and question generators."""
        walk: List[Step] = []
        node = start
        for _ in range(length):
            steps = [s for s in self.neighbours(node, direction="out") if isinstance(s[1], IRI)]
            if not steps:
                break
            steps.sort(key=lambda s: (s[0].value, s[1].value if isinstance(s[1], IRI) else ""))
            relation, neighbour, direction = steps[rng.randrange(len(steps))]
            walk.append((relation, neighbour, direction))
            node = neighbour  # type: ignore[assignment]
        return walk

    # ------------------------------------------------------------------
    # Verbalization (shared by RQ1, fact checking, RAG, QA)
    # ------------------------------------------------------------------
    def verbalize_triple(self, triple: Triple) -> str:
        """Render a triple as a short English sentence.

        This is the "triple verbalization" step the survey's fact-checking
        and KG-to-text sections rely on.
        """
        subject = self.label(triple.subject)
        predicate = self.label(triple.predicate)
        obj = self.label(triple.object)
        return f"{subject} {_humanize_relation(predicate)} {obj}."

    def verbalize(self, triples: Iterable[Triple]) -> str:
        """Render a set of triples as a sentence-per-triple paragraph."""
        return " ".join(self.verbalize_triple(t) for t in triples)

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Store statistics for reports."""
        return self.store.stats()

    def copy(self, name: Optional[str] = None) -> "KnowledgeGraph":
        """A deep-enough copy (triples are immutable) of this graph."""
        return KnowledgeGraph(self.store.copy(), name=name or self.name)

    def save(self, path: str, format: str = "nt",
             prefixes: Optional[Dict[str, str]] = None) -> None:
        """Persist the graph to disk as N-Triples (``nt``) or Turtle (``ttl``)."""
        from repro.kg import rdf
        if format == "nt":
            rdf.dump_ntriples(self.store, path)
        elif format == "ttl":
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(rdf.dumps_turtle(self.store, prefixes))
        else:
            raise ValueError(f"unknown format {format!r}; use 'nt' or 'ttl'")

    @classmethod
    def durable(cls, directory: str, snapshot_every: Optional[int] = None,
                obs=None, name: Optional[str] = None) -> "KnowledgeGraph":
        """A graph over a crash-recoverable store persisted in ``directory``.

        The backing :class:`~repro.kg.wal.DurableTripleStore` recovers any
        existing snapshot + WAL on construction and logs every subsequent
        mutation; see the ``repro.kg.wal`` module for the on-disk format.
        """
        from repro.kg.wal import DurableTripleStore
        store = DurableTripleStore(directory, snapshot_every=snapshot_every,
                                   obs=obs)
        return cls(store, name=name or directory.rstrip("/").rsplit("/", 1)[-1])

    @classmethod
    def sharded(cls, shards: Optional[int] = None,
                directory: Optional[str] = None,
                snapshot_every: Optional[int] = None, executor=None,
                obs=None, name: Optional[str] = None) -> "KnowledgeGraph":
        """A graph over a hash-sharded store (optionally durable).

        With ``directory`` the backing store is a
        :class:`~repro.kg.sharding.DurableShardedTripleStore` (the flat
        durable layout plus a shard manifest); without it, an
        in-memory :class:`~repro.kg.sharding.ShardedTripleStore`. Either
        way the store is byte-identical to an unsharded one, so the
        graph's caches and navigation helpers work unchanged — but the
        label reverse index and secondary indexes invalidate per shard.

        ``shards=None`` means "the directory's manifest count" for a
        durable graph (so resuming never has to repeat the count) and the
        package default for an in-memory one.
        """
        from repro.kg.sharding import (DEFAULT_SHARDS,
                                       DurableShardedTripleStore,
                                       ShardedTripleStore)
        if directory is not None:
            store: TripleStore = DurableShardedTripleStore(
                directory, shards=shards, snapshot_every=snapshot_every,
                executor=executor, obs=obs)
            return cls(store,
                       name=name or directory.rstrip("/").rsplit("/", 1)[-1])
        return cls(ShardedTripleStore(shards=shards or DEFAULT_SHARDS,
                                      executor=executor),
                   name=name or "kg")

    @classmethod
    def load(cls, path: str, name: Optional[str] = None) -> "KnowledgeGraph":
        """Load a graph saved with :meth:`save` (format inferred from suffix)."""
        from repro.kg import rdf
        if path.endswith(".ttl"):
            with open(path, "r", encoding="utf-8") as handle:
                triples = rdf.loads_turtle(handle.read())
            store = TripleStore(triples)
        else:
            store = rdf.load_ntriples(path)
        return cls(store, name=name or path.rsplit("/", 1)[-1])

    def __len__(self) -> int:
        return len(self.store)


def _scan_label(store: TripleStore, term: Term) -> str:
    for t in store.match(term, LABEL, None):
        if isinstance(t.object, Literal):
            return t.object.lexical
    return term.local_name.replace("_", " ")


def _scan_description(store: TripleStore, entity: IRI) -> Optional[str]:
    for t in store.match(entity, COMMENT, None):
        if isinstance(t.object, Literal):
            return t.object.lexical
    return None


def _scan_types(store: TripleStore, entity: IRI) -> List[IRI]:
    return [t.object for t in store.match(entity, TYPE, None)
            if isinstance(t.object, IRI)]


def _local_name_index(store: TripleStore) -> Dict[str, List[IRI]]:
    built: Dict[str, List[IRI]] = {}
    for entity in store.entities():
        built.setdefault(entity.local_name.lower(), []).append(entity)
    return built


def _label_segment(backing: TripleStore) -> Dict[str, List[Tuple[tuple, IRI]]]:
    """One backing store's lower-cased label → (sort key, entity) rows."""
    built: Dict[str, List[Tuple[tuple, IRI]]] = {}
    for t in backing.match(None, LABEL, None):
        if isinstance(t.object, Literal):
            built.setdefault(t.object.lexical.lower(), []).append(
                ((_term_key(t.object), _term_key(t.subject)), t.subject))
    return built


def _humanize_relation(predicate_label: str) -> str:
    """Turn a camelCase/snake_case relation name into verb-ish English."""
    label = predicate_label.replace("_", " ")
    out = []
    for ch in label:
        if ch.isupper() and out and out[-1] != " ":
            out.append(" ")
        out.append(ch.lower())
    return "".join(out)
