"""A graph-shaped façade over :class:`~repro.kg.store.TripleStore`.

Most surveyed methods think of a KG as a labelled multigraph — neighbours,
k-hop subgraphs, relation paths — rather than as a bag of triples. The
:class:`KnowledgeGraph` wraps a store and adds those operations plus the
label/alias/description machinery LLM-facing code needs for verbalization.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

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
        # Read-path caches for the verbalization hot path. Each of the
        # label, description and types caches depends on one predicate
        # (rdfs:label, rdfs:comment, rdf:type). A read first compares the
        # store's version; when it has moved, a cache is flushed only if
        # the store's stamp for its predicate moved too
        # (``TripleStore.predicate_version``). Any effective add/remove/
        # clear, including ones made directly on ``self.store`` or on one
        # of its shards, moves the version and the stamps of the
        # predicates it wrote, so cached reads can never be stale, and a
        # write to another predicate leaves them warm. See DESIGN.md "KG
        # read caches".
        #
        # A single lock guards every cache dict and counter; the expensive
        # store scans run *outside* it (the HashEmbedder pattern), with the
        # lookup's disposition settled by a recheck under the second
        # acquisition — ParallelExecutor workers share one graph without
        # corrupting the caches or losing counter increments.
        self._cache_lock = threading.Lock()
        self._cache_version = -1
        self._cache_stamps: Tuple[int, int, int] = (-1, -1, -1)
        self._label_cache: Dict[Term, str] = {}
        self._description_cache: Dict[IRI, Optional[str]] = {}
        self._types_cache: Dict[IRI, List[IRI]] = {}
        # The label→entities reverse index is *segmented*: one segment per
        # backing store (per shard for a sharded façade, one otherwise),
        # each stamped with its backing store's version at build time. A
        # write to shard k only invalidates shard k's segment, so lookups
        # served by the other shards stay warm — the wholesale-rebuild
        # behaviour this replaces cold-started every lookup on any write.
        self._label_segments: List[Dict] = []
        self._label_segment_rebuilds = 0
        self._local_name_index: Optional[Dict[str, List[IRI]]] = None
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_evictions = 0
        self._cache_invalidations = 0

    def _sync_caches_locked(self) -> int:
        """Flush stale caches; returns the synced version. Caller holds
        ``_cache_lock``."""
        store = self.store
        version = store.version
        if version != self._cache_version:
            stamps = (store.predicate_version(LABEL),
                      store.predicate_version(COMMENT),
                      store.predicate_version(TYPE))
            stale = [cache for cache, old, new in zip(
                         (self._label_cache, self._description_cache,
                          self._types_cache), self._cache_stamps, stamps)
                     if old != new]
            if stale and self._cache_version >= 0:
                self._cache_invalidations += 1
                self._cache_evictions += sum(map(len, stale))
            for cache in stale:
                cache.clear()
            self._cache_version = version
            self._cache_stamps = stamps
            # _label_segments deliberately survives: each segment
            # revalidates against its own backing store's version, so
            # only the segments whose shard actually changed rebuild.
            self._local_name_index = None
        return version

    def cache_stats(self) -> Dict[str, int]:
        """Read-path cache counters in the canonical cache-stats schema."""
        with self._cache_lock:
            return cache_stats_dict(
                hits=self._cache_hits, misses=self._cache_misses,
                evictions=self._cache_evictions,
                invalidations=self._cache_invalidations,
                size=(len(self._label_cache) + len(self._description_cache)
                      + len(self._types_cache)))

    def label_index_stats(self) -> Dict[str, int]:
        """Maintenance counters for the segmented label reverse index.

        ``segments`` is the backing-store count (shards, or 1),
        ``rebuilds`` the number of per-segment rebuilds so far — under
        shard-aware invalidation a write costs one rebuild, not one per
        segment. ``entries`` is the total number of indexed labels.
        """
        with self._cache_lock:
            return {
                "segments": len(self._label_segments),
                "rebuilds": self._label_segment_rebuilds,
                "entries": sum(len(rows)
                               for segment in self._label_segments
                               for rows in segment["index"].values()),
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
        with self._cache_lock:
            version = self._sync_caches_locked()
            cached = self._label_cache.get(term)
            if cached is not None:
                self._cache_hits += 1
                return cached
        # Store scan outside the lock; the miss is only counted under the
        # second acquisition (a racing thread may have filled the entry,
        # in which case this lookup is served from cache and counts a hit).
        result = term.local_name.replace("_", " ")
        for t in self.store.match(term, LABEL, None):
            if isinstance(t.object, Literal):
                result = t.object.lexical
                break
        with self._cache_lock:
            cached = self._label_cache.get(term)
            if cached is not None and self._cache_version == version:
                self._cache_hits += 1
                return cached
            self._cache_misses += 1
            if self._cache_version == version:
                self._label_cache[term] = result
        return result

    def description(self, entity: IRI) -> Optional[str]:
        """The attached description of an entity, if any."""
        with self._cache_lock:
            version = self._sync_caches_locked()
            if entity in self._description_cache:
                self._cache_hits += 1
                return self._description_cache[entity]
        result: Optional[str] = None
        for t in self.store.match(entity, COMMENT, None):
            if isinstance(t.object, Literal):
                result = t.object.lexical
                break
        with self._cache_lock:
            if entity in self._description_cache and \
                    self._cache_version == version:
                self._cache_hits += 1
                return self._description_cache[entity]
            self._cache_misses += 1
            if self._cache_version == version:
                self._description_cache[entity] = result
        return result

    def types(self, entity: IRI) -> List[IRI]:
        """The declared classes of an entity."""
        with self._cache_lock:
            version = self._sync_caches_locked()
            cached = self._types_cache.get(entity)
            if cached is not None:
                self._cache_hits += 1
                return list(cached)
        result = [t.object for t in self.store.match(entity, TYPE, None)
                  if isinstance(t.object, IRI)]
        with self._cache_lock:
            cached = self._types_cache.get(entity)
            if cached is not None and self._cache_version == version:
                self._cache_hits += 1
                return list(cached)
            self._cache_misses += 1
            if self._cache_version == version:
                self._types_cache[entity] = result
        return list(result)

    def instances(self, cls: IRI) -> List[IRI]:
        """All declared instances of a class."""
        return [t.subject for t in self.store.match(None, TYPE, cls)]

    def _backing_stores(self) -> Sequence[TripleStore]:
        """The independently-versioned stores behind ``self.store``.

        A :class:`~repro.kg.sharding.ShardedTripleStore` exposes its
        sub-stores via ``shards``; anything else is one backing store.
        """
        shards = getattr(self.store, "shards", None)
        return tuple(shards) if shards else (self.store,)

    def find_by_label(self, label: str) -> List[IRI]:
        """Entities whose label matches ``label`` case-insensitively.

        Answered from a *segmented* label→entities reverse index: one
        segment per backing store (per shard when the store is sharded),
        each keyed off that store's own version. A write to one shard
        rebuilds only that shard's segment, so interleaved write/read
        workloads keep their hit rate instead of cold-starting the whole
        index on every version bump. Lookups merge the per-segment entry
        lists by ``(label-object, subject)`` term key — exactly the order
        the unsharded single-index build produced.
        """
        wanted = label.strip().lower()
        rows: List[Tuple[tuple, IRI]] = []
        with self._cache_lock:
            version = self._sync_caches_locked()
            backings = self._backing_stores()
            if len(self._label_segments) != len(backings):
                self._label_segments = [
                    {"version": -1, "index": {}} for _ in backings]
            fresh = True
            for segment, backing in zip(self._label_segments, backings):
                if segment["version"] != backing.version:
                    built: Dict[str, List[Tuple[tuple, IRI]]] = {}
                    for t in backing.match(None, LABEL, None):
                        if isinstance(t.object, Literal):
                            built.setdefault(
                                t.object.lexical.lower(), []).append(
                                ((_term_key(t.object),
                                  _term_key(t.subject)), t.subject))
                    segment["index"] = built
                    segment["version"] = backing.version
                    self._label_segment_rebuilds += 1
                    fresh = False
            if fresh:
                self._cache_hits += 1
            else:
                self._cache_misses += 1
            for segment in self._label_segments:
                rows.extend(segment["index"].get(wanted, ()))
        rows.sort(key=lambda row: row[0])
        out = [entity for _, entity in rows]
        if not out:
            # Fall back to local-name matching so generated IRIs resolve
            # too. This index stays global (keyed off the façade version):
            # it is built in store insertion order, which cannot be
            # decomposed per shard, and the fallback only serves misses.
            with self._cache_lock:
                local_index = self._local_name_index \
                    if self._cache_version == version else None
            if local_index is None:
                built_local: Dict[str, List[IRI]] = {}
                for entity in self.store.entities():
                    built_local.setdefault(
                        entity.local_name.lower(), []).append(entity)
                with self._cache_lock:
                    if self._cache_version == version:
                        if self._local_name_index is None:
                            self._local_name_index = built_local
                        local_index = self._local_name_index
                    else:
                        local_index = built_local
            token = wanted.replace(" ", "_")
            out = list(local_index.get(token, ()))
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


def _humanize_relation(predicate_label: str) -> str:
    """Turn a camelCase/snake_case relation name into verb-ish English."""
    label = predicate_label.replace("_", " ")
    out = []
    for ch in label:
        if ch.isupper() and out and out[-1] != " ":
            out.append(" ")
        out.append(ch.lower())
    return "".join(out)
