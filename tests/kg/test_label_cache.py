"""Cache-invalidation tests for the KnowledgeGraph read-path caches.

The label/description/type caches and the label→entity reverse index are
keyed off the store's mutation counter, and the three caches also off the
store's stamp for their predicate, so every effective ``add`` /
``remove`` / ``clear`` — through the façade or directly on the store or
one of its shards — must be visible on the very next read, while a write
to another predicate leaves them warm.
"""

import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kg.graph import COMMENT, LABEL, TYPE, KnowledgeGraph
from repro.kg.store import TripleStore
from repro.kg.triples import IRI, Literal, Namespace, Triple

EX = Namespace("http://example.org/")


def _graph():
    kg = KnowledgeGraph(name="t")
    kg.set_label(EX.alice, "Alice")
    kg.set_label(EX.bob, "Bob")
    kg.set_type(EX.alice, EX.Person)
    kg.set_description(EX.alice, "A test person.")
    kg.add(EX.alice, EX.knows, EX.bob)
    return kg


class TestStoreVersion:
    def test_version_counts_effective_mutations_only(self):
        store = TripleStore()
        triple = Triple(EX.a, EX.p, EX.b)
        v0 = store.version
        assert store.add(triple) is True
        assert store.version == v0 + 1
        assert store.add(triple) is False      # duplicate: no-op
        assert store.version == v0 + 1
        assert store.remove(triple) is True
        assert store.version == v0 + 2
        assert store.remove(triple) is False   # absent: no-op
        assert store.version == v0 + 2
        store.clear()
        assert store.version == v0 + 3

    def test_noop_add_all_does_not_bump_version(self):
        store = TripleStore()
        store.add(Triple(EX.a, EX.p, EX.b))
        v = store.version
        assert store.add_all([Triple(EX.a, EX.p, EX.b)]) == 0
        assert store.add_all([]) == 0
        assert store.version == v

    def test_noop_remove_all_does_not_bump_version(self):
        # Regression guard: a batch removal that touches nothing must not
        # invalidate read caches (the WAL relies on the same rule to keep
        # version == LSN without logging empty records).
        store = TripleStore()
        store.add(Triple(EX.a, EX.p, EX.b))
        v = store.version
        assert store.remove_all([Triple(EX.x, EX.p, EX.y)]) == 0
        assert store.remove_all([]) == 0
        assert store.version == v

    def test_partially_effective_batch_bumps_once(self):
        store = TripleStore()
        store.add(Triple(EX.a, EX.p, EX.b))
        v = store.version
        added = store.add_all([Triple(EX.a, EX.p, EX.b),   # duplicate
                               Triple(EX.c, EX.p, EX.d)])  # new
        assert added == 1
        assert store.version == v + 1
        removed = store.remove_all([Triple(EX.c, EX.p, EX.d),
                                    Triple(EX.x, EX.p, EX.y)])  # absent
        assert removed == 1
        assert store.version == v + 2

    def test_clear_always_bumps(self):
        # clear() is an explicit whole-store reset, not a batch: it
        # invalidates caches even when the store is already empty.
        store = TripleStore()
        v = store.version
        store.clear()
        assert store.version == v + 1


class TestLabelInvalidation:
    def test_label_reflects_add(self):
        kg = _graph()
        assert kg.label(EX.carol) == "carol"          # local-name fallback
        kg.set_label(EX.carol, "Carol C.")
        assert kg.label(EX.carol) == "Carol C."

    def test_label_reflects_remove(self):
        kg = _graph()
        assert kg.label(EX.alice) == "Alice"
        kg.store.remove(Triple(EX.alice, LABEL, Literal("Alice")))
        assert kg.label(EX.alice) == "alice"          # back to the fallback

    def test_label_reflects_clear(self):
        kg = _graph()
        assert kg.label(EX.alice) == "Alice"
        kg.store.clear()
        assert kg.label(EX.alice) == "alice"

    def test_direct_store_mutation_behind_the_facade(self):
        # Writes that bypass the KnowledgeGraph entirely still invalidate.
        kg = _graph()
        assert kg.label(EX.dave) == "dave"
        kg.store.add(Triple(EX.dave, LABEL, Literal("Dave D.")))
        assert kg.label(EX.dave) == "Dave D."

    def test_repeated_reads_hit_the_cache(self):
        kg = _graph()
        kg.label(EX.alice)
        hits_before = kg.cache_stats()["hits"]
        for _ in range(5):
            assert kg.label(EX.alice) == "Alice"
        assert kg.cache_stats()["hits"] >= hits_before + 5

    def test_only_label_writes_flush_labels(self):
        kg = _graph()
        kg.label(EX.alice)
        before = kg.cache_stats()
        kg.add(EX.alice, EX.knows, EX.carol)      # not a label
        assert kg.label(EX.alice) == "Alice"
        after = kg.cache_stats()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
        assert after["invalidations"] == before["invalidations"]
        kg.store.remove(Triple(EX.alice, LABEL, Literal("Alice")))
        kg.set_label(EX.alice, "Alicia")           # label writes flush
        assert kg.label(EX.alice) == "Alicia"
        assert kg.cache_stats()["invalidations"] == before["invalidations"] + 1
        assert kg.cache_stats()["misses"] == before["misses"] + 1

    def test_noop_mutations_do_not_invalidate(self):
        kg = _graph()
        kg.label(EX.alice)
        invalidations = kg.cache_stats()["invalidations"]
        kg.store.add(Triple(EX.alice, LABEL, Literal("Alice")))  # duplicate
        kg.label(EX.alice)
        assert kg.cache_stats()["invalidations"] == invalidations


class TestFindByLabelInvalidation:
    def test_reverse_index_reflects_add(self):
        kg = _graph()
        assert kg.find_by_label("Alice") == [EX.alice]
        kg.set_label(EX.carol, "Alice")               # now ambiguous
        assert kg.find_by_label("Alice") == [EX.alice, EX.carol]

    def test_reverse_index_reflects_remove(self):
        kg = _graph()
        assert kg.find_by_label("Bob") == [EX.bob]
        kg.store.remove(Triple(EX.bob, LABEL, Literal("Bob")))
        # Falls back to local-name matching once no label matches.
        assert kg.find_by_label("Bob") == [EX.bob]
        assert kg.find_by_label("nonexistent") == []

    def test_reverse_index_reflects_clear(self):
        kg = _graph()
        assert kg.find_by_label("Alice") == [EX.alice]
        kg.store.clear()
        assert kg.find_by_label("Alice") == []

    def test_case_insensitive_after_invalidation(self):
        kg = _graph()
        kg.find_by_label("alice")
        kg.set_label(EX.eve, "EVE")
        assert kg.find_by_label("eve") == [EX.eve]


class TestTypesAndDescriptions:
    def test_types_reflect_mutations(self):
        kg = _graph()
        assert kg.types(EX.alice) == [EX.Person]
        kg.set_type(EX.alice, EX.Employee)
        assert set(kg.types(EX.alice)) == {EX.Person, EX.Employee}

    def test_types_returns_a_fresh_list(self):
        kg = _graph()
        first = kg.types(EX.alice)
        first.append(EX.Tampered)
        assert kg.types(EX.alice) == [EX.Person]

    def test_description_reflects_mutations(self):
        kg = _graph()
        assert kg.description(EX.alice) == "A test person."
        assert kg.description(EX.bob) is None
        kg.set_description(EX.bob, "Another one.")
        assert kg.description(EX.bob) == "Another one."


class TestForks:
    def test_copy_fork_is_independent(self):
        kg = _graph()
        assert kg.label(EX.alice) == "Alice"          # warm the cache
        fork = kg.copy(name="fork")
        fork.set_label(EX.alice, "Alicia")
        fork.store.remove(Triple(EX.alice, LABEL, Literal("Alice")))
        assert fork.label(EX.alice) == "Alicia"
        assert kg.label(EX.alice) == "Alice"          # original untouched
        kg.set_label(EX.bob, "Bobby")
        assert fork.find_by_label("Bobby") == []

    def test_union_fork_sees_both_sides(self):
        kg = _graph()
        other = KnowledgeGraph(name="other")
        other.set_label(EX.zoe, "Zoe")
        merged = KnowledgeGraph(kg.store.union(other.store), name="merged")
        assert merged.find_by_label("Alice") == [EX.alice]
        assert merged.find_by_label("Zoe") == [EX.zoe]
        merged.store.remove(Triple(EX.zoe, LABEL, Literal("Zoe")))
        # zoe's only triple is gone, so she is no longer in the store at all.
        assert merged.find_by_label("Zoe") == []
        assert kg.find_by_label("Zoe") == []            # source untouched


class TestThreadedCacheCounters:
    """Regression: the KG read caches were lock-free; concurrent readers
    corrupted the LRU dicts and lost counter increments. The caches now
    settle each lookup's disposition under a lock (scans stay outside it),
    so ``hits + misses`` always equals the number of lookups."""

    def test_concurrent_reads_keep_counter_invariant(self):
        import threading

        kg = _graph()
        terms = [EX.alice, EX.bob] * 3
        rounds = 200
        errors = []

        def reader():
            try:
                for _ in range(rounds):
                    for term in terms:
                        kg.label(term)
                        kg.types(term)
                    kg.description(EX.alice)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = kg.cache_stats()
        lookups = 4 * rounds * (2 * len(terms) + 1)
        assert stats["hits"] + stats["misses"] == lookups
        # Values stayed correct under the race.
        assert kg.label(EX.alice) == "Alice"
        assert kg.types(EX.alice) == [EX.Person]

    def test_concurrent_reads_with_writer_never_go_stale(self):
        import threading

        kg = _graph()
        stop = threading.Event()
        errors = []
        # The handshake: after write ``i`` the writer waits until some
        # reader has finished a read it began after that write. Between
        # two writes a reader then caches the label and, after the next
        # write, finds it stale: ``invalidations > 0`` no longer depends
        # on the scheduler running a reader mid-loop.
        handshake = threading.Condition()
        written = [0]
        read = [0]

        def reader():
            try:
                while not stop.is_set():
                    with handshake:
                        after = written[0]
                    label = kg.label(EX.alice)
                    assert label.startswith("Alice")
                    with handshake:
                        if after > read[0]:
                            read[0] = after
                            handshake.notify_all()
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for i in range(1, 51):
            kg.set_label(EX.alice, f"Alice v{i}")
            kg.store.remove(Triple(EX.alice, LABEL, Literal(f"Alice v{i}")))
            with handshake:
                written[0] = i
                handshake.wait_for(lambda: read[0] >= i or bool(errors),
                                   timeout=5)
        stop.set()
        for t in threads:
            t.join()
        assert not errors
        stats = kg.cache_stats()
        assert stats["invalidations"] > 0
        assert stats["hits"] + stats["misses"] > 0


class TestReaderMidWrite:
    """Regression: a reader that syncs while a write is half published
    must not keep a stale cache. A tracer runs a reader on a second graph
    at every line the store executes during a write, the deterministic
    form of a reader thread preempting the writer anywhere. A store that
    moved its version before the stamp of the written predicate let that
    reader record the new version with the old stamp, and its ``label``
    stayed stale until some later write."""

    @staticmethod
    def _write_with_reader_at_every_line(write, reader, subject):
        import sys
        from repro.kg import sharding, store as store_module

        store_files = {store_module.__file__, sharding.__file__}
        busy = []

        def read_here(frame, event, arg):
            if event == "line" and not busy:
                busy.append(True)
                try:
                    reader.label(subject)
                    reader.description(subject)
                    reader.types(subject)
                finally:
                    busy.pop()
            return read_here

        def tracer(frame, event, arg):
            if busy or frame.f_code.co_filename not in store_files:
                return None
            return read_here

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            write()
        finally:
            sys.settrace(previous)

    @pytest.mark.parametrize("shards", [None, 2])
    def test_reader_between_any_two_lines_of_a_write_never_goes_stale(
            self, shards):
        from repro.kg.sharding import ShardedTripleStore
        store = TripleStore() if shards is None else \
            ShardedTripleStore(shards=shards)
        writer = KnowledgeGraph(store, name="writer")
        reader = KnowledgeGraph(store, name="reader")
        writes = []
        for i in range(4):
            # Label writes alternate with writes to other predicates.
            writes.append(lambda i=i: writer.set_label(EX.alice, f"Alice v{i}"))
            writes.append(lambda i=i: writer.add(EX.alice, EX.knows,
                                                 IRI(f"http://example.org/p{i}")))
            writes.append(lambda i=i: writer.set_description(EX.alice, f"d{i}"))
            writes.append(lambda i=i: writer.set_type(EX.alice, EX[f"C{i}"]))
            writes.append(lambda i=i: store.remove(
                Triple(EX.alice, LABEL, Literal(f"Alice v{i}"))))
            # The same label write made directly on the backing shard.
            direct = Triple(EX.alice, LABEL, Literal(f"direct v{i}"))
            writes.append(lambda t=direct: _backing_for(store, EX.alice).add(t))
            writes.append(lambda t=direct: _backing_for(store, EX.alice).remove(t))
            # A clear of the backing store drops a label that is present.
            writes.append(lambda i=i: writer.set_label(EX.alice, f"Alice w{i}"))
            writes.append(lambda: _backing_for(store, EX.alice).clear())
        for write in writes:
            self._write_with_reader_at_every_line(write, reader, EX.alice)
            fresh = KnowledgeGraph(store, name="fresh")
            assert reader.label(EX.alice) == fresh.label(EX.alice)
            assert reader.description(EX.alice) == \
                fresh.description(EX.alice)
            assert reader.types(EX.alice) == fresh.types(EX.alice)

    @staticmethod
    def _lines_of(write):
        """The lines the store files execute during ``write()``."""
        import sys
        from repro.kg import sharding, store as store_module

        store_files = {store_module.__file__, sharding.__file__}
        lines = []

        def count(frame, event, arg):
            if event == "line":
                lines.append(frame.f_lineno)
            return count

        def tracer(frame, event, arg):
            return count if frame.f_code.co_filename in store_files else None

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            write()
        finally:
            sys.settrace(previous)
        return len(lines)

    @staticmethod
    def _write_with_read_at_line(write, read, target):
        """Run ``write()``, calling ``read()`` once, at its ``target``-th
        store line."""
        import sys
        from repro.kg import sharding, store as store_module

        store_files = {store_module.__file__, sharding.__file__}
        seen = []

        def read_here(frame, event, arg):
            if event == "line" and len(seen) <= target:
                seen.append(True)
                if len(seen) == target + 1:
                    sys.settrace(None)
                    try:
                        read()
                    finally:
                        sys.settrace(tracer)
            return read_here

        def tracer(frame, event, arg):
            if len(seen) > target or \
                    frame.f_code.co_filename not in store_files:
                return None
            return read_here

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            write()
        finally:
            sys.settrace(previous)
        assert len(seen) == target + 1

    @pytest.mark.parametrize("write_kind", ["add_all", "remove_all", "clear"])
    def test_fresh_reader_preempting_a_sharded_write_never_goes_stale(
            self, write_kind, memo_fixture):
        """One new reader per line of a 2-shard write reads once at that
        line and once after the write; the second read must equal a fresh
        reader's. Keeping one reader across lines would hide the stale
        case: it re-syncs at every later line."""
        from repro.kg.sharding import ShardedTripleStore
        from repro.sparql.planner import StoreStatistics

        make_task, llm, question = memo_fixture
        people = _two_shard_subjects(2)
        facts = [t for i, person in enumerate(people) for t in (
            Triple(person, LABEL, Literal(f"Name {i}")),
            Triple(person, COMMENT, Literal(f"About {i}")),
            Triple(person, TYPE, EX[f"Class{i}"]))]
        links = [Triple(people[0], EX.knows, people[1])]

        def build():
            store = ShardedTripleStore(shards=2)
            store.add_all(links if write_kind == "add_all" else links + facts)
            write = {"add_all": lambda: store.add_all(facts),
                     "remove_all": lambda: store.remove_all(facts),
                     "clear": store.clear}[write_kind]
            return store, write

        def reads(kg, stats, task):
            return ([(kg.label(p), kg.description(p), kg.types(p))
                     for p in people],
                    [kg.find_by_label(f"Name {i}") for i in range(2)],
                    stats.predicate(LABEL), stats.total(),
                    task.subgraph_text(question, llm))

        store, write = build()
        lines = self._lines_of(write)
        assert lines > 10
        stale = []
        for target in range(lines):
            store, write = build()
            kg, stats = KnowledgeGraph(store, name="r"), StoreStatistics(store)
            task = make_task(kg)
            self._write_with_read_at_line(
                write, lambda: reads(kg, stats, task), target)
            fresh_kg = KnowledgeGraph(store, name="fresh")
            if reads(kg, stats, task) != reads(
                    fresh_kg, StoreStatistics(store), make_task(fresh_kg)):
                stale.append(target)
        assert stale == []


class TestStoreSwap:
    """Replacing ``kg.store`` with another store is a write like any
    other: every cached read must follow the new store, even when both
    stores have made the same number of writes."""

    @pytest.mark.parametrize("shards", [None, 4])
    def test_swapped_store_is_read_afresh(self, shards):
        from repro.kg.sharding import ShardedTripleStore

        def one_label(text):
            store = TripleStore() if shards is None else \
                ShardedTripleStore(shards=shards)
            store.add(Triple(EX.e, LABEL, Literal(text)))
            return store

        old, new = one_label("old"), one_label("new")
        assert old.version == new.version == 1
        if shards is not None:
            assert [row["version"] for row in old.shard_stats()] == \
                [row["version"] for row in new.shard_stats()]
        kg = KnowledgeGraph(old, name="t")
        assert kg.label(EX.e) == "old"
        assert kg.find_by_label("old") == [EX.e]
        kg.store = new
        assert kg.label(EX.e) == "new"
        assert kg.find_by_label("old") == []
        assert kg.find_by_label("new") == [EX.e]


class TestLabelSegmentRace:
    def test_segment_built_during_a_write_is_rebuilt(self):
        """A write that lands after a label segment's scan, before the
        lookup returns, shows on the next lookup."""
        store = TripleStore([Triple(EX.alice, LABEL, Literal("Alice"))])
        kg = KnowledgeGraph(store, name="t")
        scan = store.match
        raced = []

        def racing_match(*args, **kwargs):
            found = scan(*args, **kwargs)
            if not raced:  # a writer lands after the scan, before the stamp
                raced.append(True)
                store.add(Triple(EX.bob, LABEL, Literal("Beta")))
            return found

        store.match = racing_match
        kg.find_by_label("alice")
        assert kg.find_by_label("beta") == [EX.bob]


class TestShardAwareLabelSegments:
    """Regression tests for the `find_by_label` reverse index.

    It used to rebuild wholesale on *every* store mutation; it now keeps
    one segment per backing store (one per shard on a sharded store) and
    rebuilds only the segments whose backing version moved.
    """

    def _sharded_graph(self, shards=4, people=20):
        from repro.kg.sharding import ShardedTripleStore
        kg = KnowledgeGraph(ShardedTripleStore(shards=shards), name="t")
        for i in range(people):
            kg.set_label(IRI(f"http://example.org/p{i}"), f"Person {i}")
        return kg

    def test_one_write_rebuilds_one_segment(self):
        kg = self._sharded_graph(shards=4)
        kg.find_by_label("Person 3")
        base = kg.label_index_stats()
        assert base["segments"] == 4
        kg.set_label(EX.fresh, "Fresh Face")
        kg.find_by_label("Fresh Face")
        after = kg.label_index_stats()
        # set_label = remove-old + add-new on ONE shard: only that
        # shard's segment rebuilds, not all four.
        assert after["rebuilds"] - base["rebuilds"] == 1

    def test_interleaved_writes_stay_proportional(self):
        kg = self._sharded_graph(shards=4)
        kg.find_by_label("Person 0")
        base = kg.label_index_stats()["rebuilds"]
        writes = 20
        for i in range(writes):
            kg.add(IRI(f"http://example.org/n{i}"), LABEL,
                   Literal(f"Name {i}"))
            assert kg.find_by_label(f"Name {i}") == \
                [IRI(f"http://example.org/n{i}")]
        rebuilds = kg.label_index_stats()["rebuilds"] - base
        # The old wholesale behavior rebuilt every segment per write
        # (writes * shards); shard-aware invalidation rebuilds exactly
        # the dirty segment.
        assert rebuilds == writes

    def test_unsharded_store_still_one_segment(self):
        kg = _graph()
        kg.find_by_label("Alice")
        stats = kg.label_index_stats()
        assert stats["segments"] == 1
        assert stats["rebuilds"] == 1
        kg.find_by_label("Bob")  # same version: no rebuild
        assert kg.label_index_stats()["rebuilds"] == 1

    def test_read_only_lookups_are_cache_hits(self):
        kg = self._sharded_graph(shards=4)
        kg.find_by_label("Person 1")
        before = kg.cache_stats()
        for i in range(10):
            kg.find_by_label(f"Person {i % 5}")
        after = kg.cache_stats()
        assert after["hits"] - before["hits"] == 10
        assert after["misses"] == before["misses"]

    def test_results_identical_to_unsharded(self):
        from repro.kg.sharding import ShardedTripleStore
        plain = KnowledgeGraph(name="p")
        sharded = KnowledgeGraph(ShardedTripleStore(shards=7), name="s")
        for kg in (plain, sharded):
            for i in range(40):
                kg.set_label(IRI(f"http://example.org/e{i}"), "Shared")
        assert sharded.find_by_label("Shared") == \
            plain.find_by_label("Shared")


# ---------------------------------------------------------------------------
# Property: cached reads equal a fresh, uncached graph after every write
# ---------------------------------------------------------------------------
_SUBJECTS = [EX.e0, EX.e1, EX.e2]
# Per predicate, the objects a generated triple may take: label, comment
# and type each have their own cache, ``knows`` has none.
_OBJECTS = {
    LABEL: [Literal("Ann"), Literal("ANN"), Literal("Bo", language="en")],
    COMMENT: [Literal("first"), Literal("second")],
    TYPE: [EX.C0, EX.C1],
    EX.knows: [EX.e0, EX.e1, EX.e2],
}
_LOOKUPS = ["ann", "bo", "e1", "nobody"]

_coherence_triple = st.builds(
    lambda s, p, i: Triple(s, p, _OBJECTS[p][i % len(_OBJECTS[p])]),
    st.sampled_from(_SUBJECTS), st.sampled_from(sorted(_OBJECTS)),
    st.integers(0, 2))
_coherence_batch = st.lists(_coherence_triple, min_size=1, max_size=4)
_coherence_step = st.one_of(
    st.tuples(st.just("add_all"), _coherence_batch),
    st.tuples(st.just("remove_all"), _coherence_batch),
    st.tuples(st.just("clear")),
    st.tuples(st.just("direct_add"), _coherence_triple),
    st.tuples(st.just("direct_remove"), _coherence_triple),
)


def _coherence_store(kind, directory):
    from repro.kg.replication import ReplicatedShardedTripleStore
    from repro.kg.sharding import DurableShardedTripleStore, ShardedTripleStore
    from repro.kg.wal import DurableTripleStore
    return {
        "flat": lambda: TripleStore(),
        "sharded-2": lambda: ShardedTripleStore(shards=2),
        "sharded-4": lambda: ShardedTripleStore(shards=4),
        "durable": lambda: DurableTripleStore(directory, snapshot_every=3),
        "durable-sharded": lambda: DurableShardedTripleStore(
            directory, shards=2, snapshot_every=3),
        "replicated": lambda: ReplicatedShardedTripleStore(
            shards=2, replicas=2),
    }[kind]()


def _two_shard_subjects(count):
    """``count`` subjects on each of a 2-shard store's shards, alternating."""
    from repro.kg.sharding import shard_of
    by_shard = {0: [], 1: []}
    for i in range(64):
        subject = EX[f"s{i}"]
        by_shard[shard_of(subject, 2)].append(subject)
    return [s for pair in zip(by_shard[0], by_shard[1])
            for s in pair][:count]


@pytest.fixture(scope="module")
def memo_fixture():
    """A task factory over a graph, a model that grounds the two subjects
    of :func:`_two_shard_subjects`, and a question naming both."""
    import dataclasses

    from repro.kg.datasets import movie_kg
    from repro.llm import SimulatedLLM
    from repro.qa.text2sparql import Text2SparqlTask

    base = movie_kg(seed=3)
    llm = SimulatedLLM()
    for name, subject in zip(("ann", "bo"), _two_shard_subjects(2)):
        llm.entity_lexicon[name] = subject

    def make_task(kg):
        return Text2SparqlTask(dataclasses.replace(base, kg=kg), n=0)

    return make_task, llm, "Does ann know bo?"


def _backing_for(store, subject):
    """The sub-store that owns ``subject`` (the store itself when flat)."""
    shards = getattr(store, "shards", None)
    return shards[store.shard_index(subject)] if shards else store


def _apply_coherence_step(store, step):
    kind = step[0]
    if kind == "add_all":
        store.add_all(step[1])
    elif kind == "remove_all":
        store.remove_all(step[1])
    elif kind == "clear":
        store.clear()
    elif kind == "direct_add":
        _backing_for(store, step[1].subject).add(step[1])
    else:
        _backing_for(store, step[1].subject).remove(step[1])


def _assert_coherent(kg):
    fresh = KnowledgeGraph(kg.store, name="fresh")
    for subject in _SUBJECTS:
        assert kg.label(subject) == fresh.label(subject)
        assert kg.description(subject) == fresh.description(subject)
        assert kg.types(subject) == fresh.types(subject)
    for text in _LOOKUPS:
        assert kg.find_by_label(text) == fresh.find_by_label(text)


class TestCacheCoherence:
    """Whatever the write path (façade batch, ``clear``, or a direct write
    to one shard) and whatever the store, the graph's cached reads equal
    those of a fresh graph over the same store after every step."""

    @pytest.mark.parametrize("kind", ["flat", "sharded-2", "sharded-4",
                                      "durable", "durable-sharded",
                                      "replicated"])
    @settings(max_examples=40, deadline=None)
    @given(steps=st.lists(_coherence_step, min_size=1, max_size=12))
    def test_cached_reads_match_a_fresh_graph(self, kind, steps):
        directory = tempfile.mkdtemp(prefix="coherence-")
        store = _coherence_store(kind, directory)
        try:
            kg = KnowledgeGraph(store, name="cached")
            _assert_coherent(kg)
            for step in steps:
                _apply_coherence_step(store, step)
                _assert_coherent(kg)
        finally:
            getattr(store, "close", lambda: None)()
            shutil.rmtree(directory, ignore_errors=True)
