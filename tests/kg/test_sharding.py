"""Unit tests for the sharded triple store (`repro.kg.sharding`).

The load-bearing property is *transparency*: a ShardedTripleStore must be
byte-identical to an unsharded TripleStore — same results, same order —
for every read in the contract, at every shard count and worker count.
Most tests therefore compare against a reference store built from the
same triples rather than against hand-written expectations.
"""

import os

import pytest

from repro.core.executor import ParallelExecutor
from repro.kg.sharding import (
    DurableShardedTripleStore,
    ShardedTripleStore,
    shard_of,
)
from repro.kg.store import TripleStore
from repro.kg.triples import IRI, XSD, Literal, Triple
from repro.kg.wal import (
    WAL_FILENAME,
    DurableTripleStore,
    WalCorruptionError,
    recover,
    scan_wal,
)

EX = lambda name: IRI(f"http://example.org/{name}")

SHARD_COUNTS = (1, 2, 4, 7)


def corpus():
    """A deliberately lumpy dataset: shared objects, literals, one dense
    predicate, subjects that land on different shards at every count."""
    triples = []
    for i in range(30):
        s = EX(f"person{i}")
        triples.append(Triple(s, EX("knows"), EX(f"person{(i * 7) % 30}")))
        triples.append(Triple(s, EX("age"),
                              Literal(str(20 + i % 9), datatype=XSD.integer)))
        triples.append(Triple(s, EX("team"), EX(f"team{i % 3}")))
    triples.append(Triple(EX("team0"), EX("name"), Literal("Blue")))
    triples.append(Triple(EX("team1"), EX("name"), Literal("Red")))
    return triples


def equivalent_reads(sharded, reference):
    """Assert every contract read agrees — values AND order."""
    assert list(sharded) == list(reference)
    assert len(sharded) == len(reference)
    s_probe, p_probe = EX("person3"), EX("knows")
    o_probe = EX("team1")
    combos = [
        (None, None, None),
        (s_probe, None, None),
        (None, p_probe, None),
        (None, None, o_probe),
        (s_probe, p_probe, None),
        (s_probe, None, o_probe),
        (None, p_probe, o_probe),
        (s_probe, EX("team"), o_probe),
    ]
    for s, p, o in combos:
        assert sharded.match(s, p, o) == reference.match(s, p, o), (s, p, o)
        assert sharded.match_count(s, p, o) == reference.match_count(s, p, o)
    assert sharded.subjects() == reference.subjects()
    assert sharded.subjects(p_probe) == reference.subjects(p_probe)
    assert sharded.subjects(EX("team"), o_probe) == \
        reference.subjects(EX("team"), o_probe)
    assert sharded.predicates() == reference.predicates()
    assert sharded.predicates(s_probe) == reference.predicates(s_probe)
    assert sharded.predicates(None, o_probe) == \
        reference.predicates(None, o_probe)
    assert sharded.objects() == reference.objects()
    assert sharded.objects(s_probe) == reference.objects(s_probe)
    assert sharded.objects(None, EX("team")) == \
        reference.objects(None, EX("team"))
    assert sharded.value(s_probe, EX("age")) == \
        reference.value(s_probe, EX("age"))
    assert sharded.relations() == reference.relations()
    assert sharded.entities() == reference.entities()
    assert sharded.stats() == reference.stats()
    assert sharded.predicate_stats() == reference.predicate_stats()


class TestRouting:
    def test_shard_of_is_stable_and_in_range(self):
        for n in SHARD_COUNTS:
            for i in range(50):
                index = shard_of(EX(f"x{i}"), n)
                assert 0 <= index < n
                assert index == shard_of(EX(f"x{i}"), n)

    def test_subject_triples_live_on_their_shard(self):
        store = ShardedTripleStore(corpus(), shards=4)
        for triple in store:
            owner = store.shards[store.shard_index(triple.subject)]
            assert triple in owner
            for other in store.shards:
                if other is not owner:
                    assert triple not in other

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            ShardedTripleStore(shards=0)


class TestTransparency:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_reads_identical_to_unsharded(self, shards):
        data = corpus()
        equivalent_reads(ShardedTripleStore(data, shards=shards),
                         TripleStore(data))

    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_parallel_fanout_is_order_identical(self, workers):
        data = corpus()
        sharded = ShardedTripleStore(
            data, shards=4, executor=ParallelExecutor(max_workers=workers))
        equivalent_reads(sharded, TripleStore(data))

    def test_reads_identical_after_mutation_history(self):
        data = corpus()
        sharded = ShardedTripleStore(shards=4)
        reference = TripleStore()
        for store in (sharded, reference):
            store.add_all(data[:40])
            store.remove_all(data[5:15])
            store.add_all(data[10:60])
            store.remove(data[20])
            store.add(data[5])
        equivalent_reads(sharded, reference)

    def test_clear_empties_everything(self):
        sharded = ShardedTripleStore(corpus(), shards=4)
        sharded.clear()
        assert len(sharded) == 0
        assert sharded.relations() == []
        assert all(len(shard) == 0 for shard in sharded.shards)

    def test_copy_preserves_content_and_topology(self):
        sharded = ShardedTripleStore(corpus(), shards=4)
        clone = sharded.copy()
        assert clone.shard_count == 4
        assert list(clone) == list(sharded)
        clone.add(Triple(EX("new"), EX("p"), EX("o")))
        assert len(clone) == len(sharded) + 1


class TestVersionComposition:
    def test_one_bump_per_effective_batch(self):
        store = ShardedTripleStore(shards=4)
        data = corpus()
        store.add_all(data)  # touches all 4 shards, still one batch
        assert store.version == 1
        store.remove_all(data[:8])
        assert store.version == 2
        store.add_all(data[:8])
        assert store.version == 3

    def test_noop_batches_do_not_bump(self):
        store = ShardedTripleStore(corpus(), shards=4)
        v = store.version
        assert store.add_all(corpus()) == 0
        assert store.remove(Triple(EX("nope"), EX("p"), EX("o"))) is False
        assert store.version == v

    def test_direct_shard_write_raises_composed_version(self):
        store = ShardedTripleStore(corpus(), shards=4)
        v = store.version
        # A write that bypasses the façade must still invalidate
        # version-keyed caches immediately.
        store.shards[2].add(Triple(EX("backdoor"), EX("p"), EX("o")))
        assert store.version > v
        # The next façade batch folds the drift in and keeps monotonicity.
        store.add(Triple(EX("front"), EX("p"), EX("o")))
        assert store.version > v + 1

    def test_shard_stats_shape(self):
        store = ShardedTripleStore(corpus(), shards=4)
        rows = store.shard_stats()
        assert len(rows) == 4
        assert sum(row["triples"] for row in rows) == len(store)
        assert all({"triples", "relations", "version"} <= set(row)
                   for row in rows)


class TestDurableSharded:
    def test_roundtrip_recovers_byte_identically(self, tmp_path):
        directory = str(tmp_path / "kg")
        data = corpus()
        store = DurableShardedTripleStore(directory, shards=4)
        store.add_all(data)
        store.remove_all(data[10:20])
        store.close()
        recovered = recover(directory)
        assert recovered.shard_count == 4  # from the manifest
        assert list(recovered) == list(store)
        assert recovered.version == store.version
        equivalent_reads(recovered, TripleStore(list(store)))
        recovered.close()

    def test_one_log_one_record_per_batch(self, tmp_path):
        directory = str(tmp_path / "kg")
        store = DurableShardedTripleStore(directory, shards=3)
        store.add_all(corpus())
        store.remove_all(corpus()[:5])
        store.close()
        assert sorted(os.listdir(directory)) == ["manifest.json", WAL_FILENAME]
        records, _ = scan_wal(store.wal_path)
        assert [(r.op, r.lsn) for r in records] == [("add", 1), ("remove", 2)]
        assert list(records[0].triples) == corpus()

    def test_snapshot_resets_the_log(self, tmp_path):
        store = DurableShardedTripleStore(str(tmp_path / "kg"), shards=4)
        store.add_all(corpus())
        count = store.snapshot()
        assert count == len(store)
        assert os.path.getsize(store.wal_path) == 0
        store.add(Triple(EX("post"), EX("p"), EX("o")))
        store.close()
        recovered = recover(str(tmp_path / "kg"))
        assert recovered.last_recovery.snapshot_triples == count
        assert recovered.last_recovery.records_replayed == 1
        assert len(recovered) == count + 1
        recovered.close()

    def test_torn_tail_loses_only_the_torn_batch(self, tmp_path):
        directory = str(tmp_path / "kg")
        store = DurableShardedTripleStore(directory, shards=2)
        batches = [corpus()[i:i + 10] for i in range(0, 30, 10)]
        for batch in batches:
            store.add_all(batch)
        store.close()
        # A batch is one record, so tearing the log's tail drops the last
        # batch whole — never part of it.
        with open(store.wal_path, "r+b") as handle:
            handle.seek(-6, os.SEEK_END)
            handle.truncate()
        recovered = recover(directory)
        assert list(recovered) == batches[0] + batches[1]
        assert recovered.version == 2
        assert recovered.last_recovery.truncated_bytes > 0
        recovered.close()
        again = recover(directory)
        assert list(again) == batches[0] + batches[1]
        assert again.last_recovery.truncated_bytes == 0
        again.close()

    def test_manifest_overrides_default_shard_count(self, tmp_path):
        directory = str(tmp_path / "kg")
        store = DurableShardedTripleStore(directory, shards=7)
        store.add_all(corpus())
        store.close()
        recovered = recover(directory)  # no shards= argument
        assert recovered.shard_count == 7
        recovered.close()

    def test_recovery_reroutes_under_new_shard_count(self, tmp_path):
        directory = str(tmp_path / "kg")
        data = corpus()
        store = DurableShardedTripleStore(directory, shards=2)
        store.add_all(data)
        store.close()
        recovered = recover(directory, shards=5)
        assert recovered.shard_count == 5
        assert list(recovered) == list(store)
        equivalent_reads(recovered, TripleStore(data))
        recovered.close()

    def test_clear_is_logged_and_replayed(self, tmp_path):
        directory = str(tmp_path / "kg")
        store = DurableShardedTripleStore(directory, shards=3)
        store.add_all(corpus())
        store.clear()
        store.add(Triple(EX("sole"), EX("p"), EX("o")))
        store.close()
        recovered = recover(directory)
        assert set(recovered) == {Triple(EX("sole"), EX("p"), EX("o"))}
        recovered.close()

    def test_durability_stats(self, tmp_path):
        store = DurableShardedTripleStore(str(tmp_path / "kg"), shards=4)
        store.add_all(corpus())
        stats = store.durability_stats()
        assert stats["triples"] == len(store)
        assert stats["wal_records"] == 1  # one batch, one record
        assert stats["lsn"] == store.version == 1
        store.close()


class TestRecoverShardedEdges:
    def test_manifest_count_mismatch_reroutes(self, tmp_path):
        directory = str(tmp_path / "kg")
        store = DurableShardedTripleStore(directory, shards=3)
        store.add_all(corpus())
        store.close()
        # The manifest now claims five shards; it is advisory and routing
        # happens at replay time, so nothing is lost.
        with open(os.path.join(directory, "manifest.json"), "w") as handle:
            handle.write('{"shards": 5}')
        recovered = recover(directory)
        assert recovered.shard_count == 5
        assert list(recovered) == list(store)
        equivalent_reads(recovered, TripleStore(corpus()))
        recovered.close()

    def test_flat_store_recovers_a_sharded_directory(self, tmp_path):
        directory = str(tmp_path / "kg")
        store = DurableShardedTripleStore(directory, shards=4)
        store.add_all(corpus())
        store.remove_all(corpus()[:3])
        store.close()
        flat = DurableTripleStore(directory)
        assert list(flat) == list(store)
        assert flat.version == store.version
        flat.close()

    def test_recover_without_manifest_is_flat(self, tmp_path):
        directory = str(tmp_path / "kg")
        store = DurableTripleStore(directory)
        store.add_all(corpus())
        store.close()
        recovered = recover(directory)
        assert type(recovered) is DurableTripleStore
        recovered.close()
        sharded = recover(directory, shards=3)
        assert sharded.shard_count == 3
        assert list(sharded) == list(store)
        sharded.close()

    def test_per_shard_layout_is_refused(self, tmp_path):
        directory = tmp_path / "kg"
        (directory / "shard-00").mkdir(parents=True)
        (directory / "shard-00" / WAL_FILENAME).write_bytes(b"")
        (directory / "manifest.json").write_text('{"shards": 1}')
        with pytest.raises(WalCorruptionError, match="per-shard"):
            recover(str(directory))
        with pytest.raises(WalCorruptionError):
            DurableTripleStore(str(directory))


class TestKnowledgeGraphSharded:
    def test_sharded_constructor(self):
        from repro.kg.graph import KnowledgeGraph
        kg = KnowledgeGraph.sharded(shards=3)
        assert kg.store.shard_count == 3
        kg.add(EX("a"), EX("p"), EX("b"))
        assert len(kg.store) == 1

    def test_sharded_durable_constructor(self, tmp_path):
        from repro.kg.graph import KnowledgeGraph
        directory = str(tmp_path / "facts")
        kg = KnowledgeGraph.sharded(shards=2, directory=directory)
        assert kg.name == "facts"
        kg.add(EX("a"), EX("p"), EX("b"))
        kg.store.close()
        resumed = KnowledgeGraph.sharded(directory=directory)
        assert resumed.store.shard_count == 2
        assert len(resumed.store) == 1
        resumed.store.close()
