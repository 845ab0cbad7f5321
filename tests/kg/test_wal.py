"""Unit tests for the WAL + snapshot durability layer (`repro.kg.wal`)."""

import hashlib
import os
import random
import shutil
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.observability import Observability
from repro.kg.datasets import encyclopedia_kg
from repro.kg.graph import COMMENT, LABEL
from repro.kg.sharding import DurableShardedTripleStore
from repro.kg.store import TripleStore
from repro.kg.triples import IRI, XSD, Literal, Triple
from repro.kg.wal import (
    SNAPSHOT_FILENAME,
    WAL_FILENAME,
    DurableTripleStore,
    WalCorruptionError,
    WalRecord,
    WriteAheadLog,
    decode_payload,
    encode_record,
    read_snapshot,
    recover,
    scan_wal,
    write_snapshot,
)
from tests.kg.test_rdf import _triple

EX = lambda name: IRI(f"http://example.org/{name}")


def t(i):
    return Triple(EX(f"s{i}"), EX("p"), EX(f"o{i}"))


class TestRecordCodec:
    def test_round_trip(self):
        record = WalRecord("add", 7, (t(1), t(2)))
        data = encode_record(record)
        assert decode_payload(data[8:]) == record

    def test_round_trip_literal_with_newline(self):
        tricky = Triple(EX("s"), EX("p"), Literal('line1\nline"2"'))
        record = WalRecord("add", 3, (tricky,))
        assert decode_payload(encode_record(record)[8:]) == record

    def test_raw_line_breaks_inside_a_literal_decode(self):
        # Older writers left a carriage return raw; form feeds, U+0085 and
        # U+2028 are always written raw. Only "\n" separates lines.
        tricky = Triple(EX("s"), EX("p"), Literal("a\rb\x0cc\x85d\u2028e"))
        payload = ('add 4\n<http://example.org/s> <http://example.org/p> '
                   '"a\rb\x0cc\x85d\u2028e" .\n').encode("utf-8")
        assert decode_payload(payload) == WalRecord("add", 4, (tricky,))

    def test_clear_record_has_no_triples(self):
        record = WalRecord("clear", 9)
        assert decode_payload(encode_record(record)[8:]) == record

    def test_bad_op_rejected(self):
        with pytest.raises(WalCorruptionError):
            decode_payload(b"explode 3\n")

    def test_bad_lsn_rejected(self):
        with pytest.raises(WalCorruptionError):
            decode_payload(b"add seven\n")

    def test_non_utf8_rejected(self):
        with pytest.raises(WalCorruptionError):
            decode_payload(b"\xff\xfe\x00")


class TestScanWal:
    def _log(self, tmp_path, *records):
        path = str(tmp_path / WAL_FILENAME)
        with open(path, "wb") as handle:
            for record in records:
                handle.write(encode_record(record))
        return path

    def test_reads_all_records(self, tmp_path):
        wanted = [WalRecord("add", i, (t(i),)) for i in range(1, 4)]
        records, truncated = scan_wal(self._log(tmp_path, *wanted))
        assert records == wanted
        assert truncated == 0

    def test_missing_file_is_empty(self, tmp_path):
        assert scan_wal(str(tmp_path / "nope.log")) == ([], 0)

    def test_short_header_tail(self, tmp_path):
        path = self._log(tmp_path, WalRecord("add", 1, (t(1),)))
        with open(path, "ab") as handle:
            handle.write(b"\x00\x00")
        records, truncated = scan_wal(path)
        assert len(records) == 1
        assert truncated == 2

    def test_short_payload_tail(self, tmp_path):
        path = self._log(tmp_path, WalRecord("add", 1, (t(1),)))
        good_size = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(encode_record(WalRecord("add", 2, (t(2),)))[:-5])
        records, truncated = scan_wal(path)
        assert len(records) == 1
        assert truncated == os.path.getsize(path) - good_size

    def test_crc_mismatch_tail(self, tmp_path):
        path = self._log(tmp_path, WalRecord("add", 1, (t(1),)),
                         WalRecord("add", 2, (t(2),)))
        with open(path, "r+b") as handle:
            handle.seek(-3, os.SEEK_END)
            handle.write(b"XXX")
        records, truncated = scan_wal(path)
        assert [r.lsn for r in records] == [1]
        assert truncated > 0

    def test_truncate_cuts_the_tail(self, tmp_path):
        path = self._log(tmp_path, WalRecord("add", 1, (t(1),)))
        good_size = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(b"garbage after the last record")
        records, truncated = scan_wal(path, truncate=True)
        assert truncated == 29
        assert os.path.getsize(path) == good_size
        # Second scan is clean.
        assert scan_wal(path) == (records, 0)


class TestSnapshot:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / SNAPSHOT_FILENAME)
        triples = [t(i) for i in range(5)]
        assert write_snapshot(triples, path, lsn=42) == 5
        loaded, lsn = read_snapshot(path)
        assert set(loaded) == set(triples)
        assert lsn == 42

    def test_no_tmp_file_left_behind(self, tmp_path):
        path = str(tmp_path / SNAPSHOT_FILENAME)
        write_snapshot([t(0)], path, lsn=1)
        assert os.listdir(str(tmp_path)) == [SNAPSHOT_FILENAME]

    def test_unheadered_snapshot_defaults_to_lsn_zero(self, tmp_path):
        path = str(tmp_path / "plain.nt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(t(1).n3() + "\n")
        loaded, lsn = read_snapshot(path)
        assert loaded == [t(1)] and lsn == 0


class TestWriteAheadLog:
    def test_append_counts_records_and_bytes(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / WAL_FILENAME))
        n = wal.append(WalRecord("add", 1, (t(1),)))
        wal.append(WalRecord("add", 2, (t(2),)))
        assert wal.records_written == 2
        assert wal.bytes_written == os.path.getsize(wal.path)
        assert n > 8
        wal.close()

    def test_reset_empties_the_log(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / WAL_FILENAME))
        wal.append(WalRecord("add", 1, (t(1),)))
        wal.reset()
        assert os.path.getsize(wal.path) == 0
        # Appending after a reset reopens lazily.
        wal.append(WalRecord("add", 2, (t(2),)))
        records, _ = scan_wal(wal.path)
        assert [r.lsn for r in records] == [2]
        wal.close()


class TestDurableTripleStore:
    def test_behaves_like_a_triple_store(self, tmp_path):
        store = DurableTripleStore(str(tmp_path / "kg"))
        reference = TripleStore()
        for s in (store, reference):
            s.add(t(1))
            s.add_all([t(2), t(3)])
            s.remove(t(2))
        assert set(store) == set(reference)
        assert store.version == reference.version == 3
        store.close()

    def test_recover_restores_triples_and_version(self, tmp_path):
        directory = str(tmp_path / "kg")
        store = DurableTripleStore(directory)
        store.add_all([t(i) for i in range(6)])
        store.remove(t(0))
        store.close()
        recovered = recover(directory)
        assert set(recovered) == {t(i) for i in range(1, 6)}
        assert recovered.version == store.version == 2
        assert recovered.last_recovery.records_replayed == 2
        recovered.close()

    def test_noop_batches_write_no_records(self, tmp_path):
        store = DurableTripleStore(str(tmp_path / "kg"))
        store.add(t(1))
        assert store.add(t(1)) is False
        assert store.add_all([t(1)]) == 0
        assert store.remove(t(9)) is False
        assert store.remove_all([t(9)]) == 0
        assert store._wal.records_written == 1
        store.close()

    def test_clear_is_logged_and_replayed(self, tmp_path):
        directory = str(tmp_path / "kg")
        store = DurableTripleStore(directory)
        store.add_all([t(1), t(2)])
        store.clear()
        store.add(t(3))
        store.close()
        recovered = recover(directory)
        assert set(recovered) == {t(3)}
        assert recovered.version == 3
        recovered.close()

    def test_snapshot_compacts_and_resets_log(self, tmp_path):
        directory = str(tmp_path / "kg")
        store = DurableTripleStore(directory)
        store.add_all([t(i) for i in range(4)])
        assert store.snapshot() == 4
        assert os.path.getsize(store.wal_path) == 0
        _, lsn = read_snapshot(store.snapshot_path)
        assert lsn == store.version == 1
        store.close()
        recovered = recover(directory)
        assert recovered.last_recovery.snapshot_triples == 4
        assert recovered.last_recovery.records_replayed == 0
        assert recovered.version == 1
        recovered.close()

    def test_snapshot_every_autocompacts(self, tmp_path):
        store = DurableTripleStore(str(tmp_path / "kg"), snapshot_every=3)
        for i in range(7):
            store.add(t(i))
        assert store.snapshots_written == 2
        records, _ = scan_wal(store.wal_path)
        assert len(records) == 1  # only the post-snapshot suffix remains
        store.close()

    def test_replay_skips_records_folded_into_snapshot(self, tmp_path):
        # A crash between write_snapshot and wal.reset leaves the log full
        # of records at LSNs the snapshot already covers.
        directory = str(tmp_path / "kg")
        store = DurableTripleStore(directory)
        store.add_all([t(1), t(2)])
        store.add(t(3))
        write_snapshot(store, store.snapshot_path, store.version)
        store.close()  # log never reset: all records ≤ snapshot LSN
        recovered = recover(directory)
        assert recovered.last_recovery.records_replayed == 0
        assert set(recovered) == {t(1), t(2), t(3)}
        assert recovered.version == 2
        recovered.close()

    def test_fresh_directory_reports_no_recovery(self, tmp_path):
        store = DurableTripleStore(str(tmp_path / "kg"))
        assert store.recoveries == 0
        assert store.last_recovery.version == 0
        store.close()

    def test_obs_counters_and_pull_source(self, tmp_path):
        obs = Observability()
        store = DurableTripleStore(str(tmp_path / "kg"), snapshot_every=2,
                                   obs=obs)
        store.add(t(1))
        store.add(t(2))
        assert obs.metrics.counter_total("wal.records") == 2
        assert obs.metrics.counter_total("wal.snapshots") == 1
        assert obs.metrics.counter_total("wal.bytes") > 0
        stats = store.durability_stats()
        assert stats["snapshots"] == 1 and stats["lsn"] == 2
        assert stats["triples"] == 2
        store.close()

    def test_recovery_counts_truncated_bytes(self, tmp_path):
        directory = str(tmp_path / "kg")
        store = DurableTripleStore(directory)
        store.add(t(1))
        store.close()
        with open(store.wal_path, "ab") as handle:
            handle.write(b"\x00\x00\x00\x20torn")
        recovered = recover(directory)
        assert recovered.last_recovery.truncated_bytes == 8
        assert set(recovered) == {t(1)}
        # The truncation is physical: a second recovery sees a clean log.
        recovered.close()
        again = recover(directory)
        assert again.last_recovery.truncated_bytes == 0
        again.close()


class TestKnowledgeGraphDurable:
    def test_durable_constructor_wires_a_durable_store(self, tmp_path):
        from repro.kg.graph import KnowledgeGraph
        directory = str(tmp_path / "facts")
        kg = KnowledgeGraph.durable(directory)
        assert kg.name == "facts"
        kg.add(EX("a"), EX("p"), EX("b"))
        kg.store.close()
        resumed = KnowledgeGraph.durable(directory)
        assert len(resumed.store) == 1
        assert resumed.store.last_recovery.records_replayed == 1
        resumed.store.close()


class TestDiskIdentity:
    """The bytes a durable store writes are pinned.

    A fixed seeded sequence (a small encyclopedia KG loaded in 16-triple
    batches, with removals between them and ``snapshot_every=64``, over
    IRIs and plain, language-tagged and typed literals, some of them
    needing escapes) must leave ``wal.log`` and ``snapshot.nt`` with
    these SHA-256 digests. Any change to the record or snapshot encoding
    shows here, and a directory written before such a change would no
    longer read back the same.
    """

    GOLDEN_DISK_DIGESTS = {
        WAL_FILENAME: "d43f0bab854cf46cb155f47e4ab5cc2c"
                      "6fd34fea660484c3d3ea28bba23aa11b",
        SNAPSHOT_FILENAME: "551b8819be3749da351c35201f7e029b"
                           "a56c4733d332d82aa5d2a9e9e4ef91e8",
    }

    @staticmethod
    def _sequence():
        ds = encyclopedia_kg(seed=0, n_people=60, n_cities=12,
                             n_countries=4, n_companies=8, n_universities=4)
        # The dataset's insertion order follows string hashing, which is
        # salted per process; sort it first.
        triples = sorted(ds.kg.store, key=Triple.n3)
        subjects = sorted({t.subject for t in triples})
        rng = random.Random(21)
        for index, subject in enumerate(subjects[:120]):
            triples.append(Triple(subject, LABEL,
                                  Literal(f"name {index}", language="en")))
            triples.append(Triple(subject, COMMENT, Literal(
                f'line {index}\n"quoted" C:\\new\\table\ttab')))
            triples.append(Triple(subject, EX("score"),
                                  Literal(str(index), datatype=XSD.integer)))
        rng.shuffle(triples)
        return triples, rng

    def _write(self, directory, **options):
        triples, rng = self._sequence()
        store = (DurableShardedTripleStore(directory, snapshot_every=64,
                                           **options)
                 if options else
                 DurableTripleStore(directory, snapshot_every=64))
        for step, offset in enumerate(range(0, len(triples), 16)):
            store.add_all(triples[offset:offset + 16])
            if step % 3 == 2:
                store.remove_all(rng.sample(list(store), 5))
        store.close()
        return store

    @staticmethod
    def _digests(directory):
        out = {}
        for name in (WAL_FILENAME, SNAPSHOT_FILENAME):
            with open(os.path.join(directory, name), "rb") as handle:
                out[name] = hashlib.sha256(handle.read()).hexdigest()
        return out

    def test_flat_store_writes_the_golden_bytes(self, tmp_path):
        directory = str(tmp_path / "kg")
        store = self._write(directory)
        assert store.snapshots_written > 0
        assert os.path.getsize(os.path.join(directory, WAL_FILENAME)) > 0
        assert self._digests(directory) == self.GOLDEN_DISK_DIGESTS

    def test_sharded_store_writes_the_same_bytes(self, tmp_path):
        directory = str(tmp_path / "kg")
        self._write(directory, shards=4)
        assert self._digests(directory) == self.GOLDEN_DISK_DIGESTS

    def test_golden_directory_recovers_unchanged(self, tmp_path):
        directory = str(tmp_path / "kg")
        live = self._write(directory)
        recovered = recover(directory)
        assert list(recovered) == list(live)
        assert recovered.version == live.version
        assert recovered.last_recovery.truncated_bytes == 0
        recovered.close()


# A step is an op, the pool indices it touches, and whether a snapshot
# follows it. "readd" removes its triples and adds them back at the end.
_memo_step = st.tuples(
    st.sampled_from(["add", "remove", "readd", "clear", "recover"]),
    st.lists(st.integers(0, 7), min_size=1, max_size=4), st.booleans())
_A = Triple(EX("a"), EX("p"), Literal('one\n"two"\\three\r', language="en"))
_B = Triple(EX("b"), EX("p"), EX("c"))


class TestSnapshotLineMemo:
    """A snapshot writes the kept lines of old triples and encodes the rest.

    Each step drives a flat or 4-shard durable store with batches over a
    pool of triples whose literals need escapes. The model tracks which
    triples must hold a kept line: exactly those present at the last
    snapshot and not removed since. Re-adding or clearing starts over,
    and a store that has not snapshotted keeps none, a recovered one
    included. After every snapshot the file must equal
    :func:`write_snapshot` of the whole store, and a recovered store must
    equal the live one in set and in order. The explicit
    examples re-add a triple after a clear and after a removal, between
    two snapshots.
    """

    @staticmethod
    def _kept(store):
        lines = store._triples
        assert all(line == triple.n3()
                   for triple, line in lines.items() if line is not None)
        return {triple: line is not None for triple, line in lines.items()}

    @staticmethod
    def _read(path):
        with open(path, "rb") as handle:
            return handle.read()

    @pytest.mark.parametrize("shards", [None, 4])
    @settings(max_examples=60, deadline=None)
    @given(pool=st.lists(_triple, min_size=1, max_size=6, unique=True),
           steps=st.lists(_memo_step, min_size=4, max_size=12))
    @example(pool=[_A, _B], steps=[("add", [0, 1], True), ("clear", [], False),
                                   ("add", [0], True)])
    @example(pool=[_A, _B], steps=[("add", [0, 1], True), ("readd", [0], True)])
    def test_snapshot_bytes_equal_a_full_encode(self, shards, pool, steps):
        directory = tempfile.mkdtemp(prefix="line-memo-")
        try:
            self._run(directory, shards, pool, steps)
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def _run(self, directory, shards, pool, steps):
        store_dir = os.path.join(directory, "kg")
        reference = os.path.join(directory, "reference.nt")
        store = (DurableTripleStore(store_dir) if shards is None else
                 DurableShardedTripleStore(store_dir, shards=shards))
        kept = {}
        for op, indices, then_snapshot in steps:
            batch = [pool[i % len(pool)] for i in indices]
            if op in ("remove", "readd"):
                store.remove_all(batch)
                kept = {t: v for t, v in kept.items() if t not in batch}
            if op in ("add", "readd"):
                store.add_all(batch)
                kept.update((t, kept.get(t, False)) for t in batch)
            elif op == "clear":
                store.clear()
                kept = {}
            elif op == "recover":
                store.close()
                recovered = recover(store_dir)
                assert list(recovered) == list(store)
                assert recovered.version == store.version
                store, kept = recovered, dict.fromkeys(kept, False)
            assert list(kept) == list(store)
            assert self._kept(store) == kept
            if then_snapshot:
                assert store.snapshot() == len(store)
                kept = dict.fromkeys(kept, True)
                assert self._kept(store) == kept
                write_snapshot(list(store), reference, store.version)
                assert (self._read(store.snapshot_path)
                        == self._read(reference))
        store.close()
