"""Write-ahead logging, snapshots, and crash recovery for the triple store.

The survey's construction pipelines build KGs over thousands of LLM calls;
losing the store to a process crash means re-spending all of them. This
module gives :class:`~repro.kg.store.TripleStore` process-level durability
with the classic WAL discipline, and it is the only durability code path:
the sharded store (:class:`~repro.kg.sharding.DurableShardedTripleStore`)
is this class plus subject routing, so both write the same bytes:

* every *effective* mutation batch (the same batches that bump
  :attr:`~repro.kg.store.TripleStore.version`) is appended to a
  checksummed log **before** control returns to the caller — the version
  counter doubles as the log sequence number (LSN);
* a compacted **snapshot** (plain N-Triples plus an LSN header comment)
  is written atomically (tmp file + ``os.replace``) every
  ``snapshot_every`` records, after which the log is reset;
* :func:`recover` replays snapshot + log back into an identical store,
  detecting torn or corrupt tail records by their per-record CRC32 and
  truncating them — a crash mid-``write`` can cost at most the batch that
  was being logged, never consistency. Each batch is one record, so a
  batch is durable atomically: all of it or none of it.

One directory layout serves both stores::

    wal.log        batches since the snapshot, framed + CRC'd
    snapshot.nt    compacted image in insertion order, "# lsn=<n>" header
    manifest.json  {"shards": N} — sharded directories only, advisory

Routing happens at replay time, so any directory recovers under any shard
count and under the flat class. Directories in the retired per-shard layout
(``shard-NN/wal.log``) are refused with :class:`WalCorruptionError`.

Record format (binary, little machinery on the hot path)::

    +--------------+-------------+----------------------------------+
    | length (u32) | crc32 (u32) | payload (UTF-8, ``length`` bytes)|
    +--------------+-------------+----------------------------------+

with a payload of ``"<op> <lsn>\\n"`` (op ∈ add/remove/clear) followed by
one N-Triples line per affected triple — the same ``Triple.n3()`` encoding
the rest of the toolkit round-trips. Appends are flushed to the OS per
record, so any process-level crash (the crash-injection harness uses
``os._exit``) preserves every completed batch.
"""

from __future__ import annotations

import glob
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.core.observability import resolve_obs
from repro.kg.rdf import RDFSyntaxError, parse_ntriples_line
from repro.kg.store import TripleStore
from repro.kg.triples import IRI, Triple

__all__ = [
    "DurableTripleStore", "RecoveryReport", "SNAPSHOT_FILENAME",
    "WAL_FILENAME", "WalCorruptionError", "WalRecord", "WriteAheadLog",
    "apply_record", "decode_payload", "encode_record", "read_snapshot",
    "recover", "scan_wal", "write_snapshot",
]


def apply_record(store: TripleStore, record: "WalRecord") -> None:
    """Apply one WAL record to ``store`` without logging or version bumps.

    The single definition of what a record *means*, shared by local
    recovery (flat or sharded — the sharded store routes ``_insert``/
    ``_delete``/``_reset`` to its shards) and replica catch-up (the
    replication layer ships these same records to keep followers
    consistent with the primary's log).
    """
    if record.op == "add":
        for triple in record.triples:
            store._insert(triple)
    elif record.op == "remove":
        for triple in record.triples:
            store._delete(triple)
    elif record.op == "clear":
        store._reset()
    else:
        raise ValueError(f"unknown WAL op {record.op!r}")

#: Per-record frame header: payload length then CRC32, both big-endian u32.
_HEADER = struct.Struct(">II")

#: Log file name inside a durability directory.
WAL_FILENAME = "wal.log"
#: Snapshot file name inside a durability directory.
SNAPSHOT_FILENAME = "snapshot.nt"

_OPS = ("add", "remove", "clear")


class WalCorruptionError(ValueError):
    """Raised when a WAL payload passes framing but cannot be decoded."""


@dataclass(frozen=True)
class WalRecord:
    """One logged mutation batch: the op, its LSN, and the triples touched.

    ``lsn`` is the store's :attr:`~repro.kg.store.TripleStore.version`
    *after* the batch committed; replaying a record therefore both applies
    the triples and restores the exact version counter.
    """

    op: str
    lsn: int
    triples: Tuple[Triple, ...] = ()


def encode_record(record: WalRecord) -> bytes:
    """Serialize a record to its framed on-disk bytes."""
    lines = [f"{record.op} {record.lsn}"]
    append = lines.append
    for t in record.triples:
        # Equivalent to t.n3(), with the all-IRI case (the overwhelming
        # majority of logged triples) flattened to one f-string — encoding
        # sits on the bulk-load hot path, budgeted at ≤10% overhead (see
        # benchmarks/test_bench_durability.py).
        o = t.object
        if type(o) is IRI:
            append(f"<{t.subject.value}> <{t.predicate.value}> <{o.value}> .")
        else:
            append(f"<{t.subject.value}> <{t.predicate.value}> {o.n3()} .")
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def decode_payload(payload: bytes) -> WalRecord:
    """Decode one CRC-verified payload back into a :class:`WalRecord`."""
    try:
        lines = payload.decode("utf-8").splitlines()
        head = lines[0].split(" ") if lines else []
        if len(head) != 2 or head[0] not in _OPS:
            raise WalCorruptionError(f"malformed WAL record header: {lines[:1]!r}")
        triples = []
        for line in lines[1:]:
            triple = parse_ntriples_line(line)
            if triple is not None:
                triples.append(triple)
        return WalRecord(op=head[0], lsn=int(head[1]), triples=tuple(triples))
    except (UnicodeDecodeError, RDFSyntaxError, ValueError) as exc:
        if isinstance(exc, WalCorruptionError):
            raise
        raise WalCorruptionError(f"undecodable WAL payload: {exc}") from exc


def scan_wal(path: str, truncate: bool = False) -> Tuple[List[WalRecord], int]:
    """Read every complete record from a log file.

    Returns ``(records, truncated_bytes)`` where ``truncated_bytes`` counts
    the torn/corrupt tail (short frame, short payload, CRC mismatch, or
    undecodable payload — everything from the first bad frame on). With
    ``truncate=True`` the bad tail is also physically cut from the file, so
    subsequent appends continue from a consistent state.
    """
    if not os.path.exists(path):
        return [], 0
    with open(path, "rb") as handle:
        data = handle.read()
    records: List[WalRecord] = []
    offset, size = 0, len(data)
    while offset < size:
        if size - offset < _HEADER.size:
            break
        length, crc = _HEADER.unpack_from(data, offset)
        end = offset + _HEADER.size + length
        if end > size:
            break
        payload = data[offset + _HEADER.size:end]
        if zlib.crc32(payload) != crc:
            break
        try:
            records.append(decode_payload(payload))
        except WalCorruptionError:
            break
        offset = end
    truncated = size - offset
    if truncate and truncated:
        with open(path, "r+b") as handle:
            handle.truncate(offset)
    return records, truncated


class WriteAheadLog:
    """An append-only record log over one file.

    Owns the append handle (opened lazily, line-buffered ``ab``) and the
    written-records/bytes counters surfaced by ``durability_stats()``.
    Appends flush to the OS per record: a process crash — however abrupt —
    loses at most the record being framed at that instant, which the CRC
    then catches on recovery.
    """

    def __init__(self, path: str):
        self.path = path
        self._handle = None
        self.records_written = 0
        self.bytes_written = 0

    def append(self, record: WalRecord) -> int:
        """Frame + append one record; returns the bytes written."""
        if self._handle is None:
            self._handle = open(self.path, "ab")
        data = encode_record(record)
        self._handle.write(data)
        self._handle.flush()
        self.records_written += 1
        self.bytes_written += len(data)
        return len(data)

    def reset(self) -> None:
        """Truncate the log to empty (called right after a snapshot)."""
        self.close()
        with open(self.path, "wb"):
            pass

    def close(self) -> None:
        """Close the append handle (reopened lazily by the next append)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def write_snapshot(triples: Iterable[Triple], path: str, lsn: int) -> int:
    """Write a compacted snapshot atomically; returns the triple count.

    The snapshot is a regular N-Triples document whose first line is an
    ``# lsn=<n>`` comment (comments are skipped by every N-Triples reader,
    so the file stays loadable by :func:`repro.kg.rdf.load_ntriples`). The
    write goes to a temp file that is fsynced and then ``os.replace``d over
    the target, so a crash mid-snapshot leaves the previous snapshot
    intact.
    """
    tmp_path = path + ".tmp"
    count = 0
    with open(tmp_path, "w", encoding="utf-8") as handle:
        handle.write(f"# lsn={lsn}\n")
        for triple in triples:
            handle.write(triple.n3() + "\n")
            count += 1
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    return count


def read_snapshot(path: str) -> Tuple[List[Triple], int]:
    """Read a snapshot back as ``(triples, lsn)`` (lsn 0 when unheadered)."""
    lsn = 0
    triples: List[Triple] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("# lsn="):
                lsn = int(line[len("# lsn="):].strip())
                continue
            triple = parse_ntriples_line(line)
            if triple is not None:
                triples.append(triple)
    return triples, lsn


@dataclass(frozen=True)
class RecoveryReport:
    """What a recovery found: snapshot state, replay extent, damage cut."""

    snapshot_lsn: int
    snapshot_triples: int
    records_replayed: int
    truncated_bytes: int
    version: int
    triples: int


class DurableTripleStore(TripleStore):
    """A :class:`TripleStore` whose mutations survive process crashes.

    State lives in one directory: ``snapshot.nt`` (the compacted base
    image) and ``wal.log`` (batches since the snapshot). Construction *is*
    recovery — the snapshot is loaded, the log's consistent prefix is
    replayed, and any torn tail is truncated — after which the store
    behaves exactly like its in-memory parent, logging each effective
    batch through the :meth:`~repro.kg.store.TripleStore._committed` hook.

    ``snapshot_every`` bounds log growth: after that many logged batches a
    compacted snapshot is written and the log reset. Snapshot-then-reset
    ordering is crash-safe — a crash between the two leaves records whose
    LSN is ≤ the snapshot LSN in the log, and replay skips those.

    ``store_options`` pass through to the next class in the MRO — the
    sharded subclass hands ``shards``/``executor`` to
    :class:`~repro.kg.sharding.ShardedTripleStore` this way.
    """

    def __init__(self, directory: str,
                 snapshot_every: Optional[int] = None,
                 obs=None, **store_options):
        self._wal: Optional[WriteAheadLog] = None  # gates _committed during recovery
        self.directory = directory
        self.snapshot_every = snapshot_every
        self.obs = resolve_obs(obs)
        self.wal_path = os.path.join(directory, WAL_FILENAME)
        self.snapshot_path = os.path.join(directory, SNAPSHOT_FILENAME)
        self._records_since_snapshot = 0
        self.recoveries = 0
        self.truncated_bytes = 0
        self.snapshots_written = 0
        os.makedirs(directory, exist_ok=True)
        super().__init__(**store_options)
        self.last_recovery = self._recover()
        self._wal = WriteAheadLog(self.wal_path)
        self.obs.register_source("kg.wal", self.durability_stats)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self) -> RecoveryReport:
        """Load snapshot + consistent log prefix; truncate any torn tail."""
        legacy = glob.glob(os.path.join(glob.escape(self.directory),
                                        "shard-*", WAL_FILENAME))
        if legacy:
            raise WalCorruptionError(
                f"{self.directory} holds per-shard logs ({len(legacy)} "
                f"shard-*/{WAL_FILENAME}); that layout is no longer supported")
        snapshot_lsn = 0
        snapshot_count = 0
        had_state = os.path.exists(self.snapshot_path) or os.path.exists(self.wal_path)
        if os.path.exists(self.snapshot_path):
            triples, snapshot_lsn = read_snapshot(self.snapshot_path)
            for triple in triples:
                self._insert(triple)
            snapshot_count = len(triples)
            self._version = snapshot_lsn
        records, truncated = scan_wal(self.wal_path, truncate=True)
        replayed = 0
        for record in records:
            if record.lsn <= snapshot_lsn:
                continue  # already folded into the snapshot (crash before log reset)
            apply_record(self, record)
            self._version = record.lsn
            replayed += 1
        self._records_since_snapshot = replayed
        self.truncated_bytes += truncated
        if had_state:
            self.recoveries += 1
            if self.obs.enabled:
                self.obs.count("wal.recoveries")
                if truncated:
                    self.obs.count("wal.truncated_bytes", truncated)
        return RecoveryReport(
            snapshot_lsn=snapshot_lsn, snapshot_triples=snapshot_count,
            records_replayed=replayed, truncated_bytes=truncated,
            version=self._version, triples=len(self))

    # ------------------------------------------------------------------
    # Logging
    # ------------------------------------------------------------------
    def _committed(self, op: str, triples: Iterable[Triple]) -> None:
        """Append the just-committed batch to the log (WAL discipline)."""
        if self._wal is None:
            return  # bootstrap/replay: state is already on disk
        nbytes = self._wal.append(WalRecord(op, self._version, tuple(triples)))
        if self.obs.enabled:
            self.obs.count("wal.records")
            self.obs.count("wal.bytes", nbytes)
        self._records_since_snapshot += 1
        if self.snapshot_every and self._records_since_snapshot >= self.snapshot_every:
            self.snapshot()

    def snapshot(self) -> int:
        """Write a compacted snapshot and reset the log; returns the count.

        Safe at any point: the snapshot replaces atomically, and only once
        it is durable is the log truncated.
        """
        count = write_snapshot(self, self.snapshot_path, self._version)
        if self._wal is not None:
            self._wal.reset()
        self._records_since_snapshot = 0
        self.snapshots_written += 1
        if self.obs.enabled:
            self.obs.count("wal.snapshots")
        return count

    def close(self) -> None:
        """Release the log's file handle (state on disk stays recoverable)."""
        if self._wal is not None:
            self._wal.close()

    def durability_stats(self) -> dict:
        """Counters for the observability layer's ``kg.wal`` source."""
        wal = self._wal
        return {
            "wal_records": wal.records_written if wal else 0,
            "wal_bytes": wal.bytes_written if wal else 0,
            "snapshots": self.snapshots_written,
            "recoveries": self.recoveries,
            "truncated_bytes": self.truncated_bytes,
            "lsn": self._version,
            "triples": len(self),
        }


def recover(directory: str, *, shards: Optional[int] = None, executor=None,
            obs=None) -> DurableTripleStore:
    """Recover the durable store persisted under ``directory``.

    The one recovery entry point: returns a
    :class:`~repro.kg.sharding.DurableShardedTripleStore` when ``shards`` is
    given or the directory holds a shard manifest, else a flat
    :class:`DurableTripleStore`. Both replay the same files, so the choice
    only decides the in-memory layout. The recovery's findings are on the
    returned store's ``last_recovery`` report.
    """
    from repro.kg.sharding import MANIFEST_FILENAME, DurableShardedTripleStore
    if shards is None and not os.path.exists(
            os.path.join(directory, MANIFEST_FILENAME)):
        return DurableTripleStore(directory, obs=obs)
    return DurableShardedTripleStore(directory, shards=shards,
                                     executor=executor, obs=obs)
