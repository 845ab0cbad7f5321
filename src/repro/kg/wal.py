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

The log is a :class:`~repro.core.durability.AppendLog` (one frame scan
and one torn-tail rule, shared with the run journal) with a binary codec::

    +--------------+-------------+----------------------------------+
    | length (u32) | crc32 (u32) | payload (UTF-8, ``length`` bytes)|
    +--------------+-------------+----------------------------------+

with a payload of ``"<op> <lsn>\\n"`` (op ∈ add/remove/clear) followed by
one N-Triples line per affected triple — the same ``Triple.n3()`` encoding
the rest of the toolkit round-trips, written by
:func:`~repro.kg.rdf.ntriples_lines` like the snapshot. A literal's
backslash, quote, line feed and carriage return are escaped, so ``\\n`` is
the only line separator in a payload or a snapshot, and the readers split
on it alone (``str.splitlines`` would also split a literal holding a form
feed, ``U+0085`` or ``U+2028``). Escapes decode in one left-to-right pass.
Each append is one ``write`` and one ``flush`` of one frame, so any
process-level crash (the crash-injection harness uses ``os._exit``)
preserves every completed batch.
"""

from __future__ import annotations

import glob
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.core.durability import AppendLog
from repro.core.observability import resolve_obs
from repro.kg.rdf import RDFSyntaxError, ntriples_lines, parse_ntriples_line
from repro.kg.store import TripleStore
from repro.kg.triples import Triple

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
    # The trailing "" ends the last line with a newline.
    lines = [f"{record.op} {record.lsn}", *ntriples_lines(record.triples), ""]
    payload = "\n".join(lines).encode("utf-8")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def decode_payload(payload: bytes) -> WalRecord:
    """Decode one CRC-verified payload back into a :class:`WalRecord`."""
    try:
        lines = payload.decode("utf-8").split("\n")
        head = lines[0].split(" ")
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


def _unframe_record(data: bytes, offset: int) -> Optional[Tuple[WalRecord, int]]:
    """Decode the frame at ``offset``: ``(record, end offset)``, or ``None``
    when it is short, fails its CRC, or does not decode."""
    start = offset + _HEADER.size
    if start <= len(data):
        length, crc = _HEADER.unpack_from(data, offset)
        payload = data[start:start + length]
        if len(payload) == length and zlib.crc32(payload) == crc:
            try:
                return decode_payload(payload), start + length
            except WalCorruptionError:
                pass
    return None


def scan_wal(path: str, truncate: bool = False) -> Tuple[List[WalRecord], int]:
    """Read every complete record from a log file.

    Returns ``(records, truncated_bytes)`` where ``truncated_bytes`` counts
    the torn/corrupt tail (short frame, short payload, CRC mismatch, or
    undecodable payload — everything from the first bad frame on). With
    ``truncate=True`` the bad tail is also physically cut from the file, so
    subsequent appends continue from a consistent state.
    """
    log = WriteAheadLog(path)
    records, ends, torn = log.scan()
    if truncate and torn:
        log.truncate(ends[-1] if ends else 0)
    return records, torn


class WriteAheadLog(AppendLog):
    """The store's log: an :class:`~repro.core.durability.AppendLog` with
    the WAL codec, counting the records and bytes it appends."""

    def __init__(self, path: str):
        super().__init__(path, _unframe_record)
        self.records_written = self.bytes_written = 0

    def append(self, record: WalRecord) -> int:
        """Frame + append one record; returns the bytes written."""
        nbytes = self.write(encode_record(record))
        self.records_written += 1
        self.bytes_written += nbytes
        return nbytes


def write_snapshot(triples: Iterable[Triple], path: str, lsn: int) -> int:
    """Write a compacted snapshot atomically; returns the triple count.

    The snapshot is a regular N-Triples document whose first line is an
    ``# lsn=<n>`` comment (comments are skipped by every N-Triples reader,
    so the file stays loadable by :func:`repro.kg.rdf.load_ntriples`).
    This encodes every triple; :meth:`DurableTripleStore.snapshot` writes
    the same bytes from its per-triple line memo.
    """
    lines = ntriples_lines(triples)
    _replace_snapshot(path, lsn, lines)
    return len(lines)


def _replace_snapshot(path: str, lsn: int, lines: Iterable[str]) -> None:
    """Write ``# lsn=<n>`` and ``lines`` as a snapshot, atomically.

    The document is built in memory and written once, to a temp file that
    is fsynced and then ``os.replace``d over the target, so a crash
    mid-snapshot leaves the previous snapshot intact.
    """
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        handle.write("\n".join([f"# lsn={lsn}", *lines, ""]))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)


def read_snapshot(path: str) -> Tuple[List[Triple], int]:
    """Read a snapshot back as ``(triples, lsn)`` (lsn 0 when unheadered)."""
    lsn = 0
    triples: List[Triple] = []
    # newline="\n": only a line feed ends a line, untranslated.
    with open(path, "r", encoding="utf-8", newline="\n") as handle:
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

        Each triple's N-Triples line is kept in its ``_triples`` value slot
        (``_insert`` writes ``None`` there), so a snapshot encodes only the
        triples added since the last one; the rest are written from their
        kept lines. A line is a pure function of its triple and the dict's
        order is the snapshot's order, so the bytes equal
        :func:`write_snapshot`'s over the whole store. A removed triple
        takes its line with it, and recovery leaves the slots ``None``.

        Safe at any point: the snapshot replaces atomically, and only once
        it is durable is the log truncated.
        """
        memo = self._triples
        fresh = [triple for triple, line in memo.items() if line is None]
        memo.update(zip(fresh, ntriples_lines(fresh)))
        _replace_snapshot(self.snapshot_path, self._version, memo.values())
        if self._wal is not None:
            self._wal.reset()
        self._records_since_snapshot = 0
        self.snapshots_written += 1
        if self.obs.enabled:
            self.obs.count("wal.snapshots")
        return len(memo)

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
