"""Append-only logs, and checkpoint/resume for long-running jobs.

:class:`AppendLog` is the one append-only log: :mod:`repro.kg.wal` (the
*store* survives a crash) and this module's journal (the *work* does) fix
a codec each. A journal line is ``<crc32 as 8 lowercase hex>\t<compact
JSON>\n``; older unchecksummed journals (first byte ``{``) are refused.

Batch pipelines (NER/RE extraction, RAG and GraphRAG QA, the eval harness)
journal each completed unit of work; a resumed run restores the journaled
prefix and continues from the first unfinished item, producing final
output **byte-identical** to an uninterrupted run. The journal's records:

* a ``meta`` record first (job name + the config needed to rebuild the
  run, which is how ``repro run --resume <journal>`` works without
  re-specifying flags);
* ``item`` records carrying one completed unit's value, either keyed
  (harness rows, atomic per line) or positional (batch pipelines);
* ``commit`` records marking a *chunk boundary* in positional mode,
  carrying the cumulative LLM fault-schedule cursor at that boundary.

Chunk-atomic resume
-------------------
Positional pipelines process fixed-size chunks whose internal LLM-call
order is deterministic but whose *count* may vary (a faulted batch call
falls back to per-prompt calls, consuming extra fault indices). Item lines
for an in-flight chunk can therefore be present without the chunk having
finished; :meth:`CheckpointManager.resume_prefix` down-rounds to the last
``commit`` record and the torn tail is truncated before the first new
append. Restoring the commit's ``llm_calls`` cursor with
:func:`fast_forward_faults` realigns the fault schedule, so the resumed
run injects exactly the faults the uninterrupted run would have.

Determinism contract: byte-identical resume holds whenever each prompt's
completion is a pure function of run config (the simulated LLM guarantees
this) — with fault injection, and with response caching, but not with both
at once *across* a resume (a resumed run's cold cache can re-issue a
pre-crash prompt and shift fault indices). The crash-injection suite
exercises both supported combinations.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.observability import llm_layers, resolve_obs

__all__ = [
    "AppendLog", "CheckpointError", "CheckpointManager", "ResumeState",
    "fast_forward_faults", "fault_schedule_cursor", "journal_frame",
    "read_meta",
]


class CheckpointError(ValueError):
    """Raised when a journal cannot be used (wrong job, malformed meta)."""


class AppendLog:
    """An append-only file of self-checking frames, flushed per write.

    ``unframe(data, offset)`` decodes the frame at ``offset`` to ``(record,
    end offset)``, or ``None`` when it is short, fails its checksum or does
    not decode: the torn tail, which the owner cuts before appending again.
    """

    def __init__(self, path: str,
                 unframe: Callable[[bytes, int], Optional[Tuple[Any, int]]]):
        self.path = path
        self._unframe = unframe
        self._handle = None

    def write(self, frames: bytes) -> int:
        """Append encoded frames with one write and one flush; their size."""
        if self._handle is None:
            self._handle = open(self.path, "ab")
        self._handle.write(frames)
        self._handle.flush()
        return len(frames)

    def scan(self) -> Tuple[List[Any], List[int], int]:
        """``(records, ends, torn)``: the records before the first bad frame,
        their end offsets, and the bytes from it on (a missing file: none)."""
        if not os.path.exists(self.path):
            return [], [], 0
        with open(self.path, "rb") as handle:
            data = handle.read()
        records, ends, offset = [], [], 0
        while offset < len(data):
            frame = self._unframe(data, offset)
            if frame is None:
                break
            record, offset = frame
            records.append(record)
            ends.append(offset)
        return records, ends, len(data) - offset

    def truncate(self, offset: int) -> None:
        """Cut the file back to ``offset`` bytes (a no-op when not longer)."""
        with open(self.path, "ab") as handle:
            if handle.tell() > offset:
                handle.truncate(offset)

    def reset(self) -> None:
        """Close the append handle and empty the file."""
        self.close()
        self.truncate(0)

    def close(self) -> None:
        """Close the append handle (reopened lazily by the next write)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


#: Shared JSON encoder for journal lines. ``json.dumps`` with keyword
#: options builds a fresh encoder per call; journaling sits on the batch
#: pipelines' hot path, so the encoder is constructed once. ``sort_keys``
#: keeps lines byte-stable regardless of dict construction order, and the
#: default ``ensure_ascii`` escapes every line break inside a value.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def journal_frame(record: Dict[str, Any]) -> bytes:
    """Encode one journal record as ``<crc32 hex>\\t<compact JSON>\\n``."""
    body = _ENCODER.encode(record).encode()
    return b"%08x\t%s\n" % (zlib.crc32(body), body)


def _journal_unframe(data: bytes, offset: int) -> Optional[Tuple[Any, int]]:
    """The journal's ``unframe`` (see :class:`AppendLog`). A first byte
    ``{`` marks an older unchecksummed journal: refused, not read as torn."""
    if offset == 0 and data[:1] == b"{":
        raise CheckpointError("journal predates per-line checksums (its "
                              "first byte is '{'); that format is not read")
    end = data.find(b"\n", offset) + 1
    body = data[offset + 9:end - 1]
    if end and data[offset:offset + 9] == b"%08x\t" % zlib.crc32(body):
        try:
            return json.loads(body), end
        except ValueError:
            pass
    return None


@dataclass
class ResumeState:
    """The restorable prefix of a positional (chunked) journal.

    ``values`` holds the journaled item values up to the last committed
    chunk boundary; ``llm_calls`` is the fault-schedule cursor recorded at
    that boundary (``None`` when the run carried no fault layer);
    ``extras`` collects the per-chunk ``extra`` payloads in order.
    """

    values: List[Any] = field(default_factory=list)
    llm_calls: Optional[int] = None
    extras: List[Any] = field(default_factory=list)
    chunks: int = 0

    def __len__(self) -> int:
        return len(self.values)


class CheckpointManager:
    """An append-only journal of completed work units.

    Two consumption styles share one manager:

    * **keyed** — :meth:`completed`/:meth:`restore`/:meth:`record` treat
      each line as atomic (the eval harness journals one row per job this
      way; safe from executor worker threads);
    * **positional** — :meth:`resume_prefix`/:meth:`record_chunk` journal
      chunk-atomically (batch NER/RE/RAG/GraphRAG), down-rounding any
      half-written chunk on resume.

    Loading keeps the lines before the first bad one (a partial final
    line — the crash-injection suite produces these deliberately — or a
    line that fails its checksum); the damaged suffix is truncated before
    the first new append, never silently replayed.
    """

    def __init__(self, path: str, obs=None):
        self.path = path
        self.obs = resolve_obs(obs)
        self._lock = threading.Lock()
        self._log = AppendLog(path, _journal_unframe)
        self._keyed: Dict[str, Any] = {}
        self._items_at_commit = 0
        self._truncated = False
        self.resume_skips = 0
        # The first append cuts back to the last good line (keyed) or the
        # last commit, else the meta line (positional: chunks are atomic).
        self._records, ends, _ = self._log.scan()
        self._good_offset = ends[-1] if ends else 0
        self._commit_offset = ends[0] if self.meta is not None else 0
        items_seen = 0
        for record, end in zip(self._records, ends):
            kind = record.get("type")
            if kind == "item":
                if "key" in record:
                    self._keyed[record["key"]] = record["value"]
                else:
                    items_seen += 1
            elif kind == "commit":
                self._commit_offset = end
                self._items_at_commit = items_seen

    def _append(self, records: Iterable[Dict[str, Any]], keyed: bool) -> None:
        # One encode pass, one write, one flush per append — journaling
        # sits on the batch pipelines' hot path, budgeted at ≤10% overhead
        # (see benchmarks/test_bench_durability.py).
        frames = b"".join([journal_frame(record) for record in records])
        with self._lock:
            if not self._truncated:
                self._log.truncate(self._good_offset if keyed
                                   else self._commit_offset)
                self._truncated = True
            self._log.write(frames)

    def close(self) -> None:
        """Release the journal's append handle (reopened lazily on write)."""
        with self._lock:
            self._log.close()

    # ------------------------------------------------------------------
    # Meta
    # ------------------------------------------------------------------
    @property
    def meta(self) -> Optional[Dict[str, Any]]:
        """The journal's meta record, if one was written."""
        if self._records and self._records[0].get("type") == "meta":
            return self._records[0]
        return None

    def ensure_meta(self, job: str, config: Optional[Dict[str, Any]] = None
                    ) -> Dict[str, Any]:
        """Write the meta record on first use; verify it on resume.

        Raises :class:`CheckpointError` when the journal belongs to a
        different job — resuming the wrong journal must fail loudly, not
        corrupt two runs.
        """
        existing = self.meta
        if existing is not None:
            if existing.get("job") != job:
                raise CheckpointError(
                    f"journal {self.path!r} belongs to job "
                    f"{existing.get('job')!r}, not {job!r}")
            return existing
        if self._records:
            raise CheckpointError(
                f"journal {self.path!r} has records but no meta line")
        record = {"type": "meta", "job": job, "config": dict(config or {})}
        self._append([record], keyed=True)
        self._records.insert(0, record)
        return record

    # ------------------------------------------------------------------
    # Keyed mode (eval harness)
    # ------------------------------------------------------------------
    def completed(self, key: str) -> bool:
        """Whether a keyed unit already has a journaled value."""
        with self._lock:
            done = key in self._keyed
        if done:
            self.resume_skips += 1
            if self.obs.enabled:
                self.obs.count("checkpoint.resume_skips")
        return done

    def restore(self, key: str) -> Any:
        """The journaled value for ``key`` (KeyError when absent)."""
        with self._lock:
            return self._keyed[key]

    def record(self, key: str, value: Any) -> None:
        """Journal one keyed unit's value (atomic line, thread-safe)."""
        record = {"type": "item", "key": key, "value": value}
        self._append([record], keyed=True)
        with self._lock:
            self._records.append(record)
            self._keyed[key] = value
        if self.obs.enabled:
            self.obs.count("checkpoint.records")

    # ------------------------------------------------------------------
    # Positional mode (batch pipelines)
    # ------------------------------------------------------------------
    def resume_prefix(self) -> ResumeState:
        """The committed prefix: values, fault cursor, per-chunk extras."""
        state = ResumeState()
        seen = 0
        for record in self._records:
            kind = record.get("type")
            if kind == "item" and "key" not in record:
                # Only items inside committed chunks count; anything past
                # the last commit was mid-chunk when the run died.
                if seen < self._items_at_commit:
                    state.values.append(record["value"])
                seen += 1
            elif kind == "commit":
                state.chunks += 1
                state.llm_calls = record.get("llm_calls", state.llm_calls)
                if "extra" in record:
                    state.extras.append(record["extra"])
        if state.values:
            self.resume_skips += len(state.values)
            if self.obs.enabled:
                self.obs.count("checkpoint.resume_skips", len(state.values))
        return state

    def record_chunk(self, values: Iterable[Any],
                     llm_calls: Optional[int] = None,
                     extra: Any = None) -> None:
        """Journal one completed chunk: its items plus a commit marker.

        All lines flush together; a crash mid-write leaves item lines
        without the commit, which the next resume drops and recomputes.
        """
        records: List[Dict[str, Any]] = [
            {"type": "item", "value": value} for value in values]
        commit: Dict[str, Any] = {"type": "commit"}
        if llm_calls is not None:
            commit["llm_calls"] = llm_calls
        if extra is not None:
            commit["extra"] = extra
        records.append(commit)
        self._append(records, keyed=False)
        with self._lock:
            self._records.extend(records)
            self._items_at_commit += len(records) - 1
        if self.obs.enabled:
            self.obs.count("checkpoint.records", len(records) - 1)
            self.obs.count("checkpoint.commits")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Journal counters (registered as an observability pull source)."""
        with self._lock:
            keyed = len(self._keyed)
            commits = sum(1 for r in self._records if r.get("type") == "commit")
            items = sum(1 for r in self._records if r.get("type") == "item")
        return {"keyed_items": keyed, "items": items, "commits": commits,
                "resume_skips": self.resume_skips}


def read_meta(path: str) -> Dict[str, Any]:
    """Read just the meta record of a journal (for ``repro run --resume``)."""
    os.stat(path)  # a missing journal raises FileNotFoundError
    records, _, torn = AppendLog(path, _journal_unframe).scan()
    if not records:
        raise CheckpointError(
            f"journal {path!r}: malformed first record (torn, or its "
            "checksum does not match)" if torn
            else f"journal {path!r} is empty")
    if records[0].get("type") != "meta":
        raise CheckpointError(
            f"journal {path!r} does not start with a meta record")
    return records[0]


def _fault_layer(llm: Any) -> Any:
    """The fault injector inside an LLM wrapper chain (identified by its
    ``fault_log`` field), or ``None``."""
    return next((layer for layer in llm_layers(llm)
                 if "fault_log" in getattr(layer, "__dict__", {})), None)


def fault_schedule_cursor(llm: Any) -> Optional[int]:
    """The fault layer's call cursor inside an LLM wrapper chain.

    ``None`` when the chain carries no fault layer — resume then needs no
    schedule realignment.
    """
    layer = _fault_layer(llm)
    return None if layer is None else layer.fault_calls


def fast_forward_faults(llm: Any, calls: Optional[int]) -> bool:
    """Advance the fault layer's cursor to ``calls`` (a journaled value).

    Returns True when a fault layer was found and realigned. Faults are a
    pure function of (profile seed, call index, prompt), so setting the
    cursor to the crashed run's committed call count makes the resumed
    run's schedule continue exactly where the original would have.
    """
    layer = None if calls is None else _fault_layer(llm)
    if layer is None:
        return False
    layer.fault_calls = calls
    return True
