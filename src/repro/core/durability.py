"""Checkpoint/resume for long-running jobs: the journal half of durability.

Where :mod:`repro.kg.wal` makes the *store* survive a crash, this module
makes the *work* survive one. Batch pipelines (NER/RE extraction, RAG and
GraphRAG QA, the eval harness) journal each completed unit of work to an
append-only JSONL file; a resumed run restores the journaled prefix and
continues from the first unfinished item, producing final output
**byte-identical** to an uninterrupted run.

Journal format — one JSON object per line:

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
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.core.observability import llm_layers, resolve_obs

__all__ = [
    "CheckpointError", "CheckpointManager", "ResumeState",
    "fast_forward_faults", "fault_schedule_cursor", "read_meta",
]


class CheckpointError(ValueError):
    """Raised when a journal cannot be used (wrong job, malformed meta)."""


#: Shared JSON encoder for journal lines. ``json.dumps`` with keyword
#: options builds a fresh encoder per call; journaling sits on the batch
#: pipelines' hot path, so the encoder is constructed once. ``sort_keys``
#: keeps lines byte-stable regardless of dict construction order.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


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
    """An append-only JSONL journal of completed work units.

    Two consumption styles share one manager:

    * **keyed** — :meth:`completed`/:meth:`restore`/:meth:`record` treat
      each line as atomic (the eval harness journals one row per job this
      way; safe from executor worker threads);
    * **positional** — :meth:`resume_prefix`/:meth:`record_chunk` journal
      chunk-atomically (batch NER/RE/RAG/GraphRAG), down-rounding any
      half-written chunk on resume.

    Loading tolerates a torn tail (a partial or undecodable final line —
    the crash-injection suite produces these deliberately); the damaged
    suffix is truncated before the first new append, never silently
    replayed.
    """

    def __init__(self, path: str, obs=None):
        self.path = path
        self.obs = resolve_obs(obs)
        self._lock = threading.Lock()
        self._handle = None
        self._records: List[Dict[str, Any]] = []
        self._keyed: Dict[str, Any] = {}
        self._good_offset = 0       # byte offset after the last parsable line
        self._commit_offset = 0     # byte offset after the last commit record
        self._items_at_commit = 0
        self._truncated_to: Optional[int] = None
        self.resume_skips = 0
        self._load()

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def _load(self) -> None:
        """Parse the journal's consistent prefix; note torn-tail offsets."""
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as handle:
            data = handle.read()
        offset = 0
        items_seen = 0
        while offset < len(data):
            newline = data.find(b"\n", offset)
            if newline < 0:
                break  # unterminated final line: torn mid-write
            line = data[offset:newline]
            if line.strip():
                try:
                    record = json.loads(line.decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    break  # corrupt line: everything after is suspect
                self._records.append(record)
                kind = record.get("type")
                if kind == "item":
                    if "key" in record:
                        self._keyed[record["key"]] = record["value"]
                    else:
                        items_seen += 1
                elif kind == "commit":
                    self._commit_offset = newline + 1
                    self._items_at_commit = items_seen
            offset = newline + 1
            self._good_offset = offset

    def _prepare_append(self, keyed: bool) -> None:
        """Truncate the torn tail once, before the first append.

        Keyed appends keep every fully parsed line; positional appends
        additionally drop item lines of the half-finished chunk (they will
        be recomputed and re-journaled by the resumed run).
        """
        if self._truncated_to is not None:
            return
        target = self._good_offset if keyed else self._commit_offset
        if not keyed and not any(r.get("type") == "commit" for r in self._records):
            # No chunk ever committed: keep only the meta prefix.
            target = self._meta_end_offset()
        if os.path.exists(self.path) and os.path.getsize(self.path) > target:
            with open(self.path, "r+b") as handle:
                handle.truncate(target)
        self._truncated_to = target

    def _meta_end_offset(self) -> int:
        """Byte offset just past the meta record (0 when absent)."""
        if not self._records or self._records[0].get("type") != "meta":
            return 0
        with open(self.path, "rb") as handle:
            data = handle.read()
        newline = data.find(b"\n")
        return newline + 1 if newline >= 0 else 0

    def _append(self, records: Iterable[Dict[str, Any]], keyed: bool) -> None:
        # One encode pass, one write, one flush per append — journaling
        # sits on the batch pipelines' hot path, budgeted at ≤10% overhead
        # (see benchmarks/test_bench_durability.py).
        encode = _ENCODER.encode
        payload = "".join([encode(record) + "\n" for record in records])
        with self._lock:
            self._prepare_append(keyed)
            if self._handle is None:
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(payload)
            self._handle.flush()

    def close(self) -> None:
        """Release the journal's append handle (reopened lazily on write)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

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
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CheckpointError(
                    f"journal {path!r}: malformed first record: {exc}") from exc
            if record.get("type") != "meta":
                raise CheckpointError(
                    f"journal {path!r} does not start with a meta record")
            return record
    raise CheckpointError(f"journal {path!r} is empty")


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
