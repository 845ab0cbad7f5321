"""Unit tests for checkpoint/resume journaling (`repro.core.durability`)."""

import hashlib
import json

import pytest

from repro.core.durability import (
    CheckpointError,
    CheckpointManager,
    fast_forward_faults,
    fault_schedule_cursor,
    journal_frame,
    read_meta,
)
from repro.core.observability import Observability
from repro.llm import FaultInjectingLLM, FaultProfile, SimulatedLLM


def read_lines(path):
    """Decode a journal line by line; every line must re-frame to itself."""
    with open(path, "rb") as handle:
        lines = handle.readlines()
    records = [json.loads(line.split(b"\t", 1)[1]) for line in lines]
    assert [journal_frame(record) for record in records] == lines
    return records


class TestMeta:
    def test_ensure_meta_writes_once(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        first = CheckpointManager(path)
        first.ensure_meta("job:x", {"seed": 3})
        second = CheckpointManager(path)
        meta = second.ensure_meta("job:x")
        assert meta["config"] == {"seed": 3}
        assert len(read_lines(path)) == 1

    def test_job_mismatch_fails_loudly(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        CheckpointManager(path).ensure_meta("job:x")
        with pytest.raises(CheckpointError, match="belongs to job"):
            CheckpointManager(path).ensure_meta("job:y")

    def test_records_without_meta_rejected(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "wb") as handle:
            handle.write(journal_frame({"type": "item", "key": "a", "value": 1}))
        with pytest.raises(CheckpointError, match="no meta"):
            CheckpointManager(path).ensure_meta("job:x")

    def test_old_format_journal_refused_untouched(self, tmp_path):
        path = tmp_path / "old.jsonl"
        old = (b'{"type": "meta", "job": "job:x", "config": {}}\n'
               b'{"type": "item", "key": "a", "value": 1}\n')
        path.write_bytes(old)
        with pytest.raises(CheckpointError, match="predates per-line"):
            CheckpointManager(str(path))
        with pytest.raises(CheckpointError, match="predates per-line"):
            read_meta(str(path))
        assert path.read_bytes() == old

    def test_read_meta(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        CheckpointManager(path).ensure_meta("job:x", {"n": 2})
        assert read_meta(path)["config"] == {"n": 2}

    def test_read_meta_errors(self, tmp_path):
        missing = str(tmp_path / "missing.jsonl")
        with pytest.raises(OSError):
            read_meta(missing)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(CheckpointError, match="empty"):
            read_meta(str(empty))
        headless = tmp_path / "headless.jsonl"
        headless.write_bytes(journal_frame({"type": "item", "value": 1}))
        with pytest.raises(CheckpointError, match="meta record"):
            read_meta(str(headless))
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(journal_frame({"type": "meta", "job": "x"})[:20])
        with pytest.raises(CheckpointError, match="malformed"):
            read_meta(str(torn))


class TestKeyedMode:
    def test_record_completed_restore_across_instances(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        writer = CheckpointManager(path)
        writer.ensure_meta("harness:t")
        writer.record("alpha", {"f1": 0.5})
        resumed = CheckpointManager(path)
        assert resumed.completed("alpha")
        assert resumed.restore("alpha") == {"f1": 0.5}
        assert not resumed.completed("beta")
        assert resumed.resume_skips == 1

    def test_rewriting_a_key_wins(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        manager = CheckpointManager(path)
        manager.record("k", 1)
        manager.record("k", 2)
        assert CheckpointManager(path).restore("k") == 2

    def test_torn_tail_keeps_parsable_prefix(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        manager = CheckpointManager(path)
        manager.ensure_meta("harness:t")
        manager.record("a", 1)
        with open(path, "ab") as handle:
            handle.write(b'{"type": "item", "key": "b", "val')
        resumed = CheckpointManager(path)
        assert resumed.completed("a") and not resumed.completed("b")
        # First append truncates the torn bytes, then lands cleanly.
        resumed.record("c", 3)
        lines = read_lines(path)
        assert [r.get("key") for r in lines] == [None, "a", "c"]


class TestPositionalMode:
    def _journal(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        manager = CheckpointManager(path)
        manager.ensure_meta("batch:x")
        return path, manager

    def test_chunks_restore_in_order(self, tmp_path):
        path, manager = self._journal(tmp_path)
        manager.record_chunk(["a", "b"], llm_calls=4)
        manager.record_chunk(["c"], llm_calls=7, extra={"faulted": 1})
        state = CheckpointManager(path).resume_prefix()
        assert state.values == ["a", "b", "c"]
        assert state.llm_calls == 7
        assert state.extras == [{"faulted": 1}]
        assert state.chunks == 2

    def test_uncommitted_items_are_dropped(self, tmp_path):
        path, manager = self._journal(tmp_path)
        manager.record_chunk(["a", "b"], llm_calls=2)
        # Simulate a crash mid-chunk: item line present, commit missing.
        with open(path, "ab") as handle:
            handle.write(journal_frame({"type": "item", "value": "orphan"}))
        resumed = CheckpointManager(path)
        state = resumed.resume_prefix()
        assert state.values == ["a", "b"]
        assert resumed.resume_skips == 2
        # The next commit drops the orphan from disk before appending.
        resumed.record_chunk(["c"], llm_calls=3)
        values = [r["value"] for r in read_lines(path)
                  if r.get("type") == "item"]
        assert values == ["a", "b", "c"]

    def test_torn_partial_line_is_dropped(self, tmp_path):
        path, manager = self._journal(tmp_path)
        manager.record_chunk(["a"], llm_calls=1)
        with open(path, "ab") as handle:
            handle.write(b'{"type": "item", "value": "hal')
        state = CheckpointManager(path).resume_prefix()
        assert state.values == ["a"]
        assert state.llm_calls == 1

    def test_no_commit_keeps_only_meta(self, tmp_path):
        path, manager = self._journal(tmp_path)
        with open(path, "ab") as handle:
            handle.write(journal_frame({"type": "item", "value": "mid-flight"}))
        resumed = CheckpointManager(path)
        assert resumed.resume_prefix().values == []
        resumed.record_chunk(["a"])
        records = read_lines(path)
        assert records[0]["type"] == "meta"
        assert [r["value"] for r in records if r.get("type") == "item"] == ["a"]

    def test_llm_calls_cursor_defaults_to_none(self, tmp_path):
        path, manager = self._journal(tmp_path)
        manager.record_chunk(["a"])
        assert CheckpointManager(path).resume_prefix().llm_calls is None


class TestChecksum:
    def test_flipped_byte_in_a_value_ends_the_prefix(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        manager = CheckpointManager(path)
        manager.ensure_meta("batch:x")
        manager.record_chunk(["alpha", "bravo"], llm_calls=2)
        manager.record_chunk(["charlie", "delta"], llm_calls=4)
        manager.close()
        with open(path, "rb") as handle:
            data = bytearray(handle.read())
        # "charlie" -> "chaslie": the second chunk's first line still parses.
        data[data.index(b"charlie") + 3] ^= 0x01
        with open(path, "wb") as handle:
            handle.write(data)
        line = bytes(data).splitlines()[4]
        assert json.loads(line.split(b"\t", 1)[1]) == {"type": "item",
                                                       "value": "chaslie"}
        resumed = CheckpointManager(path)
        state = resumed.resume_prefix()
        assert state.values == ["alpha", "bravo"]
        assert (state.llm_calls, state.chunks) == (2, 1)
        # The next append cuts the file from the bad line on.
        resumed.record_chunk(["echo"], llm_calls=5)
        resumed.close()
        assert [r.get("value") for r in read_lines(path)] == [
            None, "alpha", "bravo", None, "echo", None]


class TestJournalIdentity:
    """Pins the journal's bytes, so a format change shows here by name.

    A keyed and a positional run over one journal, with values that need
    JSON escapes. Only change the digest for a deliberate format change,
    and say what happens to journals written before it.
    """

    GOLDEN_JOURNAL_DIGEST = ("870283ef6473727955fbc7d194abe626"
                             "71a70b680c5e84ed8390340e5e7c2b52")

    def test_journal_bytes(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        manager = CheckpointManager(path)
        manager.ensure_meta("job:x", {"seed": 3, "model": "chatgpt"})
        manager.record("alpha", {"f1": 0.5, "text": 'a\nb\t"c" \u00e9'})
        manager.record_chunk(["a", "b"], llm_calls=4)
        manager.record_chunk([["c", 1]], llm_calls=7, extra={"faulted": 1})
        manager.close()
        with open(path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        assert digest == self.GOLDEN_JOURNAL_DIGEST


class TestStatsAndObs:
    def test_stats_counts_both_modes(self, tmp_path):
        manager = CheckpointManager(str(tmp_path / "j.jsonl"))
        manager.record("k", 1)
        manager.record_chunk(["a", "b"])
        stats = manager.stats()
        assert stats["keyed_items"] == 1
        assert stats["items"] == 3
        assert stats["commits"] == 1

    def test_obs_counters(self, tmp_path):
        obs = Observability()
        path = str(tmp_path / "j.jsonl")
        manager = CheckpointManager(path, obs=obs)
        manager.record_chunk(["a", "b"], llm_calls=1)
        assert obs.metrics.counter_total("checkpoint.records") == 2
        assert obs.metrics.counter_total("checkpoint.commits") == 1
        resumed = CheckpointManager(path, obs=obs)
        resumed.resume_prefix()
        assert obs.metrics.counter_total("checkpoint.resume_skips") == 2


class TestFaultCursor:
    def _chain(self):
        return FaultInjectingLLM(SimulatedLLM(),
                                 FaultProfile.uniform(0.5, seed=0))

    def test_cursor_reads_fault_calls(self):
        llm = self._chain()
        assert fault_schedule_cursor(llm) == 0
        llm.fault_calls = 5
        assert fault_schedule_cursor(llm) == 5

    def test_cursor_none_without_fault_layer(self):
        assert fault_schedule_cursor(SimulatedLLM()) is None
        assert fault_schedule_cursor(None) is None

    def test_fast_forward_sets_cursor(self):
        llm = self._chain()
        assert fast_forward_faults(llm, 9) is True
        assert llm.fault_calls == 9

    def test_fast_forward_none_is_a_noop(self):
        llm = self._chain()
        assert fast_forward_faults(llm, None) is False
        assert llm.fault_calls == 0

    def test_fast_forward_without_fault_layer(self):
        assert fast_forward_faults(SimulatedLLM(), 4) is False

    def test_fast_forward_reaches_wrapped_layer(self):
        class Wrapper:
            """An outer decorator holding the fault layer as ``inner``."""

            def __init__(self, inner):
                self.inner = inner

        llm = Wrapper(self._chain())
        assert fast_forward_faults(llm, 3) is True
        assert llm.inner.fault_calls == 3
        assert fault_schedule_cursor(llm) == 3
