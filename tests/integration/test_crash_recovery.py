"""Crash-injection suite: kill a worker mid-run, recover, resume, compare.

Each test launches ``crash_worker.py`` in a subprocess, lets it die via
``os._exit`` at a seeded crash point (optionally smearing a torn
half-record over the durable file's tail first), and then asserts the
durability layer's two contracts:

* **recovery** — a fresh process reconstructs exactly the state that was
  committed before the crash: same triples, same version/LSN, torn tails
  truncated, nothing invented;
* **resume equivalence** — re-running the same job over the crashed
  journal completes it and produces stdout *byte-identical* to an
  uninterrupted reference run, at any worker count and with fault
  injection active.

``REPRO_CHAOS_WORKERS`` (default 4) sets the parallel worker count, as in
the chaos suite.
"""

import os
import re
import subprocess
import sys

import pytest

from repro.kg.store import TripleStore
from repro.kg.wal import recover

from tests.integration.crash_worker import (
    CRASH_EXIT,
    apply_store_op,
    store_ops,
)

WORKER = os.path.join(os.path.dirname(__file__), "crash_worker.py")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

CHAOS_WORKERS = int(os.environ.get("REPRO_CHAOS_WORKERS", "4"))


def run_worker(*args):
    """Run crash_worker.py in a subprocess; return the CompletedProcess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(SRC)
    return subprocess.run(
        [sys.executable, WORKER, *[str(a) for a in args]],
        capture_output=True, text=True, env=env, timeout=300)


def expected_store_state(ops_applied):
    """Replay the worker's op sequence in memory up to the crash point."""
    reference = TripleStore()
    for op in store_ops(20)[:ops_applied]:
        apply_store_op(reference, op)
    return reference


class TestStoreCrashRecovery:
    @pytest.mark.parametrize("crash_after", [1, 4, 11])
    def test_recovery_matches_committed_prefix(self, tmp_path, crash_after):
        directory = str(tmp_path / "kg")
        result = run_worker("store", "--dir", directory, "--ops", 20,
                            "--crash-after", crash_after)
        assert result.returncode == CRASH_EXIT, result.stderr
        store = recover(directory)
        reference = expected_store_state(crash_after)
        assert set(store) == set(reference)
        assert store.version == reference.version == crash_after
        assert store.last_recovery.truncated_bytes == 0
        store.close()

    @pytest.mark.parametrize("crash_after", [2, 7])
    def test_torn_wal_tail_is_truncated(self, tmp_path, crash_after):
        directory = str(tmp_path / "kg")
        result = run_worker("store", "--dir", directory, "--ops", 20,
                            "--crash-after", crash_after, "--torn")
        assert result.returncode == CRASH_EXIT, result.stderr
        store = recover(directory)
        reference = expected_store_state(crash_after)
        assert set(store) == set(reference)
        assert store.version == crash_after
        assert store.last_recovery.truncated_bytes > 0
        store.close()

    def test_crash_between_snapshots_replays_wal_suffix(self, tmp_path):
        directory = str(tmp_path / "kg")
        result = run_worker("store", "--dir", directory, "--ops", 20,
                            "--snapshot-every", 4, "--crash-after", 10)
        assert result.returncode == CRASH_EXIT, result.stderr
        store = recover(directory)
        reference = expected_store_state(10)
        assert set(store) == set(reference)
        assert store.version == 10
        # The snapshot carried most of the state; the WAL only the suffix.
        assert store.last_recovery.snapshot_lsn > 0
        assert store.last_recovery.records_replayed < 10
        store.close()

    def test_recovered_store_keeps_accepting_writes(self, tmp_path):
        directory = str(tmp_path / "kg")
        run_worker("store", "--dir", directory, "--ops", 20,
                   "--crash-after", 5, "--torn")
        store = recover(directory)
        for op in store_ops(20)[5:]:
            apply_store_op(store, op)
        store.close()
        # A second recovery sees the completed sequence.
        final = recover(directory)
        reference = expected_store_state(20)
        assert set(final) == set(reference)
        assert final.version == 20
        final.close()


class TestShardedStoreCrashRecovery:
    """The sharded store writes the flat store's log and snapshot, so it
    honors the same crash contract: ``recover`` restores exactly the
    committed prefix, at the original shard count or a different one."""

    @pytest.mark.parametrize("crash_after", [1, 4, 11])
    def test_recovery_matches_committed_prefix(self, tmp_path, crash_after):
        directory = str(tmp_path / "kg")
        result = run_worker("store", "--dir", directory, "--ops", 20,
                            "--shards", 4, "--crash-after", crash_after)
        assert result.returncode == CRASH_EXIT, result.stderr
        store = recover(directory)
        reference = expected_store_state(crash_after)
        assert store.shard_count == 4
        assert list(store) == list(reference)  # membership AND order
        assert store.version == reference.version == crash_after
        assert store.last_recovery.truncated_bytes == 0
        store.close()

    @pytest.mark.parametrize("crash_after", [2, 7])
    def test_torn_shard_log_tail_is_truncated(self, tmp_path, crash_after):
        directory = str(tmp_path / "kg")
        result = run_worker("store", "--dir", directory, "--ops", 20,
                            "--shards", 4, "--crash-after", crash_after,
                            "--torn")
        assert result.returncode == CRASH_EXIT, result.stderr
        store = recover(directory)
        reference = expected_store_state(crash_after)
        assert set(store) == set(reference)
        assert store.version == crash_after
        assert store.last_recovery.truncated_bytes > 0
        store.close()

    def test_crash_between_snapshots_replays_shard_suffixes(self, tmp_path):
        directory = str(tmp_path / "kg")
        result = run_worker("store", "--dir", directory, "--ops", 20,
                            "--shards", 4, "--snapshot-every", 4,
                            "--crash-after", 10)
        assert result.returncode == CRASH_EXIT, result.stderr
        store = recover(directory)
        reference = expected_store_state(10)
        assert set(store) == set(reference)
        assert store.version == 10
        assert store.last_recovery.snapshot_lsn > 0
        store.close()

    def test_recovered_store_keeps_accepting_writes(self, tmp_path):
        directory = str(tmp_path / "kg")
        run_worker("store", "--dir", directory, "--ops", 20,
                   "--shards", 4, "--crash-after", 5, "--torn")
        store = recover(directory)
        for op in store_ops(20)[5:]:
            apply_store_op(store, op)
        store.close()
        final = recover(directory)
        reference = expected_store_state(20)
        assert set(final) == set(reference)
        assert final.version == 20
        final.close()

    def test_recovery_under_a_different_shard_count(self, tmp_path):
        directory = str(tmp_path / "kg")
        result = run_worker("store", "--dir", directory, "--ops", 20,
                            "--shards", 2, "--crash-after", 8)
        assert result.returncode == CRASH_EXIT, result.stderr
        store = recover(directory, shards=5)
        reference = expected_store_state(8)
        assert store.shard_count == 5
        assert list(store) == list(reference)
        assert store.version == 8
        store.close()


class TestQaKillResume:
    """GraphRAG batch QA: kill mid-batch, resume, expect identical bytes."""

    def _reference(self, tmp_path, workers, fault_rate):
        journal = str(tmp_path / "ref.jsonl")
        result = run_worker("qa", "--journal", journal, "--questions", 6,
                            "--batch-size", 2, "--workers", workers,
                            "--fault-rate", fault_rate)
        assert result.returncode == 0, result.stderr
        return result.stdout

    @pytest.mark.parametrize("workers", [1, CHAOS_WORKERS])
    def test_kill_resume_is_byte_identical(self, tmp_path, workers):
        reference = self._reference(tmp_path, workers, 0.0)
        journal = str(tmp_path / "crash.jsonl")
        crashed = run_worker("qa", "--journal", journal, "--questions", 6,
                             "--batch-size", 2, "--workers", workers,
                             "--crash-after", 2)
        assert crashed.returncode == CRASH_EXIT, crashed.stderr
        resumed = run_worker("qa", "--journal", journal, "--questions", 6,
                             "--batch-size", 2, "--workers", workers)
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == reference
        assert "restored=4" in resumed.stderr

    @pytest.mark.parametrize("workers", [1, CHAOS_WORKERS])
    def test_kill_resume_with_faults_is_byte_identical(self, tmp_path,
                                                       workers):
        reference = self._reference(tmp_path, workers, 0.3)
        journal = str(tmp_path / "crash.jsonl")
        crashed = run_worker("qa", "--journal", journal, "--questions", 6,
                             "--batch-size", 2, "--workers", workers,
                             "--fault-rate", 0.3, "--crash-after", 1)
        assert crashed.returncode == CRASH_EXIT, crashed.stderr
        resumed = run_worker("qa", "--journal", journal, "--questions", 6,
                             "--batch-size", 2, "--workers", workers,
                             "--fault-rate", 0.3)
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == reference
        assert "restored=2" in resumed.stderr

    def test_torn_journal_tail_resumes_from_last_commit(self, tmp_path):
        reference = self._reference(tmp_path, 1, 0.0)
        journal = str(tmp_path / "crash.jsonl")
        crashed = run_worker("qa", "--journal", journal, "--questions", 6,
                             "--batch-size", 2, "--crash-after", 1, "--torn")
        assert crashed.returncode == CRASH_EXIT, crashed.stderr
        resumed = run_worker("qa", "--journal", journal, "--questions", 6,
                             "--batch-size", 2)
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == reference
        assert "restored=2" in resumed.stderr

    def test_double_crash_then_resume(self, tmp_path):
        """Crashing a resumed run and resuming again still converges."""
        reference = self._reference(tmp_path, 1, 0.0)
        journal = str(tmp_path / "crash.jsonl")
        first = run_worker("qa", "--journal", journal, "--questions", 6,
                           "--batch-size", 2, "--crash-after", 1)
        assert first.returncode == CRASH_EXIT, first.stderr
        second = run_worker("qa", "--journal", journal, "--questions", 6,
                            "--batch-size", 2, "--crash-after", 1, "--torn")
        assert second.returncode == CRASH_EXIT, second.stderr
        final = run_worker("qa", "--journal", journal, "--questions", 6,
                           "--batch-size", 2)
        assert final.returncode == 0, final.stderr
        assert final.stdout == reference
        assert "restored=4" in final.stderr


class TestHarnessKillResume:
    """Keyed eval-harness journaling survives kills at any worker count."""

    @pytest.mark.parametrize("workers", [1, CHAOS_WORKERS])
    def test_kill_resume_renders_identical_table(self, tmp_path, workers):
        reference = run_worker("harness", "--journal",
                               str(tmp_path / "ref.jsonl"),
                               "--workers", workers)
        assert reference.returncode == 0, reference.stderr
        journal = str(tmp_path / "crash.jsonl")
        crashed = run_worker("harness", "--journal", journal,
                             "--workers", workers, "--crash-after", 2)
        assert crashed.returncode == CRASH_EXIT, crashed.stderr
        resumed = run_worker("harness", "--journal", journal,
                             "--workers", workers)
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == reference.stdout
        # With workers > 1 an extra in-flight job may commit before the
        # crash point fires, so assert a floor rather than an exact count.
        restored = int(re.search(r"restored=(\d+)", resumed.stderr).group(1))
        assert restored >= 2

    def test_torn_harness_journal_drops_partial_record(self, tmp_path):
        reference = run_worker("harness", "--journal",
                               str(tmp_path / "ref.jsonl"), "--workers", 1)
        journal = str(tmp_path / "crash.jsonl")
        crashed = run_worker("harness", "--journal", journal, "--workers", 1,
                             "--crash-after", 1, "--torn")
        assert crashed.returncode == CRASH_EXIT, crashed.stderr
        resumed = run_worker("harness", "--journal", journal, "--workers", 1)
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == reference.stdout
        assert "restored=1" in resumed.stderr


class TestCliKillResume:
    """The public ``repro run`` verb round-trips a kill through --resume."""

    def _run_cli(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(SRC)
        return subprocess.run([sys.executable, "-m", "repro", *args],
                              capture_output=True, text=True, env=env,
                              timeout=300)

    def test_resume_after_partial_journal(self, tmp_path):
        ref_journal = str(tmp_path / "ref.jsonl")
        reference = self._run_cli("run", "family", "--journal", ref_journal,
                                  "--questions", "4", "--batch-size", "2")
        assert reference.returncode == 0, reference.stderr
        # Simulate a kill by replaying only the journal's first chunk:
        # meta + first chunk's items + its commit record.
        journal = str(tmp_path / "crash.jsonl")
        with open(ref_journal, encoding="utf-8") as handle:
            lines = handle.readlines()
        commit_indices = [i for i, line in enumerate(lines)
                          if '"commit"' in line]
        with open(journal, "w", encoding="utf-8") as handle:
            handle.writelines(lines[:commit_indices[0] + 1])
        resumed = self._run_cli("run", "--resume", journal)
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == reference.stdout
        assert "2 restored" in resumed.stderr
