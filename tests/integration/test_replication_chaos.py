"""Chaos suite for replicated shard serving.

The availability contract this suite gates:

* with R=2 and one replica of **every** shard partitioned mid-run, every
  read still succeeds (possibly stale-flagged) — no request sees a
  replication error surface past the degradation machinery;
* the replication ledger reconciles: every read attempt resolves exactly
  once (``reads + unavailable + stale_rejections``), and the gateway's
  own ledger (``admitted == completed + shed + failed``) holds under
  partition;
* a follower that rejoins after a partition is healed byte-identical to
  its primary by one anti-entropy pass;
* the whole schedule replays byte-identically at any worker count
  (``REPRO_CHAOS_WORKERS``, default 4).
"""

import os


from repro.core.executor import ParallelExecutor
from repro.core.resilience import CircuitBreaker
from repro.kg.datasets import DATASET_BUILDERS
from repro.kg.replication import (
    ReplicatedShardedTripleStore,
    ReplicationError,
    TransportProfile,
)
from repro.kg.store import TripleStore
from repro.kg.triples import Triple
from repro.serve import (
    Gateway,
    build_backends,
    overload_experiment,
    serving_observability,
)

CHAOS_WORKERS = int(os.environ.get("REPRO_CHAOS_WORKERS", "4"))

SEED = 0


def _dataset_triples(name="family", seed=SEED):
    return list(DATASET_BUILDERS[name](seed=seed).kg.store)


def _read_workload(store, reference, subjects):
    """Every subject read + the broadcast paths, checked against flat."""
    for s in subjects:
        assert store.match(s, None, None) == reference.match(s, None, None)
    predicate = sorted(reference.relations(), key=lambda p: p.value)[0]
    assert store.match(None, predicate, None) == \
        reference.match(None, predicate, None)
    assert store.match_count(None, predicate, None) == \
        reference.match_count(None, predicate, None)


class TestPartitionedReads:
    def test_all_reads_succeed_with_one_replica_per_shard_cut(self):
        data = _dataset_triples()
        reference = TripleStore(data)
        subjects = sorted({t.subject for t in data}, key=lambda s: s.value)
        executor = ParallelExecutor(max_workers=CHAOS_WORKERS)
        store = ReplicatedShardedTripleStore(
            data, shards=4, replicas=2, executor=executor,
            profile=TransportProfile(seed=SEED, tail_rate=0.05))
        store.partition_one_replica_per_shard()
        _read_workload(store, reference, subjects)
        assert store.unavailable == 0
        assert store.stale_rejections == 0

    def test_read_ledger_reconciles_under_faults(self):
        data = _dataset_triples()
        subjects = sorted({t.subject for t in data}, key=lambda s: s.value)
        store = ReplicatedShardedTripleStore(
            data, shards=4, replicas=2,
            profile=TransportProfile(seed=3, drop_rate=0.2, timeout_rate=0.1),
            breaker_threshold=2, breaker_cooldown=4)
        store.partition_one_replica_per_shard()
        attempts = 0
        for i in range(300):
            attempts += 1
            try:
                store.match(subjects[i % len(subjects)], None, None)
            except ReplicationError:
                pass
        # Every attempt resolved exactly once: served (fresh or stale),
        # refused as stale under strict, or typed unavailable.
        assert attempts == store.reads + store.unavailable + \
            store.stale_rejections

    def test_replays_byte_identical_across_worker_counts(self):
        data = _dataset_triples()
        subjects = sorted({t.subject for t in data}, key=lambda s: s.value)

        def run(workers):
            store = ReplicatedShardedTripleStore(
                data, shards=4, replicas=2,
                executor=ParallelExecutor(max_workers=workers),
                profile=TransportProfile(seed=5, tail_rate=0.05,
                                         timeout_rate=0.02))
            store.partition_one_replica_per_shard()
            results = []
            for i in range(120):
                try:
                    results.append(store.match(subjects[i % len(subjects)],
                                               None, None))
                except ReplicationError as exc:
                    results.append(type(exc).__name__)
            return results, store.replication_stats(), store.read_latencies

        solo = run(1)
        fleet = run(CHAOS_WORKERS)
        assert solo == fleet


class TestAntiEntropy:
    def test_rejoined_follower_heals_byte_identical(self):
        data = _dataset_triples()
        store = ReplicatedShardedTripleStore(data, shards=4, replicas=2)
        store.partition_one_replica_per_shard()
        # Writes land while half the fleet is dark: follower victims lag,
        # primary victims only lose reads (writes are coordinator-local).
        from repro.kg.triples import IRI
        for i in range(8):
            store.add(Triple(IRI(f"http://example.org/during{i}"),
                             IRI("http://example.org/p"),
                             IRI(f"http://example.org/o{i}")))
        assert any(row["lag"] for row in store.verify_replicas())
        store.restore_partitions()
        result = store.heal()
        assert result["lagging"] == []
        rows = store.verify_replicas()
        assert all(row["identical"] and row["lag"] == 0 for row in rows)


class TestServingUnderPartition:
    def test_partition_experiment_ledger_and_availability(self):
        report = overload_experiment(
            dataset="enterprise", load_factor=2.0, n_requests=60, seed=3,
            replicas=2, partition=True, obs=serving_observability())
        detail = report.detail
        assert detail["partitioned"] and len(detail["victims"]) >= 1
        assert report.failed == 0
        stats = report.gateway_stats
        assert stats["admitted"] == \
            stats["completed"] + stats["shed"] + stats["failed"]
        assert detail["availability"] >= 0.99
        rep = detail["replication"]
        assert rep["unavailable"] == 0

    def test_partition_experiment_is_deterministic(self):
        runs = [overload_experiment(dataset="enterprise", load_factor=2.0,
                                    n_requests=40, seed=7, replicas=2,
                                    partition=True,
                                    obs=serving_observability())
                for _ in range(2)]
        report_a, report_b = runs
        assert report_a.to_dict() == report_b.to_dict()
        assert report_a.detail == report_b.detail

    def test_full_partition_falls_through_tiers_not_failures(self):
        obs = serving_observability()
        backends = build_backends(dataset="family", seed=SEED, obs=obs,
                                  replicas=2)
        replicated = backends.replicated
        gateway = Gateway(backends.handlers, capacity=CHAOS_WORKERS,
                          queue_limit=16, budget=6.0,
                          breaker=CircuitBreaker(failure_threshold=5,
                                                 cooldown=8,
                                                 name="serve-chaos"),
                          obs=obs, seed=SEED)
        # Cut EVERY replica of EVERY shard: tier 0 (strict) and tier 1
        # (stale_ok) both see typed replication errors; the busy tier
        # reads nothing and always answers.
        shards = replicated.replication_stats()["shards"]
        for shard in range(shards):
            for replica in range(2):
                replicated.transport.force_partition(shard, replica)
        now = 0.0
        for i in range(6):
            now += 0.5
            result = gateway.offer(f"t{i % 2}", "sparql",
                                   "who is related to whom", now)
            assert result.status in ("completed", "shed")
        stats = gateway.stats()
        assert stats["failed"] == 0
        assert any(key.startswith("fallthrough_Shard") or
                   key.startswith("fallthrough_Stale")
                   for key in stats), sorted(stats)
