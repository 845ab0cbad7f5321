"""E-REPLICATION — availability under partition and hedged tail latency.

The replication layer's contract (DESIGN §14) is that a partition of
one replica per shard is an *operational non-event*: reads fail over to
surviving replicas behind per-endpoint breakers, and goodput through
the serving gateway is preserved. Two experiments measure it:

1. **availability** — the ``mixed`` overload replay at 2× capacity,
   run fault-free and then with one replica of every shard forced off
   the network a quarter of the way in (``overload_experiment`` with
   ``partition=True``).
   Gate: partitioned goodput ≥ **99%** of the fault-free run, zero
   failed requests, ledger reconciles on both runs.
2. **hedging** — a direct-store read loop under a slow-tail transport
   profile (20% of calls at 50× base latency), with hedged backup
   reads on and off. Gate: hedging strictly cuts the simulated p99.

Every number is **simulated and deterministic** — transport fates and
latencies are pure functions of ``(seed, endpoint, call index)`` — and
labelled modelled. Results land in ``BENCH_replication.json`` at the
repo root; under ``REPRO_BENCH_GATE=1`` the whole result must equal the
committed ``benchmarks/BENCH_replication_baseline.json`` for the mode
(see ``gates.py``). If a change moves these numbers on purpose,
regenerate the baseline and commit it.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.kg.datasets import DATASET_BUILDERS
from repro.kg.replication import (
    ReplicatedShardedTripleStore,
    TransportProfile,
)
from repro.serve import overload_experiment, serving_observability

import gates

QUICK = gates.QUICK

#: The availability criterion: partitioned goodput ≥ 99% of fault-free.
MIN_AVAILABILITY = 0.99

CAPACITY = 4
LOAD_FACTOR = 2.0
REPLICAS = 2
N_REQUESTS = 60 if QUICK else 200
N_HEDGE_READS = 120 if QUICK else 400


def _serve_run(partition: bool) -> Dict[str, Any]:
    report = overload_experiment(
        dataset="enterprise", mix_name="mixed", capacity=CAPACITY,
        load_factor=LOAD_FACTOR, n_requests=N_REQUESTS, seed=0,
        replicas=REPLICAS, partition=partition,
        obs=serving_observability())
    detail = report.detail
    row = report.to_dict()
    row["victims"] = len(detail["victims"])
    row["replication"] = detail["replication"]
    stats = report.gateway_stats
    assert stats["admitted"] == \
        stats["completed"] + stats["shed"] + stats["failed"]
    return row


def _hedge_run(hedging: bool) -> Dict[str, Any]:
    store = ReplicatedShardedTripleStore(
        list(DATASET_BUILDERS["family"](seed=0).kg.store),
        shards=2, replicas=2, hedging=hedging,
        profile=TransportProfile(seed=9, tail_rate=0.2,
                                 tail_multiplier=50.0))
    subjects = sorted(store.subjects(), key=lambda term: term.n3())
    for i in range(N_HEDGE_READS):
        store.match(subjects[i % len(subjects)], None, None)
    stats = store.replication_stats()
    return {
        "hedging": hedging,
        "p50": round(store.read_latency_quantile(50), 6),
        "p99": round(store.read_latency_quantile(99), 6),
        "hedged_reads": stats["hedges_fired"],
        "hedge_wins": stats["hedge_wins"],
        "reads": stats["reads"],
    }


def test_replication_benchmark():
    clean = _serve_run(partition=False)
    partitioned = _serve_run(partition=True)
    # Determinism is the basis for gating exact numbers: an identical
    # replay must reproduce the identical report.
    assert _serve_run(partition=True) == partitioned, \
        "partitioned replay is not deterministic"
    availability = partitioned["goodput"] / clean["goodput"]

    unhedged = _hedge_run(hedging=False)
    hedged = _hedge_run(hedging=True)
    assert _hedge_run(hedging=True) == hedged, \
        "hedged replay is not deterministic"

    results = {
        "clean_2x": clean,
        "partitioned_2x": partitioned,
        "availability": round(availability, 6),
        "hedging_off": unhedged,
        "hedging_on": hedged,
    }

    print("\nE-REPLICATION — partition availability (simulated, "
          "deterministic)")
    for name, row in (("clean_2x", clean), ("partitioned_2x", partitioned)):
        print(f"  {name:14s} goodput {row['goodput']:6.2f}/s  "
              f"completed {row['completed']:3d}  shed {row['shed']:3d}  "
              f"failed {row['failed']:3d}  p99 {row['p99_latency']:6.3f}s")
    print(f"  availability under partition: {availability:.1%} of "
          f"fault-free goodput")
    print(f"  hedging: p99 {unhedged['p99']:.4f}s -> {hedged['p99']:.4f}s "
          f"({hedged['hedged_reads']} hedged, "
          f"{hedged['hedge_wins']} wins)")

    gates.finish("replication", results, gates.exact, bounds={
        f"availability under partition {availability:.1%} >= "
        f"{MIN_AVAILABILITY:.0%} of fault-free goodput":
            availability >= MIN_AVAILABILITY,
        f"clean: {clean['failed']} failed requests": clean["failed"] == 0,
        f"partitioned: {partitioned['failed']} failed requests":
            partitioned["failed"] == 0,
        f"{partitioned['replication']['unavailable']} reads unavailable "
        f"despite a surviving replica per shard":
            partitioned["replication"]["unavailable"] == 0,
        f"hedging cuts the fault-injected p99 ({hedged['p99']} < "
        f"{unhedged['p99']})": hedged["p99"] < unhedged["p99"],
        f"{hedged['hedged_reads']} hedged reads fired":
            hedged["hedged_reads"] > 0,
    }, modelled=gates.ALL)
