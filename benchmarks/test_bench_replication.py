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
latencies are pure functions of ``(seed, endpoint, call index)`` — so
the committed baseline is compared exactly in the matching mode, not
within a noise tolerance. If a change moves these numbers on purpose,
regenerate the baseline and commit it.

Results land in ``BENCH_replication.json`` at the repo root.
Environment knobs, as everywhere in ``benchmarks/``:

* ``REPRO_BENCH_QUICK=1`` shrinks the replay (CI smoke mode);
* ``REPRO_BENCH_GATE=1`` additionally fails on drift against the
  committed ``benchmarks/BENCH_replication_baseline.json``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict

from repro.kg.datasets import DATASET_BUILDERS
from repro.kg.replication import (
    ReplicatedShardedTripleStore,
    TransportProfile,
)
from repro.serve import overload_experiment, serving_observability

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
GATE = os.environ.get("REPRO_BENCH_GATE") == "1"

_REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = _REPO_ROOT / "BENCH_replication.json"
BASELINE_PATH = _REPO_ROOT / "benchmarks" / \
    "BENCH_replication_baseline.json"

#: The availability criterion: partitioned goodput ≥ 99% of fault-free.
MIN_AVAILABILITY = 0.99

CAPACITY = 4
LOAD_FACTOR = 2.0
REPLICAS = 2
N_REQUESTS = 60 if QUICK else 200
N_HEDGE_READS = 120 if QUICK else 400

#: Replay numbers that must reproduce exactly in the matching mode.
EXACT_KEYS = ("goodput", "completed", "shed", "failed", "p99_latency")


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

    payload = {
        "generated_by": "benchmarks/test_bench_replication.py",
        "quick": QUICK,
        "results": results,
    }
    RESULTS_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    print(f"  wrote {RESULTS_PATH}")

    # The issue's acceptance bar, gated unconditionally.
    assert availability >= MIN_AVAILABILITY, \
        f"availability under partition: {availability:.1%} " \
        f"(need >= {MIN_AVAILABILITY:.0%} of fault-free goodput)"
    for name, row in (("clean", clean), ("partitioned", partitioned)):
        assert row["failed"] == 0, f"{name}: {row['failed']} failed requests"
    assert partitioned["replication"]["unavailable"] == 0, \
        "reads went unavailable despite a surviving replica per shard"
    assert hedged["p99"] < unhedged["p99"], \
        f"hedging did not cut the fault-injected p99 " \
        f"({hedged['p99']} >= {unhedged['p99']})"
    assert hedged["hedged_reads"] > 0

    if GATE and BASELINE_PATH.exists():
        committed = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
        mode = "quick" if QUICK else "full"
        expected = committed.get("modes", {}).get(mode)
        assert expected is not None, \
            f"baseline has no {mode!r} mode; regenerate it"
        assert availability >= MIN_AVAILABILITY * \
            expected["availability"], \
            f"availability regressed: {availability:.3f} vs baseline " \
            f"{expected['availability']:.3f}"
        drifts = []
        for key in EXACT_KEYS:
            if expected["partitioned_2x"][key] != partitioned[key]:
                drifts.append(
                    f"partitioned_2x.{key}: baseline "
                    f"{expected['partitioned_2x'][key]!r} != "
                    f"measured {partitioned[key]!r}")
        if expected["hedging_on"]["p99"] != hedged["p99"]:
            drifts.append(
                f"hedging_on.p99: baseline "
                f"{expected['hedging_on']['p99']!r} != "
                f"measured {hedged['p99']!r}")
        assert not drifts, \
            "deterministic replay drifted from the committed baseline " \
            "(if intentional, regenerate " \
            "BENCH_replication_baseline.json):\n  " + "\n  ".join(drifts)
