"""E-SERVING — goodput under overload through the front-door gateway.

The serving layer's contract is *graceful* degradation: pushed past
capacity, the gateway must trade answer fidelity (cheaper tiers) and
admission (bounded queues) for throughput, instead of letting latency
and queues grow without bound. This benchmark measures that directly:

1. **baseline** — an open-loop Poisson replay of the ``mixed`` traffic
   mix at 1× the fleet's full-fidelity capacity
   (``workers / mean tier-0 service cost``);
2. **overload** — the same mix at 2× capacity.

Gates (the overload criteria from the serving issue):

* goodput at 2× ≥ **80%** of the 1× capacity rate — degradation buys
  capacity rather than losing it;
* queue depth stays bounded by the configured per-tenant limit — no
  unbounded growth anywhere in the run;
* zero ``failed`` requests — every admitted request gets *an* answer.

Unlike the wall-clock benchmarks in this directory, every number here
is **simulated and deterministic**: latencies are seeded service costs
scheduled by the gateway's eager discrete-event engine, so p50/p99,
shed rate and tier histograms are exact functions of ``(mix, seed)``.
Every field is labelled modelled. Results land in ``BENCH_serving.json``
at the repo root; under ``REPRO_BENCH_GATE=1`` the whole result must
equal the committed ``benchmarks/BENCH_serving_baseline.json`` for the
mode (see ``gates.py``). If a change moves these numbers on purpose,
regenerate the baseline and commit it.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.serve import MIXES, overload_experiment, serving_observability

import gates

QUICK = gates.QUICK

#: The overload criterion: goodput at 2× ≥ 80% of 1× capacity.
MIN_GOODPUT_FRACTION = 0.8

MIX = "mixed"
CAPACITY = 4
QUEUE_LIMIT = 32
BUDGET = 4.0
OVERLOAD_FACTOR = 2.0
N_REQUESTS = 80 if QUICK else 240


def _run(load_factor: float) -> Dict[str, Any]:
    obs = serving_observability()
    report = overload_experiment(
        dataset="enterprise", mix_name=MIX, capacity=CAPACITY,
        load_factor=load_factor, n_requests=N_REQUESTS, seed=0,
        queue_limit=QUEUE_LIMIT, budget=BUDGET, obs=obs)
    row = report.to_dict()
    row["capacity_rps"] = report.gateway_stats["capacity_rps"]
    # Cross-check the gateway's own accounting against the metrics
    # registry the load generator records through (and exercise the
    # sample-backed quantile read path on real serving series).
    registry = obs.metrics
    assert registry.counter_total("serve.admitted") == \
        report.gateway_stats["admitted"]
    per_kind_count = 0
    for kind, _ in MIXES[MIX].kinds:
        stats = registry.histogram_stats("serve.latency", kind=kind)
        per_kind_count += int(stats["count"])
        if stats["count"]:
            quantiles = registry.histogram_quantiles(
                "serve.latency", (50.0, 99.0), kind=kind)
            assert stats["min"] <= quantiles["p50"] <= quantiles["p99"] \
                <= stats["max"]
    assert per_kind_count == report.completed
    return row


def test_serving_overload_benchmark():
    baseline_run = _run(1.0)
    overload_run = _run(OVERLOAD_FACTOR)
    # Determinism is the whole basis for gating exact numbers: an
    # identical replay must reproduce the identical report.
    assert _run(OVERLOAD_FACTOR) == overload_run, \
        "overload replay is not deterministic"

    capacity_rps = baseline_run["capacity_rps"]
    goodput_ratio = overload_run["goodput"] / capacity_rps
    results = {
        "baseline_1x": baseline_run,
        "overload_2x": overload_run,
        "goodput_ratio": round(goodput_ratio, 6),
    }

    print("\nE-SERVING — goodput under overload (simulated, deterministic)")
    for name, row in (("baseline_1x", baseline_run),
                      ("overload_2x", overload_run)):
        print(f"  {name:12s} p50 {row['p50_latency']:6.3f}s  "
              f"p99 {row['p99_latency']:6.3f}s  "
              f"goodput {row['goodput']:6.2f}/s  "
              f"shed {row['shed']:3d}  rejected {row['rejected']:3d}  "
              f"degraded {row['degraded']:3d}  "
              f"max queue {row['max_queue_depth']}")
    print(f"  goodput at {OVERLOAD_FACTOR:g}x: {goodput_ratio:.0%} of "
          f"{capacity_rps:.2f}/s capacity")

    # The overload criteria hold on every run: they are the serving
    # contract, not a machine-speed measurement.
    bounds = {f"goodput at {OVERLOAD_FACTOR:g}x: {goodput_ratio:.0%} of "
              f"capacity >= {MIN_GOODPUT_FRACTION:.0%}":
              goodput_ratio >= MIN_GOODPUT_FRACTION}
    for name, row in results.items():
        if isinstance(row, dict):
            bounds.update({
                f"{name}: max queue depth {row['max_queue_depth']} <= "
                f"{QUEUE_LIMIT}": row["max_queue_depth"] <= QUEUE_LIMIT,
                f"{name}: {row['failed']} failed requests":
                    row["failed"] == 0,
                f"{name}: completed + shed + rejected == offered":
                    row["completed"] + row["shed"] + row["rejected"]
                    == row["offered"]})
    gates.finish("serving", results, gates.exact, bounds=bounds,
                 modelled=gates.ALL)
