"""E-STREAMING — continuous batching vs run-to-completion under overload.

The token scheduler's contract is that iteration-level scheduling turns
head-of-line blocking into goodput: requests join and leave the batch at
token-step boundaries, so short streams are not held hostage by long
ones and first tokens arrive long before full completions. This
benchmark measures the three claims the streaming issue gates on:

1. **continuous ≥ 2× run-to-completion goodput at 2× overload** — the
   same workload, same width, same budget; only the policy differs;
2. **p50 TTFT ≤ 25% of p50 full-completion latency** at the 1× baseline
   — streaming delivers first tokens much sooner than whole answers;
3. **the radix prefix cache wins measurably** — the shared Task/Facts/
   Examples preambles of the serving mix hit the cache (hit-rate floor)
   and skipping their prefill buys goodput under overload.

Unlike the wall-clock benchmarks in this directory, every number here
is **simulated and deterministic**: iteration costs are seeded by the
scheduler's eager discrete-event engine, so TTFT/TPOT percentiles,
goodput and the stream ledger are exact functions of ``(mix, seed)``.
Every field is labelled modelled. Results land in
``BENCH_streaming.json`` at the repo root; under ``REPRO_BENCH_GATE=1``
the whole result must equal the committed
``benchmarks/BENCH_streaming_baseline.json`` for the mode (see
``gates.py``). If a change moves these numbers on purpose, regenerate
the baseline and commit it.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.serve import (STREAM_MIXES, serving_observability,
                         streaming_experiment)

import gates

QUICK = gates.QUICK

#: The issue's acceptance bars.
MIN_CONTINUOUS_SPEEDUP = 2.0
MAX_TTFT_SHARE = 0.25
MIN_CACHE_HIT_RATE = 0.5

MIX = "stream"
DATASET = "enterprise"
MAX_BATCH = 8
QUEUE_LIMIT = 64
BUDGET = 4.0
OVERLOAD_FACTOR = 2.0
N_REQUESTS = 100 if QUICK else 160


def _run(policy: str, load_factor: float,
         prefix_cache: bool = True) -> Dict[str, Any]:
    obs = serving_observability()
    report = streaming_experiment(
        dataset=DATASET, mix_name=MIX, policy=policy,
        max_batch=MAX_BATCH, load_factor=load_factor,
        n_requests=N_REQUESTS, seed=0, queue_limit=QUEUE_LIMIT,
        budget=BUDGET, prefix_cache=prefix_cache, obs=obs)
    row = report.to_dict()
    for key in ("capacity_rps", "prefix_cache_hit_rate",
                "prefix_cache_hits", "prefill_tokens_skipped"):
        if key in report.gateway_stats:
            row[key] = report.gateway_stats[key]
    # Cross-check the scheduler's ledger against the metrics registry the
    # run recorded through (and exercise the quantile read path on real
    # streaming series).
    registry = obs.metrics
    per_kind = 0
    for kind, _ in STREAM_MIXES[MIX].kinds:
        stats = registry.histogram_stats("serve.ttft", kind=kind)
        per_kind += int(stats["count"])
        if stats["count"]:
            quantiles = registry.histogram_quantiles(
                "serve.ttft", (50.0, 99.0), kind=kind)
            assert stats["min"] <= quantiles["p50"] <= quantiles["p99"] \
                <= stats["max"]
    assert per_kind == report.completed_streams
    assert report.streamed == \
        report.completed_streams + report.shed_mid_stream
    assert report.streamed + report.rejected == report.offered
    return row


def test_streaming_overload_benchmark():
    baseline_run = _run("continuous", 1.0)
    continuous_run = _run("continuous", OVERLOAD_FACTOR)
    static_run = _run("run_to_completion", OVERLOAD_FACTOR)
    nocache_run = _run("continuous", OVERLOAD_FACTOR, prefix_cache=False)
    # Determinism is the whole basis for gating exact numbers: an
    # identical replay must reproduce the identical report.
    assert _run("continuous", OVERLOAD_FACTOR) == continuous_run, \
        "streaming replay is not deterministic"

    speedup = continuous_run["goodput"] / static_run["goodput"] \
        if static_run["goodput"] else float("inf")
    ttft_share = baseline_run["p50_ttft"] / baseline_run["p50_latency"] \
        if baseline_run["p50_latency"] else 0.0
    cache_win = continuous_run["goodput"] / nocache_run["goodput"] \
        if nocache_run["goodput"] else float("inf")
    results = {
        "continuous_baseline_1x": baseline_run,
        "continuous_overload_2x": continuous_run,
        "run_to_completion_overload_2x": static_run,
        "continuous_overload_2x_nocache": nocache_run,
        "continuous_speedup": round(speedup, 6),
        "ttft_share_of_latency": round(ttft_share, 6),
        "prefix_cache_goodput_win": round(cache_win, 6),
    }

    print("\nE-STREAMING — continuous batching under overload "
          "(simulated, deterministic)")
    for name, row in (("continuous 1x", baseline_run),
                      ("continuous 2x", continuous_run),
                      ("static 2x", static_run),
                      ("no-cache 2x", nocache_run)):
        print(f"  {name:14s} goodput {row['goodput']:6.2f}/s  "
              f"p50 TTFT {row['p50_ttft']:6.3f}s  "
              f"p50 latency {row['p50_latency']:6.3f}s  "
              f"tok/s {row['tokens_per_sec']:7.1f}  "
              f"shed {row['shed_mid_stream']:3d}  "
              f"rejected {row['rejected']:3d}")
    print(f"  continuous vs run-to-completion at {OVERLOAD_FACTOR:g}x: "
          f"{speedup:.2f}x  |  baseline p50 TTFT = {ttft_share:.0%} of "
          f"p50 latency  |  prefix cache hit rate "
          f"{continuous_run['prefix_cache_hit_rate']:.2f}, goodput win "
          f"{cache_win:.2f}x")

    # The streaming contract holds on every run, not a machine-speed
    # measurement.
    bounds = {
        f"continuous batching speedup {speedup:.2f}x >= "
        f"{MIN_CONTINUOUS_SPEEDUP:.1f}x over run-to-completion":
            speedup >= MIN_CONTINUOUS_SPEEDUP,
        f"baseline p50 TTFT is {ttft_share:.0%} of p50 latency, "
        f"<= {MAX_TTFT_SHARE:.0%}": ttft_share <= MAX_TTFT_SHARE,
        f"prefix cache hit rate "
        f"{continuous_run['prefix_cache_hit_rate']:.2f} >= "
        f"{MIN_CACHE_HIT_RATE}":
            continuous_run["prefix_cache_hit_rate"] >= MIN_CACHE_HIT_RATE,
        f"prefix caching goodput win {cache_win:.2f}x > 1x": cache_win > 1.0,
    }
    for name, row in results.items():
        if isinstance(row, dict):
            bounds.update({
                f"{name}: max queue depth {row['max_queue_depth']} <= "
                f"{QUEUE_LIMIT}": row["max_queue_depth"] <= QUEUE_LIMIT,
                f"{name}: {row['failed']} failed requests":
                    row["failed"] == 0})
    gates.finish("streaming", results, gates.exact, bounds=bounds,
                 modelled=gates.ALL)
