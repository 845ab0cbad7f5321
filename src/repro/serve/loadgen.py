"""Deterministic load generation and overload experiments.

:class:`LoadGenerator` replays traffic mixes against a
:class:`~repro.serve.gateway.Gateway` under two arrival models:

* **open** — arrivals follow a seeded Poisson process at a target
  request rate, independent of completions (the overload model: the
  world does not slow down because the service did);
* **closed** — a fixed population of clients each waits for its
  previous request to finish, thinks for a while, then submits again
  (the well-behaved-client model; offered load self-regulates).

Both are pure functions of ``(mix, seed)``: inter-arrival and think
times come from stable hash draws, the gateway resolves each request
eagerly, and an optional :class:`~repro.core.observability.FakeClock`
is advanced to each arrival so traces and metrics share the simulated
timeline. Two identical runs produce byte-identical
:class:`LoadReport` numbers — which is what lets the overload
benchmark commit its p50/p99/shed-rate figures as a regression gate.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, fields
from itertools import islice
from typing import (Any, Dict, Iterator, List, Mapping, Optional, Sequence,
                    Tuple)

from repro.core.observability import (FakeClock, Observability, percentile,
                                      resolve_obs)
from repro.core.resilience import CircuitBreaker, _stable_unit
from repro.serve.backends import TIER_COSTS, build_backends, question_pool
from repro.serve.gateway import Gateway, Ledger, RequestResult


@dataclass(frozen=True)
class TrafficMix:
    """A named blend of request kinds and tenants (weights normalize)."""

    name: str
    kinds: Tuple[Tuple[str, float], ...]
    tenants: Tuple[Tuple[str, float], ...] = (("tenant-a", 1.0),)

    def pick(self, weighted: Sequence[Tuple[str, float]],
             unit: float) -> str:
        """Weighted choice resolved by one stable unit draw."""
        total = sum(weight for _, weight in weighted)
        threshold = unit * total
        running = 0.0
        for value, weight in weighted:
            running += weight
            if threshold < running:
                return value
        return weighted[-1][0]

    def mean_tier0_cost(self,
                        costs: Mapping[str, Sequence[float]] = TIER_COSTS
                        ) -> float:
        """Kind-weighted mean full-fidelity service cost (capacity math)."""
        total = sum(weight for _, weight in self.kinds)
        return sum(weight * costs[kind][0]
                   for kind, weight in self.kinds) / total


#: Canned mixes for the CLI and benchmarks.
MIXES: Dict[str, TrafficMix] = {
    "qa": TrafficMix("qa", kinds=(("rag", 3.0), ("sparql", 2.0)),
                     tenants=(("tenant-a", 2.0), ("tenant-b", 1.0))),
    "chat": TrafficMix("chat", kinds=(("chat", 1.0),),
                       tenants=(("tenant-a", 1.0), ("tenant-b", 1.0),
                                ("tenant-c", 1.0))),
    "mixed": TrafficMix("mixed",
                        kinds=(("rag", 3.0), ("sparql", 2.0),
                               ("chat", 3.0), ("graphrag", 1.0)),
                        tenants=(("tenant-a", 3.0), ("tenant-b", 2.0),
                                 ("tenant-c", 1.0))),
    "agentic": TrafficMix("agentic",
                          kinds=(("agent", 2.0), ("rag", 1.0),
                                 ("chat", 1.0)),
                          tenants=(("tenant-a", 2.0), ("tenant-b", 1.0))),
}


@dataclass
class LoadReport:
    """What one replay produced, aggregated for gates and dashboards."""

    mix: str
    model: str                      # "open" | "closed"
    offered: int = 0
    completed: int = 0
    shed: int = 0
    rejected: int = 0
    failed: int = 0
    late: int = 0
    degraded: int = 0
    makespan: float = 0.0
    p50_latency: float = 0.0
    p99_latency: float = 0.0
    mean_latency: float = 0.0
    max_latency: float = 0.0
    shed_rate: float = 0.0
    goodput: float = 0.0            # useful completions per simulated second
    max_queue_depth: int = 0
    # Streaming aggregates (zero for blob-only replays). The streaming
    # ledger mirrors the gateway's: streamed == completed_streams +
    # shed_mid_stream (every admitted stream resolves exactly once).
    streamed: int = 0
    completed_streams: int = 0
    shed_mid_stream: int = 0
    p50_ttft: float = 0.0
    p99_ttft: float = 0.0
    mean_tpot: float = 0.0
    tokens_out: int = 0
    tokens_per_sec: float = 0.0
    tier_counts: Dict[str, int] = field(default_factory=dict)
    # Not exported by ``to_dict``: the engine's ``stats()`` plus the
    # experiment's calibration, and the replicated replay's replication
    # counters, victims and availability.
    gateway_stats: Dict[str, Any] = field(default_factory=dict)
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready mapping of every exported field, floats rounded
        to six places and tiers sorted."""
        out: Dict[str, Any] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name in ("gateway_stats", "detail"):
                continue
            if isinstance(value, float):
                value = round(value, 6)
            elif isinstance(value, dict):
                value = dict(sorted(value.items()))
            out[spec.name] = value
        return out


def _build_report(mix_name: str, model: str, engine: Ledger,
                  results: Sequence[RequestResult]) -> LoadReport:
    latencies = [r.latency for r in results if r.ok]
    finishes = [r.finish if r.ok else r.request.arrival for r in results]
    makespan = max(finishes) if finishes else 0.0
    # Streaming aggregates: results the token scheduler resolved.
    streams = [r for r in results if r.tier == "stream"]
    admitted_streams = [r for r in streams
                        if r.status in ("completed", "shed")]
    ttfts = [r.ttft for r in streams if r.ok]
    tpots = [r.tpot for r in streams if r.ok and len(r.chunks) >= 2]
    tokens_out = sum(r.tokens_out for r in streams)
    # "Useful" excludes late answers and the static busy tier: both keep
    # the connection alive but deliver no payload value.
    useful = sum(1 for r in results
                 if r.ok and not r.late and r.tier != "busy")
    offered = len(results)
    shed = sum(1 for r in results if r.status == "shed")
    report = LoadReport(
        mix=mix_name, model=model, offered=offered,
        completed=sum(1 for r in results if r.ok),
        shed=shed,
        rejected=sum(1 for r in results if r.status == "rejected"),
        failed=sum(1 for r in results if r.status == "failed"),
        late=sum(1 for r in results if r.ok and r.late),
        degraded=sum(1 for r in results if r.degraded),
        makespan=makespan,
        p50_latency=percentile(latencies, 50.0),
        p99_latency=percentile(latencies, 99.0),
        mean_latency=(sum(latencies) / len(latencies)) if latencies else 0.0,
        max_latency=max(latencies) if latencies else 0.0,
        shed_rate=shed / offered if offered else 0.0,
        goodput=useful / makespan if makespan > 0 else 0.0,
        max_queue_depth=engine.max_queue_depth,
        tier_counts=dict(engine.tier_counts),
        gateway_stats=engine.stats(),
        streamed=len(admitted_streams),
        completed_streams=sum(1 for r in admitted_streams if r.ok),
        shed_mid_stream=sum(1 for r in admitted_streams
                            if r.status == "shed"),
        p50_ttft=percentile(ttfts, 50.0),
        p99_ttft=percentile(ttfts, 99.0),
        mean_tpot=(sum(tpots) / len(tpots)) if tpots else 0.0,
        tokens_out=tokens_out,
        tokens_per_sec=tokens_out / makespan if makespan > 0 else 0.0,
    )
    return report


def poisson_arrivals(seed: int, mix_name: str, rate: float,
                     n_requests: int) -> Iterator[Tuple[int, float]]:
    """``(index, arrival)`` pairs of a seeded Poisson process at ``rate``
    requests per second."""
    if rate <= 0:
        raise ValueError("rate must be > 0")
    now = 0.0
    for index in range(n_requests):
        unit = _stable_unit(str(seed), mix_name, "arrival", str(index))
        now += -math.log(1.0 - unit) / rate
        yield index, now


class LoadGenerator:
    """Replays a deterministic traffic mix against one gateway."""

    def __init__(self, gateway: Gateway, questions: Mapping[str, Sequence[str]],
                 mix: TrafficMix, seed: int = 0,
                 clock: Optional[FakeClock] = None):
        for kind, _ in mix.kinds:
            if not questions.get(kind):
                raise ValueError(f"no questions for kind {kind!r}")
        self.gateway = gateway
        self.questions = {kind: list(qs) for kind, qs in questions.items()}
        self.mix = mix
        self.seed = seed
        self.clock = clock
        self.results: List[RequestResult] = []

    def _draw(self, *parts: str) -> float:
        return _stable_unit(str(self.seed), self.mix.name, *parts)

    def _compose(self, tag: str,
                 tenant: Optional[str] = None) -> Tuple[str, str, str]:
        """(tenant, kind, question) for the request drawn under ``tag``;
        the tenant is drawn too unless the caller pins it."""
        if tenant is None:
            tenant = self.mix.pick(self.mix.tenants, self._draw("tenant", tag))
        kind = self.mix.pick(self.mix.kinds, self._draw("kind", tag))
        pool = self.questions[kind]
        question = pool[int(self._draw("question", tag) * len(pool))
                        % len(pool)]
        return tenant, kind, question

    def _advance_clock(self, arrival: float) -> None:
        if self.clock is not None and arrival > self.clock.now():
            self.clock.advance(arrival - self.clock.now())

    def open_loop(self, rate: float,
                  n_requests: int) -> Iterator[RequestResult]:
        """Offer Poisson arrivals at ``rate`` req/s, independent of
        completions, yielding each result as the gateway resolves it."""
        for index, now in poisson_arrivals(self.seed, self.mix.name, rate,
                                           n_requests):
            self._advance_clock(now)
            tenant, kind, question = self._compose(str(index))
            yield self.gateway.offer(tenant, kind, question, now,
                                     session_id=f"{tenant}:open:{index % 4}")

    def run_open(self, rate: float, n_requests: int) -> LoadReport:
        """The whole open loop at ``rate`` req/s as one report."""
        results = list(self.open_loop(rate, n_requests))
        self.results.extend(results)
        return _build_report(self.mix.name, "open", self.gateway, results)

    def run_closed(self, clients: int = 8, requests_per_client: int = 10,
                   think: float = 0.5) -> LoadReport:
        """A fixed client population: submit → wait for finish → think.

        Because the gateway resolves requests eagerly, a client's next
        submit time is known the moment its current request returns;
        the generator merges clients on a time-ordered heap so the
        gateway still sees one non-decreasing arrival stream.
        """
        if clients < 1:
            raise ValueError("clients must be >= 1")
        results: List[RequestResult] = []
        # (next submit time, client id, requests already sent)
        schedule = [(think * self._draw("start", str(client)), client, 0)
                    for client in range(clients)]
        heapq.heapify(schedule)
        while schedule:
            now, client, sent = heapq.heappop(schedule)
            tenant = self.mix.pick(self.mix.tenants,
                                   self._draw("client", str(client)))
            _, kind, question = self._compose(f"c{client}:{sent}", tenant)
            self._advance_clock(now)
            result = self.gateway.offer(tenant, kind, question, now,
                                        session_id=f"{tenant}:c{client}")
            results.append(result)
            if sent + 1 < requests_per_client:
                resume = result.finish if result.ok else now
                pause = think * (0.5 + self._draw("think",
                                                  f"{client}:{sent}"))
                if result.status == "rejected":
                    # Back off before retrying admission-rejected work.
                    pause += think
                heapq.heappush(schedule, (resume + pause, client, sent + 1))
        self.results.extend(results)
        return _build_report(self.mix.name, "closed", self.gateway, results)


#: Share of a partitioned replay's requests that arrive before one
#: replica of every shard drops off the network.
PARTITION_AT = 0.25


def overload_experiment(dataset: str = "enterprise", mix_name: str = "mixed",
                        capacity: int = 4, load_factor: float = 1.0,
                        n_requests: int = 200, seed: int = 0,
                        queue_limit: int = 16, budget: float = 6.0,
                        obs=None, replicas: int = 0, partition: bool = False,
                        schedule_out: Optional[str] = None) -> LoadReport:
    """One open-loop replay at ``load_factor`` × the fleet's capacity.

    Capacity is ``workers / mean tier-0 service cost`` for the mix —
    the sustainable full-fidelity rate. ``load_factor=2.0`` is the
    benchmark's overload condition. Fresh backends and gateway per call,
    so experiments at different factors never share warm caches.

    ``replicas > 0`` re-homes the backends onto a
    :class:`~repro.kg.replication.ReplicatedShardedTripleStore`; the
    arrival stream is unchanged (identical seed → identical tenants,
    kinds and questions). With ``partition`` one replica of every shard
    is forced off the network once ``PARTITION_AT`` of the requests have
    arrived: run once without and once with it to measure what the
    partition costs. The report's ``detail`` then carries the
    replication counters, the victim list and the availability ratio
    (completed / admitted); ``schedule_out`` archives the transport's
    fault schedule as JSONL (replayable via ``repro serve replay
    --schedule``).
    """
    if partition and replicas < 1:
        raise ValueError("partition needs replicas >= 1")
    mix = MIXES[mix_name]
    obs = resolve_obs(obs)
    backends = build_backends(dataset=dataset, seed=seed, obs=obs,
                              replicas=replicas)
    gateway = Gateway(backends.handlers, capacity=capacity,
                      queue_limit=queue_limit, budget=budget,
                      breaker=CircuitBreaker(failure_threshold=5, cooldown=8,
                                             name="serve-tier0"),
                      obs=obs, seed=seed)
    capacity_rps = capacity / mix.mean_tier0_cost()
    rate = load_factor * capacity_rps
    clock = obs.clock if isinstance(getattr(obs, "clock", None),
                                    FakeClock) else None
    generator = LoadGenerator(gateway, question_pool(backends.dataset,
                                                     seed=seed),
                              mix, seed=seed, clock=clock)
    requests = generator.open_loop(rate, n_requests)
    replicated = backends.replicated
    results: List[RequestResult] = []
    victims: List[Tuple[int, int]] = []
    if partition:
        # Offer the first share of the stream, then cut one replica of
        # every shard before the next arrival.
        results = list(islice(requests, int(n_requests * PARTITION_AT)))
        victims = replicated.partition_one_replica_per_shard()
    results.extend(requests)
    report = _build_report(mix.name, "open", gateway, results)
    report.gateway_stats["capacity_rps"] = round(capacity_rps, 6)
    report.gateway_stats["offered_rps"] = round(rate, 6)
    if replicated is not None:
        if schedule_out:
            replicated.transport.export_schedule_jsonl(schedule_out)
        report.detail = {
            "partitioned": bool(victims),
            "victims": victims,
            "availability": round(gateway.completed / (gateway.admitted or 1),
                                  6),
            "replication": replicated.replication_stats(),
        }
    return report


def serving_observability() -> Observability:
    """An obs facade on a FakeClock, ready for serving replays."""
    return Observability(clock=FakeClock(start=0.0, tick=0.0))
