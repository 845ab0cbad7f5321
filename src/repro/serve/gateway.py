"""The front-door gateway: admission control, backpressure, degradation.

The survey's systems are user-facing services, but a pipeline object is
not a service: calling ``answer()`` directly has no notion of queueing,
tenancy, overload, or "try something cheaper when the expensive path is
drowning". :class:`Gateway` adds exactly that layer, in the repo's
deterministic no-wall-clock style:

* **Admission control** — a seeded token-bucket :class:`RateLimiter`
  (per-tenant and global) and bounded per-tenant queues. Rejected
  requests raise typed :class:`AdmissionError` subclasses;
  :class:`ThrottledError` doubles as an
  :class:`~repro.llm.faults.LLMRateLimitError` so the existing retry
  policies and chaos tests compose unchanged.
* **Backpressure** — requests wait in a simulated queue ahead of a fixed
  worker fleet; a request whose queue wait alone exhausts its
  :class:`~repro.core.resilience.Deadline` is *shed* before consuming
  any service capacity.
* **Graceful degradation** — each request kind carries an ordered list
  of :class:`TierStep` handlers (full GraphRAG → RAG-only → static
  "system busy"). Queue pressure selects the starting tier, a shared
  :class:`~repro.core.resilience.CircuitBreaker` guards the expensive
  tier, and tier failures fall through to the next step, so overload
  trades answer fidelity for goodput instead of collapsing.

Determinism contract: the gateway is an *eager* discrete-event
simulator. ``submit`` resolves each request's complete schedule (queue
wait, start, per-tier service, finish) at submission time, as a pure
function of the submission sequence and the gateway seed — no threads
race over simulated time, so two identical request streams produce
byte-identical latency distributions, shed counts and tier histograms.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.observability import resolve_obs
from repro.core.resilience import (CircuitBreaker, Deadline, ResilienceError,
                                   _stable_unit)
from repro.llm.faults import LLMRateLimitError, LLMTransientError


class AdmissionError(ResilienceError):
    """The gateway refused a request before doing any work.

    ``reason`` is a stable machine-readable label (``queue_full`` /
    ``throttled``) for counters and tests.
    """

    reason = "rejected"


class QueueFullError(AdmissionError):
    """The tenant's bounded queue is at capacity."""

    reason = "queue_full"


class ThrottledError(AdmissionError, LLMRateLimitError):
    """A token bucket ran dry (HTTP-429 analogue at the front door).

    Inherits :class:`~repro.llm.faults.LLMRateLimitError` so callers'
    existing retry policies read ``retry_after`` from it exactly as they
    do for model-side rate limits; ``scope`` says which bucket rejected
    (``"tenant"`` or ``"global"``).
    """

    reason = "throttled"

    def __init__(self, message: str, *, retry_after: float = 1.0,
                 scope: str = "tenant"):
        LLMRateLimitError.__init__(self, message, retry_after=retry_after)
        self.scope = scope


class TokenBucket:
    """A deterministic token bucket refilled by simulated time.

    ``burst`` tokens capacity, ``rate`` tokens per simulated second;
    refill is computed lazily from the timestamps callers pass in, so
    the bucket never reads a clock of its own.
    """

    def __init__(self, rate: float, burst: int):
        if rate <= 0:
            raise ValueError("rate must be > 0")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate = rate
        self.burst = burst
        self.tokens = float(burst)
        self._last = 0.0

    def _refill(self, now: float) -> None:
        if now > self._last:
            self.tokens = min(float(self.burst),
                              self.tokens + (now - self._last) * self.rate)
            self._last = now

    def try_acquire(self, now: float) -> bool:
        """Take one token if available; refills up to ``now`` first."""
        self._refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def retry_after(self, now: float) -> float:
        """Simulated seconds until one token will be available."""
        self._refill(now)
        deficit = 1.0 - self.tokens
        return max(0.0, deficit / self.rate)


class RateLimiter:
    """Per-tenant and global token buckets with a seeded retry hint.

    Both buckets must hold a token for a request to pass; neither is
    consumed when either would reject, so a globally throttled burst
    does not silently drain tenant budgets. The ``retry_after`` hint is
    jittered by a stable per-rejection draw so that retrying clients
    keyed off the hint spread out instead of returning as one herd.
    """

    def __init__(self, tenant_rate: float = 10.0, tenant_burst: int = 5,
                 global_rate: Optional[float] = None,
                 global_burst: Optional[int] = None, seed: int = 0):
        self.tenant_rate = tenant_rate
        self.tenant_burst = tenant_burst
        self.seed = seed
        self._tenants: Dict[str, TokenBucket] = {}
        self._global: Optional[TokenBucket] = None
        if global_rate is not None:
            self._global = TokenBucket(global_rate,
                                       global_burst or max(1, tenant_burst))
        self.throttled = {"tenant": 0, "global": 0}

    def _bucket(self, tenant: str) -> TokenBucket:
        bucket = self._tenants.get(tenant)
        if bucket is None:
            bucket = TokenBucket(self.tenant_rate, self.tenant_burst)
            self._tenants[tenant] = bucket
        return bucket

    def _hint(self, base: float, tenant: str) -> float:
        rejections = self.throttled["tenant"] + self.throttled["global"]
        spread = 1.0 + 0.25 * _stable_unit(str(self.seed), tenant,
                                           str(rejections))
        return max(base, 1e-6) * spread

    def check(self, tenant: str, now: float) -> None:
        """Admit or raise :class:`ThrottledError`; consumes on success."""
        bucket = self._bucket(tenant)
        bucket._refill(now)
        if self._global is not None:
            self._global._refill(now)
        if bucket.tokens < 1.0:
            self.throttled["tenant"] += 1
            raise ThrottledError(
                f"tenant {tenant!r} over rate limit",
                retry_after=self._hint(bucket.retry_after(now), tenant),
                scope="tenant")
        if self._global is not None and self._global.tokens < 1.0:
            self.throttled["global"] += 1
            raise ThrottledError(
                "global rate limit reached",
                retry_after=self._hint(self._global.retry_after(now), tenant),
                scope="global")
        bucket.tokens -= 1.0
        if self._global is not None:
            self._global.tokens -= 1.0


@dataclass(frozen=True)
class TierStep:
    """One degradation tier: a name, a simulated service cost, a handler.

    ``fn`` receives the :class:`Request` and returns the answer payload;
    raising :class:`~repro.llm.faults.LLMTransientError` or
    :class:`~repro.core.resilience.ResilienceError` falls through to the
    next tier. ``cost`` is the tier's base simulated service seconds
    (jittered per request by the gateway seed).
    """

    name: str
    cost: float
    fn: Callable[["Request"], Any]


@dataclass(frozen=True)
class Request:
    """One admitted unit of work (for the token scheduler, ``question``
    holds the prompt)."""

    tenant: str
    kind: str
    question: str
    arrival: float
    session_id: str = ""
    seq: int = 0


@dataclass
class RequestResult:
    """Everything the gateway decided about one request."""

    request: Request
    status: str                 # completed | shed | rejected | failed
    tier: str = ""              # name of the step that answered
    tier_index: int = -1        # 0 = full fidelity; >0 = degraded
    answer: Any = None
    start: float = 0.0
    finish: float = 0.0
    wait: float = 0.0
    service: float = 0.0
    late: bool = False          # completed after its deadline expired
    error: str = ""
    step_errors: List[Tuple[str, str]] = field(default_factory=list)
    # Streaming extensions (populated by the token scheduler; blob-path
    # results keep the zero defaults). ``chunks`` holds every decode-step
    # chunk that was actually delivered — for a mid-stream shed that is
    # exactly the prefix the client received before the cut.
    chunks: Tuple[str, ...] = ()
    tokens_out: int = 0             # tokenizer tokens delivered
    ttft: float = 0.0               # arrival → first chunk (0.0 if none)
    tpot: float = 0.0               # mean seconds per chunk after the first
    prompt_tokens: int = 0          # prefill size of the request
    cached_prefix_tokens: int = 0   # prefill tokens skipped via prefix cache

    @property
    def ok(self) -> bool:
        """Whether a handler produced an answer."""
        return self.status == "completed"

    @property
    def degraded(self) -> bool:
        """Whether anything but the primary tier produced the answer."""
        return self.status == "completed" and self.tier_index > 0

    @property
    def latency(self) -> float:
        """Arrival-to-finish simulated seconds (0.0 unless completed)."""
        if self.status != "completed":
            return 0.0
        return self.finish - self.request.arrival


#: Tier thresholds: queue pressure (wait / deadline budget) up to
#: ``DEGRADE_PRESSURE`` runs the full-fidelity tier; up to
#: ``BUSY_PRESSURE`` starts one tier down; above it goes straight to the
#: terminal static tier.
DEGRADE_PRESSURE = 0.35
BUSY_PRESSURE = 0.75


class Ledger:
    """Admission limits and the request ledger both serving engines share.

    ``capacity`` is the simulated worker (or batch) width,
    ``queue_limit`` bounds the waiting room and ``budget`` is the
    per-request simulated deadline. Every submission passes
    :meth:`_arrive` and every admitted request resolves exactly once,
    so the counters keep the invariants the chaos suites assert::

        submitted == admitted + sum(rejected.values())
        admitted  == completed + shed + failed
        completed == sum(tier_counts.values())
    """

    #: Admission refusals the engine can produce (the ``rejected`` keys).
    REJECT_REASONS: Tuple[str, ...] = ("queue_full",)

    def __init__(self, capacity: int, queue_limit: int, budget: float, obs):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if budget <= 0:
            raise ValueError("budget must be > 0")
        self.capacity = capacity
        self.queue_limit = queue_limit
        self.budget = budget
        self.obs = resolve_obs(obs)
        self._last_arrival = 0.0
        self.submitted = 0
        self.admitted = 0
        self.rejected = {reason: 0 for reason in self.REJECT_REASONS}
        self.completed = 0
        self.shed = 0
        self.failed = 0
        self.late = 0
        self.tier_counts: Dict[str, int] = {}
        self.max_queue_depth = 0

    def _arrive(self, arrival: float) -> int:
        """Count one submission at ``arrival``; returns its 1-based
        sequence number. Arrivals must be non-decreasing (the stream is
        the event order)."""
        if arrival < self._last_arrival:
            raise ValueError(
                f"arrivals must be non-decreasing "
                f"(got {arrival:.4f} after {self._last_arrival:.4f})")
        self._last_arrival = arrival
        self.submitted += 1
        return self.submitted

    def _complete(self, tier_key: str, late: bool) -> None:
        self.completed += 1
        self.tier_counts[tier_key] = self.tier_counts.get(tier_key, 0) + 1
        if late:
            self.late += 1

    def stats(self) -> Dict[str, Any]:
        """The ledger as one flat mapping (also an obs pull source)."""
        out: Dict[str, Any] = {"submitted": self.submitted,
                               "admitted": self.admitted}
        for reason, count in self.rejected.items():
            out[f"rejected_{reason}"] = count
        out.update(completed=self.completed, shed=self.shed,
                   failed=self.failed, late=self.late,
                   max_queue_depth=self.max_queue_depth,
                   capacity=self.capacity, queue_limit=self.queue_limit)
        return out


class Gateway(Ledger):
    """Deterministic front door multiplexing tenants over shared pipelines.

    ``handlers`` maps a request kind to its ordered degradation ladder
    (a sequence of :class:`TierStep`); ``queue_limit`` bounds each
    tenant's scheduled-but-unstarted backlog. ``submit`` raises
    :class:`AdmissionError` subtypes for refused requests; ``offer``
    converts them into ``status="rejected"`` results for closed-loop
    clients.
    """

    REJECT_REASONS = ("queue_full", "throttled")

    def __init__(self, handlers: Mapping[str, Sequence[TierStep]],
                 capacity: int = 4, queue_limit: int = 8,
                 budget: float = 6.0,
                 limiter: Optional[RateLimiter] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 obs=None, seed: int = 0):
        super().__init__(capacity, queue_limit, budget, obs=obs)
        if not handlers:
            raise ValueError("at least one request kind is required")
        self.handlers = {kind: list(steps) for kind, steps in handlers.items()}
        for kind, steps in self.handlers.items():
            if not steps:
                raise ValueError(f"kind {kind!r} has an empty tier ladder")
        self.limiter = limiter
        self.breaker = breaker
        self.seed = seed
        # Eager discrete-event state: a min-heap of worker free times and
        # per-tenant lists of scheduled-but-unstarted request start times.
        self._free: List[float] = [0.0] * capacity
        heapq.heapify(self._free)
        self._pending: Dict[str, List[float]] = {}
        self._lock = threading.Lock()
        # Counters beyond the ledger (all updated under the lock).
        self.degraded = 0
        # Tier fallthroughs keyed by exception class name — separates
        # "LLM degraded" from "shard lost quorum" when reading an
        # overload run's stats (the replication chaos suite asserts on
        # the StaleReadError/ShardUnavailableError rows).
        self.fallthrough: Dict[str, int] = {}
        if self.obs.enabled:
            self.obs.register_source("serve.gateway", self.stats)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, tenant: str, kind: str, question: str,
               arrival: float, session_id: str = "") -> RequestResult:
        """Admit and fully resolve one request at simulated ``arrival``.

        Arrivals must be non-decreasing (the stream is the event order).
        Raises :class:`AdmissionError` subtypes for refused requests;
        admitted requests always return a result (completed, shed, or
        failed) — the gateway itself never propagates handler faults.
        """
        if kind not in self.handlers:
            raise KeyError(f"unknown request kind {kind!r}; "
                           f"available: {', '.join(sorted(self.handlers))}")
        with self._lock:
            seq = self._arrive(arrival)
            pending = self._prune(tenant, arrival)
            try:
                if self.limiter is not None:
                    self.limiter.check(tenant, arrival)
                if len(pending) >= self.queue_limit:
                    self.rejected["queue_full"] += 1
                    self.obs.count("serve.rejected", reason="queue_full",
                                   tenant=tenant)
                    raise QueueFullError(
                        f"tenant {tenant!r} queue full "
                        f"({len(pending)}/{self.queue_limit})")
            except ThrottledError:
                self.rejected["throttled"] += 1
                self.obs.count("serve.rejected", reason="throttled",
                               tenant=tenant)
                raise
            self.admitted += 1
            self.obs.count("serve.admitted", kind=kind, tenant=tenant)
            request = Request(tenant=tenant, kind=kind, question=question,
                              arrival=arrival, session_id=session_id, seq=seq)
            return self._schedule(request, pending)

    def offer(self, tenant: str, kind: str, question: str,
              arrival: float, session_id: str = "") -> RequestResult:
        """Like :meth:`submit`, but refusals become ``rejected`` results."""
        try:
            return self.submit(tenant, kind, question, arrival,
                               session_id=session_id)
        except AdmissionError as exc:
            return RequestResult(
                request=Request(tenant=tenant, kind=kind, question=question,
                                arrival=arrival, session_id=session_id),
                status="rejected", error=f"{exc.reason}: {exc}")

    def _prune(self, tenant: str, arrival: float) -> List[float]:
        """Drop queue entries that started before ``arrival``; return the
        tenant's live pending list."""
        pending = self._pending.setdefault(tenant, [])
        pending[:] = [start for start in pending if start > arrival]
        return pending

    # ------------------------------------------------------------------
    # Scheduling + execution (under the lock)
    # ------------------------------------------------------------------
    def _schedule(self, request: Request,
                  pending: List[float]) -> RequestResult:
        free = heapq.heappop(self._free)
        start = max(request.arrival, free)
        wait = start - request.arrival
        deadline = Deadline(self.budget)
        deadline.charge(wait)
        if deadline.expired:
            # The queue alone ate the whole budget: shed before consuming
            # any service capacity (the worker slot goes back untouched).
            heapq.heappush(self._free, free)
            self.shed += 1
            self.obs.count("serve.shed", kind=request.kind,
                           tenant=request.tenant)
            return RequestResult(request=request, status="shed",
                                 start=request.arrival,
                                 finish=request.arrival, wait=wait,
                                 error="queue wait exhausted the deadline")
        pending.append(start)
        depth = len(pending)
        self.max_queue_depth = max(self.max_queue_depth, depth)
        self.obs.gauge("serve.queue_depth", depth, tenant=request.tenant)
        result = self._execute(request, start, wait, deadline)
        heapq.heappush(self._free, result.finish if result.service > 0
                       else free)
        return result

    def _start_tier(self, wait: float) -> int:
        pressure = wait / self.budget
        if pressure <= DEGRADE_PRESSURE:
            return 0
        if pressure <= BUSY_PRESSURE:
            return 1
        return 10 ** 9  # clamped to the terminal tier per kind

    def _execute(self, request: Request, start: float, wait: float,
                 deadline: Deadline) -> RequestResult:
        steps = self.handlers[request.kind]
        index = min(self._start_tier(wait), len(steps) - 1)
        # The expensive tier is breaker-guarded: while it is tripping,
        # requests start one tier down instead of hammering it (and the
        # half-open probe slot admits exactly one recovery attempt).
        probing = False
        if index == 0 and self.breaker is not None and len(steps) > 1:
            if self.breaker.allow():
                probing = True
            else:
                index = 1
        service = 0.0
        step_errors: List[Tuple[str, str]] = []
        try:
            while index < len(steps):
                step = steps[index]
                cost = step.cost * self._jitter(request, step.name)
                service += cost
                try:
                    answer = step.fn(request)
                except (LLMTransientError, ResilienceError) as exc:
                    if index == 0 and probing:
                        self.breaker.record_failure()
                    name = type(exc).__name__
                    self.fallthrough[name] = self.fallthrough.get(name, 0) + 1
                    self.obs.count("serve.fallthrough", kind=request.kind,
                                   error=name)
                    step_errors.append((step.name, repr(exc)))
                    index += 1
                    continue
                if index == 0 and probing:
                    self.breaker.record_success()
                return self._finish(request, start, wait, deadline, service,
                                    steps, index, answer, step_errors)
        except Exception as exc:  # handler bug: fail the request, not the gateway
            if probing and not step_errors:
                self.breaker.record_failure()
            self.failed += 1
            self.obs.count("serve.failed", kind=request.kind)
            return RequestResult(request=request, status="failed",
                                 start=start, finish=start + service,
                                 wait=wait, service=service,
                                 error=repr(exc), step_errors=step_errors)
        # Even the terminal tier failed (it should be infallible).
        self.failed += 1
        self.obs.count("serve.failed", kind=request.kind)
        return RequestResult(request=request, status="failed", start=start,
                             finish=start + service, wait=wait,
                             service=service,
                             error="all tiers failed",
                             step_errors=step_errors)

    def _finish(self, request: Request, start: float, wait: float,
                deadline: Deadline, service: float,
                steps: Sequence[TierStep], index: int, answer: Any,
                step_errors: List[Tuple[str, str]]) -> RequestResult:
        finish = start + service
        deadline.charge(service)
        late = deadline.expired
        tier = steps[index].name
        # Keyed by kind:tier — tier names may repeat across kinds (the
        # graphrag ladder's degraded tier is the rag kind's primary).
        self._complete(f"{request.kind}:{tier}", late)
        if index > 0:
            self.degraded += 1
        self.obs.count("serve.completed", kind=request.kind, tier=tier)
        self.obs.observe("serve.latency", finish - request.arrival,
                         kind=request.kind)
        self.obs.observe("serve.wait", wait, kind=request.kind)
        return RequestResult(request=request, status="completed", tier=tier,
                             tier_index=index, answer=answer, start=start,
                             finish=finish, wait=wait, service=service,
                             late=late, step_errors=step_errors)

    def _jitter(self, request: Request, tier: str) -> float:
        """±20% stable service-time spread keyed by seed/kind/tier/seq."""
        unit = _stable_unit(str(self.seed), request.kind, tier,
                            str(request.seq))
        return 1.0 + 0.2 * (2.0 * unit - 1.0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """All counters as one flat mapping (also a pull source)."""
        out = super().stats()
        out["degraded"] = self.degraded
        for tier, count in sorted(self.tier_counts.items()):
            out[f"tier_{tier}"] = count
        for name, count in sorted(self.fallthrough.items()):
            out[f"fallthrough_{name}"] = count
        if self.limiter is not None:
            out["throttled_tenant"] = self.limiter.throttled["tenant"]
            out["throttled_global"] = self.limiter.throttled["global"]
        if self.breaker is not None:
            snap = self.breaker.snapshot()
            out["breaker_state"] = snap["state"]
            out["breaker_trips"] = snap["trips"]
            out["breaker_rejected"] = snap["rejected"]
        return out
