"""Operational fault injection for the simulated LLM.

:class:`~repro.llm.model.SimulatedLLM` models the *semantic* failure modes
of GPT-3/ChatGPT-class models (hallucination, bounded knowledge coverage).
Real deployments of the surveyed architectures also face *operational*
failures — request timeouts, rate limiting, truncated streams, malformed
output — and the architectures around the model (retry loops, fallbacks,
graceful degradation) are what make them dependable. This module supplies
those failures, deterministically:

* a typed transient-error hierarchy rooted at :class:`LLMTransientError`,
  so resilience policies can distinguish retryable operational faults from
  programming errors;
* :class:`FaultProfile` — a seeded schedule of failure rates, outage
  windows and rate-limit bursts. The fault for a call is a pure function
  of ``(profile seed, call index, prompt)``, so identical runs reproduce
  byte-identical fault schedules;
* :class:`FaultInjectingLLM` — a transparent wrapper around any
  ``SimulatedLLM`` that injects the scheduled faults on ``complete``/
  ``chat`` and delegates everything else, so every consumer system in the
  repo accepts it unchanged.

No wall clock is involved anywhere: timeouts and rate limits carry
*simulated* latencies that resilience policies charge against simulated
deadlines (see :mod:`repro.core.resilience`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, NoReturn, Optional, Sequence, Tuple

from repro.llm.model import (
    LLMResponse,
    LLMWrapper,
    SimulatedLLM,
    _stable_unit,
    complete_all,
)
from repro.llm.streaming import stream_chunks


class LLMTransientError(RuntimeError):
    """Base class for retryable operational LLM failures.

    Attributes carry everything a resilience policy needs: the call index
    (the position in the wrapper's fault schedule) and the simulated
    latency the failed call consumed before failing.
    """

    kind = "transient"

    def __init__(self, message: str, *, call_index: Optional[int] = None,
                 simulated_latency: float = 0.0):
        super().__init__(message)
        self.call_index = call_index
        self.simulated_latency = simulated_latency


class LLMTimeoutError(LLMTransientError):
    """The upstream call exceeded its (simulated) time budget."""

    kind = "timeout"


class LLMRateLimitError(LLMTransientError):
    """HTTP-429 analogue; ``retry_after`` is the server's simulated hint."""

    kind = "rate_limit"

    def __init__(self, message: str, *, retry_after: float = 1.0, **kwargs):
        super().__init__(message, **kwargs)
        self.retry_after = retry_after


class LLMTruncatedOutputError(LLMTransientError):
    """The stream dropped mid-completion; ``partial_text`` is what arrived."""

    kind = "truncated"

    def __init__(self, message: str, *, partial_text: str = "", **kwargs):
        super().__init__(message, **kwargs)
        self.partial_text = partial_text


class LLMMalformedOutputError(LLMTransientError):
    """The completion arrived but is structurally garbled.

    ``corrupted_text`` preserves the corrupted payload so callers can log
    or attempt salvage; resilience policies should treat the call as failed.
    """

    kind = "malformed"

    def __init__(self, message: str, *, corrupted_text: str = "", **kwargs):
        super().__init__(message, **kwargs)
        self.corrupted_text = corrupted_text


#: The fault kinds a profile can schedule, in draw order.
FAULT_KINDS = ("timeout", "rate_limit", "truncated", "malformed")


@dataclass(frozen=True)
class FaultProfile:
    """A seeded, per-call-deterministic schedule of operational faults.

    Rates are independent per-call probabilities resolved by one stable
    draw keyed on ``(seed, call index, prompt)`` — rerunning the same
    workload with the same seed reproduces the exact same schedule, while
    a retry of the same prompt at a later call index gets a fresh draw
    (so retries can succeed, as they do against real APIs).

    ``outages`` are hard ``[start, stop)`` windows over the call index in
    which every call times out (a provider incident); ``burst_period`` /
    ``burst_length`` model periodic rate-limit bursts: the first
    ``burst_length`` calls of every ``burst_period``-call cycle are
    rejected with :class:`LLMRateLimitError`.
    """

    timeout_rate: float = 0.0
    rate_limit_rate: float = 0.0
    truncation_rate: float = 0.0
    malformed_rate: float = 0.0
    outages: Tuple[Tuple[int, int], ...] = ()
    burst_period: int = 0
    burst_length: int = 0
    retry_after: float = 1.0
    timeout_latency: float = 30.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("timeout_rate", "rate_limit_rate", "truncation_rate",
                     "malformed_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if self.total_rate > 1.0:
            raise ValueError(
                f"fault rates sum to {self.total_rate}, must be <= 1")

    @property
    def total_rate(self) -> float:
        """The per-call probability of any scheduled fault (outside bursts)."""
        return (self.timeout_rate + self.rate_limit_rate
                + self.truncation_rate + self.malformed_rate)

    @classmethod
    def uniform(cls, rate: float, seed: int = 0, **overrides) -> "FaultProfile":
        """Split an overall fault ``rate`` across the four modes
        (40% timeout, 30% rate limit, 15% truncation, 15% malformed)."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate!r}")
        fields = dict(
            timeout_rate=0.40 * rate,
            rate_limit_rate=0.30 * rate,
            truncation_rate=0.15 * rate,
            malformed_rate=0.15 * rate,
            seed=seed,
        )
        fields.update(overrides)
        return cls(**fields)

    def fault_for(self, call_index: int, prompt: str) -> Optional[str]:
        """The fault kind scheduled for this call, or None for a clean call.

        Pure and deterministic: no state is read or written, so the whole
        schedule can be previewed before running a workload.
        """
        for start, stop in self.outages:
            if start <= call_index < stop:
                return "timeout"
        if self.burst_period > 0 and self.burst_length > 0 and \
                call_index % self.burst_period < self.burst_length:
            return "rate_limit"
        draw = _stable_unit(str(self.seed), "fault", str(call_index), prompt)
        edge = 0.0
        for kind, rate in zip(FAULT_KINDS,
                              (self.timeout_rate, self.rate_limit_rate,
                               self.truncation_rate, self.malformed_rate)):
            edge += rate
            if draw < edge:
                return kind
        return None


def _corrupt(text: str, seed: int, call_index: int) -> str:
    """Deterministically garble a completion (the malformed-output mode):
    structural separators are destroyed and word order is locally swapped,
    so downstream parsers see plausible-looking but unusable text."""
    stripped = re.sub(r"[|;\[\]{}]", " ", text)
    words = stripped.split()
    for i in range(0, len(words) - 1, 2):
        if _stable_unit(str(seed), "swap", str(call_index), str(i)) < 0.5:
            words[i], words[i + 1] = words[i + 1], words[i]
    return " ".join(words)


def _truncated_stream(partial: str, index: int):
    """Yield the clean prefix of a truncated completion, then drop the
    stream with the same typed error (and ``partial_text``) the blob path
    raises."""
    for chunk in stream_chunks(partial):
        yield chunk
    raise LLMTruncatedOutputError(
        f"call {index}: output truncated mid-stream",
        partial_text=partial, call_index=index)


class FaultInjectingLLM(LLMWrapper):
    """Wrap a :class:`SimulatedLLM` with a deterministic fault schedule.

    Every attribute other than the inference entry points is delegated to
    ``inner`` (see :class:`~repro.llm.model.LLMWrapper`), so retrieval
    components keep using ``find_mentions``/``find_relations``/lexicons
    directly (those are local computations — only *API calls*, i.e.
    ``complete``/``chat``, can fault).

    ``fault_log`` records ``(call index, fault kind or "ok")`` per call;
    two runs of the same workload with the same profile produce identical
    logs, which is what the chaos suite asserts.
    """

    def __init__(self, inner: SimulatedLLM,
                 profile: Optional[FaultProfile] = None):
        super().__init__(inner)
        self.profile = profile or FaultProfile()
        self.fault_calls = 0
        self.faults_injected = 0
        self.fault_log: List[Tuple[int, str]] = []

    def _next_call(self, prompt: str) -> Tuple[int, Optional[str]]:
        """Consume the next call index and log the fault scheduled for it
        (``None`` for a clean call)."""
        index = self.fault_calls
        self.fault_calls += 1
        kind = self.profile.fault_for(index, prompt)
        self.fault_log.append((index, kind or "ok"))
        if kind is not None:
            self.faults_injected += 1
            self.obs.count("llm.faults", kind=kind)
        return index, kind

    def _cut(self, text: str, index: int) -> str:
        """The clean prefix a truncated call delivers."""
        fraction = 0.2 + 0.6 * _stable_unit(
            str(self.profile.seed), "cut", str(index))
        return text[:int(len(text) * fraction)]

    def complete(self, prompt: str, max_tokens: int = 256) -> LLMResponse:
        """Complete a prompt, or raise the scheduled typed transient error."""
        index, kind = self._next_call(prompt)
        if kind is None:
            return self.inner.complete(prompt, max_tokens=max_tokens)
        self._raise_fault(kind, index, prompt, max_tokens)

    def complete_stream(self, prompt: str, max_tokens: int = 256):
        """Stream a completion under the same per-call fault schedule.

        The call index is consumed and logged when the stream is *created*
        (exactly as ``complete`` does), so a workload driven through
        ``complete_stream`` reproduces the identical ``fault_log`` —
        byte-identical faults, per the streaming contract:

        * clean calls return the inner model's metered stream unchanged;
        * ``timeout``/``rate_limit``/``malformed`` raise synchronously,
          exactly like ``complete`` (the stream never starts — for the
          corruption mode the full completion is still charged against the
          inner model and delivered as ``corrupted_text``, matching the
          blob path);
        * ``truncated`` is the genuinely mid-stream fault: the inner model
          is charged for the full completion up front (as in the blob
          path), the deterministic clean prefix is yielded chunk by chunk,
          and then :class:`LLMTruncatedOutputError` is raised with the
          same ``partial_text`` the blob call would have carried.
        """
        index, kind = self._next_call(prompt)
        if kind is None:
            return self.inner.complete_stream(prompt, max_tokens=max_tokens)
        if kind != "truncated":
            self._raise_fault(kind, index, prompt, max_tokens)
        response = self.inner.complete(prompt, max_tokens=max_tokens)
        return _truncated_stream(self._cut(response.text, index), index)

    def complete_batch(self, prompts: Sequence[str],
                       max_tokens: int = 256) -> List[LLMResponse]:
        """Batch completion under the same per-call fault schedule.

        Call indices are assigned to the prompts *in batch order*, one per
        prompt, so a batched workload consumes exactly the indices (and
        logs exactly the ``fault_log`` entries) the equivalent ``complete``
        loop would. The clean prompts go to the inner model as one batch,
        which is where the model dedups repeats. At the first scheduled
        fault the clean prompts before it are still completed upstream
        (the inner counters and any cache behind this layer then match the
        sequential loop) and the typed error is raised.
        """
        clean: List[str] = []
        for prompt in prompts:
            index, kind = self._next_call(prompt)
            if kind is None:
                clean.append(prompt)
                continue
            complete_all(self.inner, clean, max_tokens=max_tokens)
            self._raise_fault(kind, index, prompt, max_tokens)
        return complete_all(self.inner, clean, max_tokens=max_tokens)

    def _raise_fault(self, kind: str, index: int, prompt: str,
                     max_tokens: int) -> NoReturn:
        """Raise the typed error for an already-logged scheduled fault."""
        if kind == "timeout":
            raise LLMTimeoutError(
                f"call {index}: simulated upstream timeout",
                call_index=index,
                simulated_latency=self.profile.timeout_latency)
        if kind == "rate_limit":
            raise LLMRateLimitError(
                f"call {index}: simulated rate limit",
                retry_after=self.profile.retry_after, call_index=index)
        # Corruption modes deliver (part of) the real completion inside the
        # exception — the stream started, then went wrong.
        response = self.inner.complete(prompt, max_tokens=max_tokens)
        if kind == "truncated":
            raise LLMTruncatedOutputError(
                f"call {index}: output truncated mid-stream",
                partial_text=self._cut(response.text, index),
                call_index=index)
        raise LLMMalformedOutputError(
            f"call {index}: malformed output",
            corrupted_text=_corrupt(response.text, self.profile.seed, index),
            call_index=index)
