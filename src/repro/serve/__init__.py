"""`repro.serve` — the deterministic front-door serving layer.

Composes the resilience, observability, and QA substrates into a
gateway that faces (simulated) user traffic: admission control and
rate limiting, bounded queues with load shedding, tiered degradation
under pressure, bounded session state, and deterministic load
generation for overload benchmarks.
"""

from repro.serve.backends import (BUSY_MESSAGE, ServingBackends, TIER_COSTS,
                                  build_backends, question_pool)
from repro.serve.gateway import (AdmissionError, Gateway, QueueFullError,
                                 RateLimiter, Request, RequestResult,
                                 ThrottledError, TierStep, TokenBucket)
from repro.serve.loadgen import (LoadGenerator, LoadReport, MIXES, TrafficMix,
                                 overload_experiment, serving_observability)
from repro.serve.scheduler import (POLICIES, STREAM_MIXES, TokenScheduler,
                                   build_stream_requests, stream_prompt_pool,
                                   streaming_experiment)
from repro.serve.session import SessionStore

__all__ = [
    "AdmissionError",
    "BUSY_MESSAGE",
    "Gateway",
    "LoadGenerator",
    "LoadReport",
    "MIXES",
    "POLICIES",
    "QueueFullError",
    "RateLimiter",
    "Request",
    "RequestResult",
    "ServingBackends",
    "SessionStore",
    "STREAM_MIXES",
    "ThrottledError",
    "TierStep",
    "TIER_COSTS",
    "TokenBucket",
    "TokenScheduler",
    "TrafficMix",
    "build_backends",
    "build_stream_requests",
    "overload_experiment",
    "question_pool",
    "serving_observability",
    "stream_prompt_pool",
    "streaming_experiment",
]
