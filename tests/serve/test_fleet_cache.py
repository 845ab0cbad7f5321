"""One LLM cache per serving fleet.

``build_backends`` wraps the model once in a ``CachingLLM`` and hands it
to RAG, GraphRAG, the text2sparql drafter and every chat session; only
the agent runs on the uncached model. These tests count work, not time:
a repeated request of a cached kind must not reach the model again, and
the ``llm.cache`` metric must be that one cache's counters.
"""

import pytest

from repro.serve import build_backends, question_pool, serving_observability
from repro.serve.gateway import Request

#: The request kinds served through the fleet cache.
CACHED_KINDS = ("rag", "graphrag", "sparql", "chat")


def _requests(pool, kind, session_prefix):
    # Every chat request opens its own session, so a repeated turn sees
    # the same (empty) history and hence the same prompt.
    return [Request("tenant", kind, question, 0.0,
                    session_id=f"{session_prefix}{index}")
            for index, question in enumerate(pool[kind])]


def _serve(backends, requests):
    for request in requests:
        backends.handlers[request.kind][0].fn(request)


@pytest.fixture()
def fleet():
    obs = serving_observability()
    backends = build_backends("enterprise", seed=0, obs=obs)
    return backends, obs, question_pool(backends.dataset, seed=0)


def _model_calls(backends):
    # The caching wrapper delegates ``calls`` to the model it wraps.
    return backends.llm.calls


def _lookups(stats):
    return stats["hits"] + stats["misses"]


class TestFleetCacheMetric:
    def test_llm_cache_source_is_the_shared_cache(self, fleet):
        backends, obs, pool = fleet
        previous = 0
        for kind in CACHED_KINDS:
            _serve(backends, _requests(pool, kind, "metric-"))
            source = obs.metrics.snapshot()["sources"]["llm.cache"]
            assert source == backends.llm.cache_stats()
            # Each kind's requests land in the one registered cache.
            assert _lookups(source) > previous, kind
            previous = _lookups(source)


class TestFleetWorkCounts:
    def test_second_pass_never_reaches_the_model(self, fleet):
        backends, _, pool = fleet
        for kind in CACHED_KINDS:
            _serve(backends, _requests(pool, kind, "first-"))
        charged = _model_calls(backends)
        assert charged > 0
        for kind in CACHED_KINDS:
            _serve(backends, _requests(pool, kind, "second-"))
        assert _model_calls(backends) == charged

    def test_agent_still_charges_the_model(self, fleet):
        # The agent runs on the uncached model on purpose: a repeated
        # episode is recomputed.
        backends, _, pool = fleet
        request = _requests(pool, "agent", "agent-")[0]
        for _ in range(2):
            before = _model_calls(backends)
            _serve(backends, [request])
            assert _model_calls(backends) > before
