"""Chaos suite for the agent loop: fault sweeps × parallel replay.

``REPRO_CHAOS_WORKERS`` (default 4) sets the executor worker count the
traces are replayed at, as in the other chaos suites. The invariants:

* an episode always terminates inside its step budget, whatever the
  fault profile — faults retry the same decision and mark the trace
  degraded, they never escape ``run``;
* a trace is byte-identical between 1 worker and ``CHAOS_WORKERS``
  workers under the *same* fault schedule (tool fan-out is pure);
* through the serving gateway, a degraded tier-0 agent episode falls
  through to the single-shot tier instead of failing the request.
"""

import os

import pytest

from repro.agent import GraphAgent
from repro.agent.eval import multihop_eval_set, run_agent
from repro.core.executor import ParallelExecutor
from repro.kg.datasets import family_kg, movie_kg
from repro.llm.faults import FaultInjectingLLM, FaultProfile
from repro.llm.registry import load_model

CHAOS_WORKERS = int(os.environ.get("REPRO_CHAOS_WORKERS", "4"))
FAULT_RATES = (0.0, 0.2, 0.5)


@pytest.fixture(scope="module")
def movie():
    return movie_kg(seed=0)


@pytest.fixture(scope="module")
def family():
    return family_kg(seed=0)


def _faulty_llm(kg, rate, seed):
    inner = load_model("chatgpt", world=kg, seed=seed)
    return FaultInjectingLLM(inner, FaultProfile.uniform(rate, seed=seed))


class TestEpisodesUnderChaos:
    def test_fault_sweep_terminates_in_budget(self, movie):
        items = multihop_eval_set(movie, n=6, seed=0)
        for rate in FAULT_RATES:
            llm = _faulty_llm(movie.kg, rate, seed=3)
            agent = GraphAgent(llm, movie.kg, max_steps=8)
            for item in items:
                trace = agent.run(item.question)
                assert len(trace.steps) <= 8
                assert isinstance(trace.final_answer, str)
                if rate == 0.0:
                    assert not trace.degraded

    def test_traces_identical_across_workers_under_faults(self, family):
        items = multihop_eval_set(family, n=6, seed=0)
        runs = []
        for workers in (1, CHAOS_WORKERS):
            llm = _faulty_llm(family.kg, 0.3, seed=7)
            agent = GraphAgent(llm, family.kg, max_steps=10,
                               executor=ParallelExecutor(
                                   max_workers=workers))
            runs.append([agent.run(item.question).to_dict()
                         for item in items])
        assert runs[0] == runs[1]

    def test_eval_harness_matches_at_chaos_width(self, family):
        items = multihop_eval_set(family, n=6, seed=0)
        reference = [t.to_dict() for t in
                     run_agent(family, items, seed=0, workers=1)]
        parallel = [t.to_dict() for t in
                    run_agent(family, items, seed=0,
                              workers=CHAOS_WORKERS)]
        assert reference == parallel

    def test_total_outage_degrades_to_unknown(self, movie):
        inner = load_model("chatgpt", world=movie.kg, seed=0)
        llm = FaultInjectingLLM(inner, FaultProfile(timeout_rate=1.0))
        trace = GraphAgent(llm, movie.kg, max_steps=4).run("anything?")
        assert trace.final_answer == "unknown"
        assert trace.degraded
        assert len(trace.steps) == 4


class TestServingAgentTier:
    def test_degraded_episode_falls_through_to_single_shot(self):
        from repro.llm.faults import LLMTransientError
        from repro.serve.backends import build_backends, question_pool
        from repro.serve.gateway import Request

        llm_seed = 0
        backends = build_backends("movie", seed=llm_seed)
        question = question_pool(backends.dataset, seed=llm_seed)["agent"][0]
        request = Request(tenant="t0", kind="agent", question=question,
                          arrival=0.0, session_id="s0", seq=0)
        # Healthy tier 0 answers and appends observations in-session.
        answer = backends.handlers["agent"][0].fn(request)
        assert isinstance(answer, str) and answer
        session = backends.sessions.get("t0", "s0")
        assert any(turn.intent == "observation" for turn in session.history)

        # Under total outage tier 0 raises transient; tier 1 still
        # returns an answer string (the gateway's fallthrough path).
        faulty = build_backends(
            "movie", seed=llm_seed,
            llm=FaultInjectingLLM(
                load_model("chatgpt", seed=llm_seed),
                FaultProfile(timeout_rate=1.0)))
        with pytest.raises(LLMTransientError):
            faulty.handlers["agent"][0].fn(request)
        assert isinstance(backends.handlers["agent"][1].fn(request), str)

    def test_no_session_evicted_mid_episode(self):
        from repro.serve.backends import build_backends, question_pool
        from repro.serve.gateway import Request

        backends = build_backends("movie", seed=0)
        backends.sessions.max_sessions = 1
        question = question_pool(backends.dataset, seed=0)["agent"][0]
        # With capacity 1, a second tenant's episode would evict the
        # first session were it not pinned for the episode's duration.
        for index, tenant in enumerate(["a", "b", "a"]):
            request = Request(tenant=tenant, kind="agent",
                              question=question, arrival=float(index),
                              session_id="s", seq=index)
            answer = backends.handlers["agent"][0].fn(request)
            assert isinstance(answer, str) and answer
        assert backends.sessions.pinned() == 0
        assert len(backends.sessions) <= 2
