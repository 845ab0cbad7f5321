"""Chaos suite for the token scheduler: overloaded streaming replays
under LLM fault injection never lose a request and never corrupt a
stream.

The scheduler's accounting contract — the one ``serve replay --stream``
reconciles and the streaming benchmark gates on — is:

* ``submitted == streamed + rejected`` (every arrival is admitted as a
  stream or typed-rejected at the door);
* ``streamed == completed_streams + shed_mid_stream`` (every admitted
  stream resolves exactly once — completion, deadline shed, or a typed
  ``fault:<kind>`` shed);
* a stream shed at chunk *k* delivered exactly the first *k* chunks of
  the completion the clean model would have produced — partial output
  is a true prefix, never garbage;
* with a fixed seed the whole replay is deterministic, faults included.

``REPRO_CHAOS_WORKERS`` (default 4) sets the batch width, as in the
rest of the chaos suite.
"""

import os

import pytest

from repro.kg.datasets import DATASET_BUILDERS
from repro.llm import FaultInjectingLLM, FaultProfile, load_model
from repro.serve import (
    STREAM_MIXES,
    TokenScheduler,
    build_stream_requests,
    stream_prompt_pool,
    streaming_experiment,
)

FAULT_RATES = (0.0, 0.25, 0.5)

CHAOS_WORKERS = int(os.environ.get("REPRO_CHAOS_WORKERS", "4"))

DATASET = "enterprise"
SEED = 0


def _faulty_llm(kg, rate, seed=SEED):
    inner = load_model("chatgpt", world=kg, seed=seed)
    if not rate:
        return inner
    return FaultInjectingLLM(inner, FaultProfile.uniform(rate, seed=seed))


def _replay(rate, n_requests=60, seed=SEED, budget=2.0, queue_limit=16):
    """An overloaded streaming replay at ``CHAOS_WORKERS`` batch width."""
    data = DATASET_BUILDERS[DATASET](seed=seed)
    mix = STREAM_MIXES["stream"]
    pool = stream_prompt_pool(data, seed=seed)
    requests = build_stream_requests(
        pool, mix, rate=3.0 * CHAOS_WORKERS, n_requests=n_requests,
        seed=seed)
    scheduler = TokenScheduler(
        _faulty_llm(data.kg, rate, seed=seed), max_batch=CHAOS_WORKERS,
        queue_limit=queue_limit, budget=budget)
    results = scheduler.run(requests)
    return scheduler, results, data


def _clean_texts(data, results, seed=SEED):
    """Prompt → the completion a fault-free model produces."""
    clean = load_model("chatgpt", world=data.kg, seed=seed)
    return {prompt: clean.complete(prompt).text
            for prompt in {r.request.question for r in results}}


class TestStreamingChaosSweep:
    @pytest.mark.parametrize("rate", FAULT_RATES)
    def test_no_stream_is_lost(self, rate):
        scheduler, results, _ = _replay(rate)
        assert scheduler.submitted == len(results)
        assert scheduler.submitted == scheduler.admitted \
            + sum(scheduler.rejected.values())
        assert scheduler.admitted == scheduler.completed + scheduler.shed \
            + scheduler.failed
        assert scheduler.completed == sum(scheduler.tier_counts.values())
        for result in results:
            assert result.status in ("completed", "shed", "rejected")
            assert result.tier == "stream"

    @pytest.mark.parametrize("rate", FAULT_RATES)
    def test_partial_output_is_a_true_prefix(self, rate):
        _, results, data = _replay(rate)
        clean = _clean_texts(data, results)
        for result in results:
            if result.status == "rejected":
                continue
            text = clean[result.request.question]
            assert result.answer == "".join(result.chunks)
            # Shed at chunk k ⇒ exactly the first k chunks were
            # delivered: the joined output is a character prefix of the
            # clean completion (equal when the stream completed).
            assert result.answer == text[:len(result.answer)]
            if result.status == "completed":
                assert result.answer == text

    @pytest.mark.parametrize("rate", FAULT_RATES)
    def test_queue_depth_stays_bounded(self, rate):
        scheduler, _, _ = _replay(rate)
        assert scheduler.max_queue_depth <= scheduler.queue_limit

    def test_faults_surface_as_typed_shed_reasons(self):
        scheduler, _, _ = _replay(0.5)
        allowed = {"deadline", "fault:timeout", "fault:rate_limit",
                   "fault:truncated", "fault:malformed"}
        assert set(scheduler.shed_reasons) <= allowed
        assert any(reason.startswith("fault:")
                   for reason in scheduler.shed_reasons)
        calm, _, _ = _replay(0.0)
        assert not any(reason.startswith("fault:")
                       for reason in calm.shed_reasons)

    def test_chaos_replay_is_deterministic(self):
        def fingerprint():
            scheduler, results, _ = _replay(0.4)
            return ([(r.status, r.error, r.ttft, r.finish, r.chunks)
                     for r in results], scheduler.stats())

        assert fingerprint() == fingerprint()

    def test_experiment_reconciles_under_faults(self):
        report = streaming_experiment(
            dataset=DATASET, max_batch=CHAOS_WORKERS, load_factor=2.0,
            n_requests=60, seed=SEED, fault_rate=0.3, budget=2.0)
        assert report.streamed == \
            report.completed_streams + report.shed_mid_stream
        assert report.offered == 60
