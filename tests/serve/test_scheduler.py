"""TokenScheduler: iteration-level scheduling, deadline shedding,
tenant fairness, the stream ledger, and policy/width invariance of
per-request text (DESIGN §11)."""

import pytest

from repro.core.observability import FakeClock
from repro.llm import LLMConfig, SimulatedLLM, RadixPrefixCache
from repro.llm import prompts as P
from repro.llm.streaming import stream_chunks
from repro.serve import (
    POLICIES,
    Request,
    STREAM_MIXES,
    TokenScheduler,
    build_stream_requests,
    stream_prompt_pool,
    streaming_experiment,
)

SEED = 0

LONG_PROMPT = P.summarization_prompt(
    "Ava Chen directed Starfall. Starfall won three awards. The film "
    "premiered in 2019. Critics praised the script. The score was "
    "recorded live. A sequel entered production the next year.")

PROMPTS = [
    LONG_PROMPT,
    P.qa_prompt("Who directed Starfall?",
                facts=["Ava Chen directed Starfall."]),
    P.chat_prompt("hello there"),
    P.summarization_prompt("The knowledge graph stores facts as triples. "
                           "Each triple has a subject and an object."),
]


def _workload(n=12, gap=0.05):
    reqs = []
    for i in range(n):
        reqs.append(Request(
            tenant=f"tenant-{'ab'[i % 2]}", kind="mixed",
            question=PROMPTS[i % len(PROMPTS)], arrival=i * gap))
    return reqs


def _expected_texts(n=12):
    llm = SimulatedLLM(LLMConfig(seed=SEED))
    return [llm.complete(PROMPTS[i % len(PROMPTS)]).text for i in range(n)]


class TestTextInvariance:
    @pytest.mark.parametrize("max_batch", [1, 2, 4, 8])
    def test_batch_width_never_changes_the_text(self, max_batch):
        scheduler = TokenScheduler(
            SimulatedLLM(LLMConfig(seed=SEED)), max_batch=max_batch,
            budget=100.0)
        results = scheduler.run(_workload())
        assert [r.status for r in results] == ["completed"] * 12
        assert [r.answer for r in results] == _expected_texts()
        assert [tuple("".join(r.chunks)) for r in results] == \
            [tuple(r.answer) for r in results]

    @pytest.mark.parametrize("policy", POLICIES)
    def test_policy_never_changes_the_text(self, policy):
        scheduler = TokenScheduler(
            SimulatedLLM(LLMConfig(seed=SEED)), max_batch=4, budget=100.0,
            policy=policy)
        results = scheduler.run(_workload())
        assert [r.answer for r in results] == _expected_texts()

    def test_replay_is_deterministic(self):
        def run():
            scheduler = TokenScheduler(
                SimulatedLLM(LLMConfig(seed=SEED)), max_batch=3,
                budget=0.8, queue_limit=4)
            results = scheduler.run(_workload(n=16, gap=0.01))
            return [(r.status, r.error, round(r.finish, 9), r.ttft,
                     len(r.chunks)) for r in results], scheduler.stats()

        assert run() == run()


class TestDeadlineShedding:
    def test_shed_at_token_k_returns_exactly_first_k_chunks(self):
        scheduler = TokenScheduler(
            SimulatedLLM(LLMConfig(seed=SEED)), max_batch=1, budget=0.12)
        [result] = scheduler.run([Request(
            tenant="t", kind="summarize", question=LONG_PROMPT, arrival=0.0)])
        full = SimulatedLLM(LLMConfig(seed=SEED)).complete(LONG_PROMPT).text
        expected = stream_chunks(full)
        assert result.status == "shed" and result.error == "deadline"
        k = len(result.chunks)
        assert 0 < k < len(expected)
        assert list(result.chunks) == expected[:k]
        assert result.answer == "".join(expected[:k])

    def test_queue_expired_request_is_shed_with_zero_chunks(self):
        llm = SimulatedLLM(LLMConfig(seed=SEED))
        scheduler = TokenScheduler(llm, max_batch=1, budget=0.5,
                                   step_time=0.2)
        results = scheduler.run([
            Request("t", "summarize", LONG_PROMPT, arrival=0.0),
            Request("t", "summarize", LONG_PROMPT, arrival=0.0),
        ])
        blocked = results[1]
        assert blocked.status == "shed" and blocked.error == "deadline"
        assert blocked.chunks == () and blocked.tokens_out == 0
        # It never touched the model: only the first request called it.
        assert llm.calls == 1
        # Ledger still counts it as an admitted stream.
        assert scheduler.admitted == 2
        assert scheduler.completed + scheduler.shed == 2

    def test_late_completion_is_flagged_not_shed(self):
        scheduler = TokenScheduler(
            SimulatedLLM(LLMConfig(seed=SEED)), max_batch=1, budget=100.0)
        [result] = scheduler.run([Request(
            "t", "qa", PROMPTS[1], arrival=0.0)])
        assert result.status == "completed" and not result.late


class TestAdmission:
    def test_queue_overflow_is_typed_rejected(self):
        scheduler = TokenScheduler(
            SimulatedLLM(LLMConfig(seed=SEED)), max_batch=1, queue_limit=1,
            budget=100.0)
        for _ in range(3):
            scheduler.submit("t", "qa", PROMPTS[1], arrival=0.0)
        results = scheduler.drain()
        statuses = [r.status for r in results]
        assert statuses.count("rejected") == 1
        assert results[2].error == "queue_full"
        assert scheduler.submitted == 3
        assert scheduler.admitted + scheduler.rejected["queue_full"] == 3

    def test_arrivals_must_be_non_decreasing(self):
        scheduler = TokenScheduler(SimulatedLLM(LLMConfig(seed=SEED)))
        scheduler.submit("t", "qa", PROMPTS[1], arrival=1.0)
        with pytest.raises(ValueError):
            scheduler.submit("t", "qa", PROMPTS[1], arrival=0.5)

    def test_tenant_fairness_lets_minority_tenant_in(self):
        scheduler = TokenScheduler(
            SimulatedLLM(LLMConfig(seed=SEED)), max_batch=2, budget=100.0)
        requests = [Request("flood", "summarize", LONG_PROMPT, 0.0)
                    for _ in range(6)]
        requests.append(Request("minority", "qa", PROMPTS[1], 0.0))
        results = scheduler.run(requests)
        minority = results[-1]
        # Despite arriving last in FCFS order, the minority tenant takes
        # the first slot that frees (fewest running slots wins), jumping
        # ahead of every flood request still waiting in the queue.
        queued_flood_starts = [r.start for r in results[2:6]]
        assert minority.start <= min(queued_flood_starts)
        assert minority.start < max(queued_flood_starts)

    def test_run_to_completion_blocks_mid_batch_joins(self):
        scheduler = TokenScheduler(
            SimulatedLLM(LLMConfig(seed=SEED)), max_batch=4, budget=100.0,
            policy="run_to_completion")
        results = scheduler.run([
            Request("t", "summarize", LONG_PROMPT, 0.0),
            Request("t", "qa", PROMPTS[1], 0.01),
        ])
        # The second request arrived while the first batch (width 1) was
        # in flight: it must wait for the batch to finish entirely.
        assert results[1].start >= results[0].finish


class TestClockAndObs:
    def test_fake_clock_tracks_iteration_boundaries(self):
        clock = FakeClock()
        scheduler = TokenScheduler(
            SimulatedLLM(LLMConfig(seed=SEED)), max_batch=2, budget=100.0,
            clock=clock)
        results = scheduler.run(_workload(n=6))
        # now() consumes one tick per reading, so allow tick-size noise.
        last = max(r.finish for r in results)
        assert last <= clock.now() <= last + 0.01

    def test_stats_expose_ledger_and_shed_reasons(self):
        scheduler = TokenScheduler(
            SimulatedLLM(LLMConfig(seed=SEED)), max_batch=1, budget=0.12)
        scheduler.run([Request("t", "summarize", LONG_PROMPT, 0.0)])
        stats = scheduler.stats()
        assert stats["submitted"] == 1 and stats["admitted"] == 1
        assert stats["shed_deadline"] == 1
        assert stats["policy"] == "continuous"


class TestPrefixCacheIntegration:
    def test_repeat_prompts_skip_prefill(self):
        cache = RadixPrefixCache()
        scheduler = TokenScheduler(
            SimulatedLLM(LLMConfig(seed=SEED)), max_batch=1, budget=100.0,
            prefix_cache=cache)
        results = scheduler.run([
            Request("t", "qa", PROMPTS[1], 0.0),
            Request("t", "qa", PROMPTS[1], 5.0),
        ])
        assert results[0].cached_prefix_tokens == 0
        assert results[1].cached_prefix_tokens > 0
        assert scheduler.prefill_tokens_skipped == \
            results[1].cached_prefix_tokens
        assert scheduler.stats()["prefix_cache_hits"] > 0

    def test_cached_prefill_shortens_the_iteration(self):
        def first_finish(with_cache):
            cache = RadixPrefixCache() if with_cache else None
            scheduler = TokenScheduler(
                SimulatedLLM(LLMConfig(seed=SEED)), max_batch=1,
                budget=100.0, prefill_time=0.01, prefix_cache=cache)
            results = scheduler.run([
                Request("t", "qa", PROMPTS[1], 0.0),
                Request("t", "qa", PROMPTS[1], 50.0),
            ])
            return results[1].finish - results[1].start

        assert first_finish(True) < first_finish(False)


class TestStreamingExperiment:
    def test_continuous_beats_run_to_completion_under_overload(self):
        kwargs = dict(dataset="family", n_requests=60, load_factor=2.0,
                      seed=SEED, budget=4.0)
        cont = streaming_experiment(policy="continuous", **kwargs)
        static = streaming_experiment(policy="run_to_completion", **kwargs)
        assert cont.goodput > static.goodput
        assert cont.p50_ttft < static.p50_ttft

    def test_report_carries_stream_aggregates_and_ledger(self):
        report = streaming_experiment(dataset="family", n_requests=40,
                                      seed=SEED)
        assert report.streamed == \
            report.completed_streams + report.shed_mid_stream
        assert report.offered == 40
        assert report.p50_ttft > 0.0
        assert report.tokens_out > 0 and report.tokens_per_sec > 0.0
        d = report.to_dict()
        for key in ("p50_ttft", "p99_ttft", "mean_tpot", "tokens_out",
                    "tokens_per_sec", "streamed", "completed_streams",
                    "shed_mid_stream"):
            assert key in d

    def test_experiment_is_deterministic(self):
        kwargs = dict(dataset="family", n_requests=40, seed=SEED,
                      fault_rate=0.3, load_factor=1.5)
        assert streaming_experiment(**kwargs).to_dict() == \
            streaming_experiment(**kwargs).to_dict()

    def test_workload_builder_is_sorted_and_mixed(self):
        from repro.kg.datasets import DATASET_BUILDERS
        data = DATASET_BUILDERS["family"](seed=SEED)
        pool = stream_prompt_pool(data, seed=SEED)
        mix = STREAM_MIXES["stream"]
        requests = build_stream_requests(pool, mix, rate=5.0,
                                         n_requests=50, seed=SEED)
        arrivals = [r.arrival for r in requests]
        assert arrivals == sorted(arrivals)
        assert {r.kind for r in requests} == {"kg2text", "summarize",
                                              "qa", "chat"}
        assert len({r.tenant for r in requests}) == 3
