"""Tests for the deterministic fault-injection layer."""

import pytest

from repro.kg.datasets import movie_kg
from repro.llm import LLMConfig, LLMResponse, SimulatedLLM, load_model
from repro.llm.faults import (
    FaultInjectingLLM,
    FaultProfile,
    LLMMalformedOutputError,
    LLMRateLimitError,
    LLMTimeoutError,
    LLMTransientError,
    LLMTruncatedOutputError,
)
from repro.llm.model import ChatMessage


def _drive(llm, n=30):
    """Run n calls, collecting (outcome kind, payload) per call."""
    outcomes = []
    for i in range(n):
        try:
            response = llm.complete(f"Task: question answering\nQuestion: q{i}?")
            outcomes.append(("ok", response.text))
        except LLMTransientError as exc:
            outcomes.append((exc.kind, str(exc)))
    return outcomes


class TestErrorHierarchy:
    def test_all_faults_are_transient(self):
        for cls in (LLMTimeoutError, LLMRateLimitError,
                    LLMTruncatedOutputError, LLMMalformedOutputError):
            assert issubclass(cls, LLMTransientError)
            assert issubclass(cls, RuntimeError)

    def test_kinds_distinguish_modes(self):
        kinds = {cls.kind for cls in (
            LLMTimeoutError, LLMRateLimitError,
            LLMTruncatedOutputError, LLMMalformedOutputError)}
        assert kinds == {"timeout", "rate_limit", "truncated", "malformed"}


class TestFaultProfile:
    def test_zero_profile_schedules_nothing(self):
        profile = FaultProfile()
        assert all(profile.fault_for(i, f"p{i}") is None for i in range(50))

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultProfile(timeout_rate=1.5)
        with pytest.raises(ValueError):
            FaultProfile(timeout_rate=0.6, rate_limit_rate=0.6)
        with pytest.raises(ValueError):
            FaultProfile.uniform(-0.1)

    def test_uniform_splits_rate(self):
        profile = FaultProfile.uniform(0.4, seed=3)
        assert profile.total_rate == pytest.approx(0.4)
        assert profile.timeout_rate == pytest.approx(0.16)

    def test_schedule_is_pure_and_deterministic(self):
        profile = FaultProfile.uniform(0.5, seed=11)
        first = [profile.fault_for(i, "prompt") for i in range(100)]
        second = [profile.fault_for(i, "prompt") for i in range(100)]
        assert first == second
        assert any(k is not None for k in first)

    def test_seed_changes_schedule(self):
        a = [FaultProfile.uniform(0.5, seed=1).fault_for(i, "p") for i in range(50)]
        b = [FaultProfile.uniform(0.5, seed=2).fault_for(i, "p") for i in range(50)]
        assert a != b

    def test_outage_window_forces_timeouts(self):
        profile = FaultProfile(outages=((5, 8),))
        kinds = [profile.fault_for(i, "p") for i in range(10)]
        assert kinds[5:8] == ["timeout"] * 3
        assert all(k is None for k in kinds[:5] + kinds[8:])

    def test_rate_limit_bursts(self):
        profile = FaultProfile(burst_period=10, burst_length=2)
        kinds = [profile.fault_for(i, "p") for i in range(20)]
        assert kinds[0] == kinds[1] == kinds[10] == kinds[11] == "rate_limit"
        assert kinds[2] is None and kinds[12] is None


class TestFaultInjectingLLM:
    @pytest.fixture(scope="class")
    def world(self):
        return movie_kg(seed=1).kg

    def test_zero_rate_is_transparent(self, world):
        inner = load_model("chatgpt", world=world, seed=1)
        bare = load_model("chatgpt", world=world, seed=1)
        wrapped = FaultInjectingLLM(inner, FaultProfile())
        prompt = "Task: question answering\nQuestion: What directed by The Silent Horizon?"
        assert wrapped.complete(prompt).text == bare.complete(prompt).text
        assert wrapped.faults_injected == 0

    def test_schedules_are_byte_identical_across_runs(self, world):
        logs = []
        for _ in range(2):
            llm = FaultInjectingLLM(load_model("chatgpt", world=world, seed=1),
                                    FaultProfile.uniform(0.5, seed=9))
            _drive(llm, n=40)
            logs.append(list(llm.fault_log))
        assert logs[0] == logs[1]
        assert any(kind != "ok" for _, kind in logs[0])

    def test_answers_identical_across_runs(self, world):
        runs = []
        for _ in range(2):
            llm = FaultInjectingLLM(load_model("chatgpt", world=world, seed=1),
                                    FaultProfile.uniform(0.3, seed=5))
            runs.append(_drive(llm, n=40))
        assert runs[0] == runs[1]

    def test_truncation_carries_partial_text(self, world):
        inner = load_model("chatgpt", world=world, seed=1)
        llm = FaultInjectingLLM(inner, FaultProfile(truncation_rate=1.0))
        prompt = "Task: question answering\nQuestion: What directed by The Silent Horizon?"
        with pytest.raises(LLMTruncatedOutputError) as info:
            llm.complete(prompt)
        full = load_model("chatgpt", world=world, seed=1).complete(prompt).text
        assert full.startswith(info.value.partial_text)
        assert len(info.value.partial_text) < len(full)

    def test_malformed_carries_corrupted_text(self, world):
        llm = FaultInjectingLLM(load_model("chatgpt", world=world, seed=1),
                                FaultProfile(malformed_rate=1.0))
        with pytest.raises(LLMMalformedOutputError) as info:
            llm.complete("Task: question answering\nQuestion: "
                         "What directed by The Silent Horizon?")
        assert isinstance(info.value.corrupted_text, str)

    def test_rate_limit_carries_retry_after(self):
        llm = FaultInjectingLLM(SimulatedLLM(LLMConfig(seed=0)),
                                FaultProfile(rate_limit_rate=1.0,
                                             retry_after=2.5))
        with pytest.raises(LLMRateLimitError) as info:
            llm.complete("hello")
        assert info.value.retry_after == 2.5

    def test_timeout_carries_simulated_latency(self):
        llm = FaultInjectingLLM(SimulatedLLM(LLMConfig(seed=0)),
                                FaultProfile(timeout_rate=1.0,
                                             timeout_latency=12.0))
        with pytest.raises(LLMTimeoutError) as info:
            llm.complete("hello")
        assert info.value.simulated_latency == 12.0

    def test_delegates_non_inference_attributes(self, world):
        inner = load_model("chatgpt", world=world, seed=1)
        llm = FaultInjectingLLM(inner, FaultProfile.uniform(0.9, seed=1))
        # Local computations never fault, whatever the profile says.
        assert llm.find_mentions("The Silent Horizon")
        assert llm.config is inner.config
        assert llm.labels is inner.labels

    def test_chat_faults_like_complete(self):
        llm = FaultInjectingLLM(SimulatedLLM(LLMConfig(seed=0)),
                                FaultProfile(timeout_rate=1.0))
        with pytest.raises(LLMTimeoutError):
            llm.chat([ChatMessage("user", "hi there")])

    def test_retry_at_later_index_can_succeed(self):
        profile = FaultProfile.uniform(0.5, seed=3)
        llm = FaultInjectingLLM(SimulatedLLM(LLMConfig(seed=0)), profile)
        prompt = "Task: chat\nQuestion: hello"
        results = []
        for _ in range(12):
            try:
                results.append(type(llm.complete(prompt)))
            except LLMTransientError as exc:
                results.append(exc.kind)
        # The same prompt draws fresh faults per call index: both outcomes
        # appear across enough retries.
        assert LLMResponse in results
        assert any(isinstance(r, str) for r in results)

    def test_planned_fault_matches_actual(self):
        profile = FaultProfile.uniform(0.5, seed=4)
        llm = FaultInjectingLLM(SimulatedLLM(LLMConfig(seed=0)), profile)
        planned = [profile.fault_for(i, f"p{i}") or "ok" for i in range(20)]
        for i in range(20):
            try:
                llm.complete(f"p{i}")
            except LLMTransientError:
                pass
        assert [kind for _, kind in llm.fault_log] == planned
