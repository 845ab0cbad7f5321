"""Tests for the memoizing LLM wrapper (CachingLLM)."""

import pytest

from repro.enhanced import GraphRAG, NaiveRAG
from repro.kg.datasets import enterprise_kg, movie_kg
from repro.llm import CachingLLM, load_model, maybe_cached
from repro.llm import prompts as P
from repro.llm.caching import DEFAULT_CACHE_SIZE
from repro.llm.faults import (
    FaultInjectingLLM,
    FaultProfile,
    LLMTimeoutError,
    LLMTransientError,
)
from repro.llm.model import ChatMessage
from repro.qa.multihop import KapingQA


def _qa(question):
    return P.qa_prompt(question)


class TestMemoization:
    def test_repeat_served_from_cache(self):
        ds = movie_kg(seed=0)
        llm = CachingLLM(load_model("chatgpt", world=ds.kg, seed=0))
        first = llm.complete(_qa("Who directed movie_0?"))
        calls_after_first = llm.inner.calls
        second = llm.complete(_qa("Who directed movie_0?"))
        assert second.text == first.text
        assert second.total_tokens == first.total_tokens
        assert llm.inner.calls == calls_after_first  # no recompute
        stats = llm.cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)

    def test_identical_to_uncached_model(self):
        ds = movie_kg(seed=0)
        plain = load_model("chatgpt", world=ds.kg, seed=0)
        cached = CachingLLM(load_model("chatgpt", world=ds.kg, seed=0))
        prompts = [_qa(f"Who directed movie_{i % 3}?") for i in range(9)]
        assert [cached.complete(p).text for p in prompts] == \
            [plain.complete(p).text for p in prompts]

    def test_max_tokens_is_part_of_the_key(self):
        llm = CachingLLM(load_model("chatgpt", seed=0))
        llm.complete("Task: chat\nUser: hi", max_tokens=256)
        llm.complete("Task: chat\nUser: hi", max_tokens=16)
        assert llm.cache_stats()["misses"] == 2

    def test_returns_copies_not_the_cached_object(self):
        llm = CachingLLM(load_model("chatgpt", seed=0))
        first = llm.complete("Task: chat\nUser: hi")
        first.text = "mutated"
        second = llm.complete("Task: chat\nUser: hi")
        assert second.text != "mutated"

    def test_delegates_non_inference_attributes(self):
        ds = movie_kg(seed=0)
        llm = CachingLLM(load_model("chatgpt", world=ds.kg, seed=0))
        assert llm.find_relations("who directed this") == \
            llm.inner.find_relations("who directed this")
        assert llm.config.name == "chatgpt"


class TestLRU:
    def test_eviction_discards_least_recently_used(self):
        llm = CachingLLM(load_model("chatgpt", seed=0), max_size=2)
        a, b, c = ("Task: chat\nUser: a", "Task: chat\nUser: b",
                   "Task: chat\nUser: c")
        llm.complete(a)
        llm.complete(b)
        llm.complete(a)          # refresh a; b is now LRU
        llm.complete(c)          # evicts b
        assert llm.cache_stats()["evictions"] == 1
        calls = llm.inner.calls
        llm.complete(a)          # still cached
        assert llm.inner.calls == calls
        llm.complete(b)          # evicted → recomputed
        assert llm.inner.calls == calls + 1

    def test_max_size_validated(self):
        with pytest.raises(ValueError):
            CachingLLM(load_model("chatgpt", seed=0), max_size=0)


class TestChatRouting:
    def test_chat_shares_cache_with_complete(self):
        ds = movie_kg(seed=0)
        llm = CachingLLM(load_model("chatgpt", world=ds.kg, seed=0))
        prompt = _qa("Who directed movie_0?")
        via_complete = llm.complete(prompt)
        via_chat = llm.chat([ChatMessage("user", prompt)])
        assert via_chat.text == via_complete.text
        assert llm.cache_stats()["hits"] == 1

    def test_chat_matches_unwrapped_chat(self):
        plain = load_model("chatgpt", seed=0)
        cached = CachingLLM(load_model("chatgpt", seed=0))
        messages = [ChatMessage("user", "hello there")]
        assert cached.chat(messages).text == plain.chat(messages).text


class TestFaultComposability:
    def test_faults_are_never_cached(self):
        # Outage on call 0 only: first attempt raises, the retry succeeds
        # and only then is the completion memoized.
        inner = load_model("chatgpt", seed=0)
        flaky = FaultInjectingLLM(inner, FaultProfile(outages=((0, 1),)))
        llm = CachingLLM(flaky)
        with pytest.raises(LLMTimeoutError):
            llm.complete("Task: chat\nUser: hi")
        assert llm.cache_stats()["size"] == 0
        retry = llm.complete("Task: chat\nUser: hi")
        assert retry.text
        assert llm.cache_stats()["size"] == 1

    def test_cache_hits_bypass_the_fault_schedule(self):
        # Cache in front of a flaky API: the repeat never reaches the
        # fault layer, so its call counter does not advance.
        inner = load_model("chatgpt", seed=0)
        flaky = FaultInjectingLLM(inner, FaultProfile())
        llm = CachingLLM(flaky)
        llm.complete("Task: chat\nUser: hi")
        assert flaky.fault_calls == 1
        llm.complete("Task: chat\nUser: hi")
        assert flaky.fault_calls == 1

    def test_fault_layer_in_front_of_cache_still_faults(self):
        # Shared cache behind a per-request fault boundary: repeats hit
        # the cache only when the fault schedule lets the call through.
        inner = load_model("chatgpt", seed=0)
        llm = FaultInjectingLLM(CachingLLM(inner),
                                FaultProfile(outages=((1, 2),)))
        llm.complete("Task: chat\nUser: hi")
        with pytest.raises(LLMTransientError):
            llm.complete("Task: chat\nUser: hi")
        response = llm.complete("Task: chat\nUser: hi")
        assert response.text
        assert llm.inner.cache_stats()["hits"] == 1


class TestMaybeCached:
    def test_falsy_returns_model_unwrapped(self):
        llm = load_model("chatgpt", seed=0)
        assert maybe_cached(llm, False) is llm
        assert maybe_cached(llm, 0) is llm
        assert maybe_cached(llm, None) is llm

    def test_true_wraps_with_default_size(self):
        wrapped = maybe_cached(load_model("chatgpt", seed=0), True)
        assert isinstance(wrapped, CachingLLM)
        assert wrapped.max_size == DEFAULT_CACHE_SIZE

    def test_int_sets_the_size(self):
        wrapped = maybe_cached(load_model("chatgpt", seed=0), 7)
        assert isinstance(wrapped, CachingLLM)
        assert wrapped.max_size == 7


class TestPipelineWiring:
    def test_naive_rag_cache_knob(self):
        ds = enterprise_kg(seed=0)
        llm = load_model("chatgpt", world=ds.kg, seed=0)
        rag = NaiveRAG(llm, cache=True)
        rag.index_documents(ds.metadata["documents"])
        question = "Who manages the engineering department?"
        first = rag.answer(question)
        calls = llm.calls
        assert rag.answer(question) == first
        assert llm.calls == calls
        assert rag.llm.cache_stats()["hits"] >= 1

    def test_naive_rag_default_is_uncached(self):
        ds = enterprise_kg(seed=0)
        llm = load_model("chatgpt", world=ds.kg, seed=0)
        rag = NaiveRAG(llm)
        assert rag.llm is llm

    def test_graph_rag_cache_knob(self):
        ds = movie_kg(seed=0)
        llm = load_model("chatgpt", world=ds.kg, seed=0)
        rag = GraphRAG(llm, ds.kg, cache=64)
        rag.build()
        question = "What are the main themes of this dataset?"
        first = rag.answer_global(question)
        calls = llm.calls
        assert rag.answer_global(question) == first
        assert llm.calls == calls

    def test_kaping_cache_knob(self):
        ds = movie_kg(seed=0)
        llm = load_model("chatgpt", world=ds.kg, seed=0)
        qa = KapingQA(llm, ds.kg, cache=True)
        question = "Who directed movie_0?"
        first = qa.answer(question)
        calls = llm.calls
        assert qa.answer(question) == first
        assert llm.calls == calls
