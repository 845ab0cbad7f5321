"""complete_batch across the wrapper stack: equivalence, dedup, faults.

Only the model batches (it dedups repeated prompts); every wrapper
completes a batch by looping over its own ``complete``. The contract under
test (see DESIGN "Throughput"): on every stack, ``complete_batch(prompts)``
on a fresh stack is observably equivalent to ``[complete(p) for p in
prompts]`` on a twin — same responses or the same fault, same usage
counters, cache counters and fault log — so pipelines can batch without
changing a single observable result.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm import load_model
from repro.llm import prompts as P
from repro.llm.batch import resilient_complete_all
from repro.llm.caching import CachingLLM
from repro.llm.faults import FaultInjectingLLM, FaultProfile, LLMTransientError
from repro.llm.model import complete_all
from repro.core.resilience import RetryPolicy

PROMPTS = [
    "Question: Who founded Acme Corp?\nAnswer:",
    "Summarize: The quick brown fox jumps over the lazy dog.",
    "Question: Who founded Acme Corp?\nAnswer:",
    "Extract entities of types [person] from the sentence: Alice met Bob.",
    "Question: Where is Beta Inc based?\nAnswer:",
    "Question: Who founded Acme Corp?\nAnswer:",
]


def _llm(**overrides):
    return load_model("chatgpt", seed=0, **overrides)


def _usage(llm):
    return (llm.calls, llm.prompt_tokens, llm.completion_tokens)


def _run_sequential(stack, prompts):
    """The reference: ``complete`` per prompt, stopping at the first
    fault. Returns the texts, or the fault as (type, call index)."""
    texts = []
    for prompt in prompts:
        try:
            texts.append(stack.complete(prompt).text)
        except LLMTransientError as error:
            return None, (type(error).__name__, error.call_index)
    return texts, None


def _run_batched(stack, prompts):
    try:
        return [r.text for r in stack.complete_batch(prompts)], None
    except LLMTransientError as error:
        return None, (type(error).__name__, error.call_index)


class TestSimulatedLLMBatch:
    def test_equivalent_to_complete_loop(self):
        a, b = _llm(), _llm()
        sequential = [a.complete(p) for p in PROMPTS]
        batched = b.complete_batch(PROMPTS)
        assert [r.text for r in sequential] == [r.text for r in batched]
        assert [r.prompt_tokens for r in sequential] == \
            [r.prompt_tokens for r in batched]
        assert _usage(a) == _usage(b)

    def test_dedup_counter_counts_repeats(self):
        llm = _llm()
        llm.complete_batch(PROMPTS)
        assert llm.batch_dedup_hits == len(PROMPTS) - len(set(PROMPTS))

    def test_empty_batch(self):
        assert _llm().complete_batch([]) == []

    def test_each_occurrence_gets_its_own_response_object(self):
        responses = _llm().complete_batch([PROMPTS[0], PROMPTS[0]])
        assert responses[0] is not responses[1]
        assert responses[0].text == responses[1].text

    def test_complete_all_falls_back_without_complete_batch(self):
        class Plain:
            def __init__(self):
                self.inner = _llm()

            def complete(self, prompt, max_tokens=256):
                return self.inner.complete(prompt, max_tokens=max_tokens)

        plain, reference = Plain(), _llm()
        texts = [r.text for r in complete_all(plain, PROMPTS)]
        assert texts == [reference.complete(p).text for p in PROMPTS]


class TestCachingLLMBatch:
    def test_one_pass_equals_sequential(self):
        a = CachingLLM(_llm())
        b = CachingLLM(_llm())
        sequential = [a.complete(p) for p in PROMPTS]
        batched = b.complete_batch(PROMPTS)
        assert [r.text for r in sequential] == [r.text for r in batched]
        assert a.cache_stats() == b.cache_stats()
        assert list(a._cache) == list(b._cache)  # identical LRU order
        assert a.inner.calls == b.inner.calls

    @pytest.mark.parametrize("max_size", [1, 2, 3, 7])
    def test_eviction_inside_batch_matches_sequential(self, max_size):
        # The hard case: the batch's own inserts evict a planned hit, so a
        # naive pre-batch plan would misclassify it. Sequential truth:
        a = CachingLLM(_llm(), max_size=max_size)
        b = CachingLLM(_llm(), max_size=max_size)
        warm = PROMPTS[: max_size + 1]
        for p in warm:
            a.complete(p)
        b.complete_batch(warm)
        trace = [PROMPTS[3], PROMPTS[0], PROMPTS[4], PROMPTS[0], PROMPTS[1]]
        sequential = [a.complete(p).text for p in trace]
        batched = [r.text for r in b.complete_batch(trace)]
        assert sequential == batched
        assert a.cache_stats() == b.cache_stats()
        assert list(a._cache) == list(b._cache)

    def test_batch_hits_skip_inner_entirely(self):
        cached = CachingLLM(_llm())
        cached.complete_batch(PROMPTS)
        inner_calls = cached.inner.calls
        cached.complete_batch(PROMPTS)
        assert cached.inner.calls == inner_calls

    def test_thread_hammer_is_safe_and_complete(self):
        cached = CachingLLM(_llm(), max_size=8)
        errors = []

        def hammer(worker):
            try:
                for i in range(60):
                    prompt = PROMPTS[(worker + i) % len(PROMPTS)]
                    first = cached.complete(prompt).text
                    second = cached.complete(prompt).text
                    assert first == second
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(w,))
                   for w in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = cached.cache_stats()
        assert stats["hits"] + stats["misses"] == 6 * 60 * 2
        # Values stay pure whatever the interleaving was:
        reference = _llm()
        for p in set(PROMPTS):
            assert cached.complete(p).text == reference.complete(p).text


class TestFaultInjectingBatch:
    def test_schedule_is_identical_under_batching(self):
        def build():
            return FaultInjectingLLM(_llm(), FaultProfile.uniform(0.3, seed=1))

        a, b = build(), build()
        trace = PROMPTS * 3
        assert _run_batched(b, trace) == _run_sequential(a, trace)
        assert a.fault_log == b.fault_log
        assert a.faults_injected == b.faults_injected
        assert _usage(a.inner) == _usage(b.inner)

    def test_clean_prefix_reaches_inner_before_fault(self):
        # A faulting batch still completes the clean prompts before the
        # fault upstream, so a cache behind the fault layer keeps them,
        # exactly as a sequential caller's cache would.
        trace = PROMPTS * 2
        profile = FaultProfile.uniform(0.5, seed=2)
        sequential = FaultInjectingLLM(CachingLLM(_llm()), profile)
        batched = FaultInjectingLLM(CachingLLM(_llm()), profile)
        texts, fault = _run_sequential(sequential, trace)
        assert fault is not None, "expected a fault at rate 0.5 over 12 prompts"
        assert _run_batched(batched, trace) == (texts, fault)
        assert list(batched.inner._cache) == list(sequential.inner._cache)
        assert batched.inner.cache_stats()["misses"] > 0

    def test_clean_profile_batches_transparently(self):
        llm = FaultInjectingLLM(_llm(), FaultProfile())
        reference = _llm()
        assert [r.text for r in llm.complete_batch(PROMPTS)] == \
            [reference.complete(p).text for p in PROMPTS]
        assert all(kind == "ok" for _, kind in llm.fault_log)
        # The clean run reached the model as one batch, so it deduped:
        assert llm.inner.batch_dedup_hits == len(PROMPTS) - len(set(PROMPTS))


class TestWrapperCompositions:
    def test_caching_over_faults(self):
        def build():
            return CachingLLM(FaultInjectingLLM(
                _llm(), FaultProfile.uniform(0.25, seed=3)))

        a, b = build(), build()
        trace = PROMPTS * 2
        assert _run_batched(b, trace) == _run_sequential(a, trace)
        assert a.cache_stats() == b.cache_stats()
        assert a.inner.fault_log == b.inner.fault_log

    def test_faults_over_caching(self):
        def build():
            return FaultInjectingLLM(
                CachingLLM(_llm()), FaultProfile.uniform(0.25, seed=4))

        a, b = build(), build()
        trace = PROMPTS * 2
        assert _run_batched(b, trace) == _run_sequential(a, trace)
        assert a.fault_log == b.fault_log
        assert a.inner.cache_stats() == b.inner.cache_stats()


class TestResilientCompleteAll:
    def test_healthy_model_uses_one_batch(self):
        llm = _llm()
        outcomes = resilient_complete_all(llm, PROMPTS)
        assert all(o.ok for o in outcomes)
        reference = _llm()
        assert [o.response.text for o in outcomes] == \
            [reference.complete(p).text for p in PROMPTS]

    def test_faults_are_isolated_per_prompt(self):
        llm = FaultInjectingLLM(_llm(), FaultProfile.uniform(0.4, seed=5))
        outcomes = resilient_complete_all(llm, PROMPTS * 2)
        assert len(outcomes) == len(PROMPTS) * 2
        assert any(o.ok for o in outcomes)
        for outcome in outcomes:
            if not outcome.ok:
                assert isinstance(outcome.error, LLMTransientError)

    def test_retry_policy_recovers_transients(self):
        llm = FaultInjectingLLM(_llm(), FaultProfile.uniform(0.4, seed=5))
        retry = RetryPolicy(max_attempts=5, retry_on=(LLMTransientError,))
        outcomes = resilient_complete_all(llm, PROMPTS, retry=retry)
        recovered = [o for o in outcomes if o.ok and o.attempts > 1]
        assert all(o.ok for o in outcomes) or \
            any(o.attempts > 1 for o in outcomes)
        assert len(outcomes) == len(PROMPTS)
        # attempts are tracked for the post-mortem:
        for o in recovered:
            assert o.attempts >= 2

    def test_empty_prompt_list(self):
        assert resilient_complete_all(_llm(), []) == []


# ---------------------------------------------------------------------------
# The stack property: batch == sequential on every wrapper composition
# ---------------------------------------------------------------------------

#: A prompt pool over several task handlers plus free text; drawing lists
#: from it gives batches with repeats (dedup, cache hits) by construction.
POOL = PROMPTS[:2] + [
    P.ner_prompt("Alice met Bob in Paris.", ["person", "place"]),
    P.fact_check_prompt("Paris is located in France."),
    P.qa_prompt("Who founded Acme Corp?", facts=["Alice founded Acme Corp."]),
    P.summarization_prompt("Acme Corp makes anvils and rockets."),
    P.chat_prompt("hello there"),
]

#: Every composition the repo builds: name -> builder(model, size, profile).
STACKS = {
    "bare": lambda llm, size, profile: llm,
    "caching": lambda llm, size, profile: CachingLLM(llm, max_size=size),
    "faults": lambda llm, size, profile: FaultInjectingLLM(llm, profile),
    "caching_over_faults": lambda llm, size, profile: CachingLLM(
        FaultInjectingLLM(llm, profile), max_size=size),
    "faults_over_caching": lambda llm, size, profile: FaultInjectingLLM(
        CachingLLM(llm, max_size=size), profile),
}


def _stack_state(stack):
    """Every layer's observable counters, walking ``.inner`` links."""
    state = {}
    layer = stack
    while layer is not None:
        if isinstance(layer, FaultInjectingLLM):
            state["fault_log"] = list(layer.fault_log)
        elif isinstance(layer, CachingLLM):
            state["cache"] = layer.cache_stats()
        else:
            state["usage"] = layer.usage
        layer = vars(layer).get("inner")
    return state


class TestStackEquivalenceProperty:
    """``complete_batch`` on a fresh stack matches the sequential loop on
    a twin: the same texts or the same fault at the same call, and equal
    fault logs, cache counters and model usage afterwards."""

    @settings(max_examples=100, deadline=None)
    @given(stack=st.sampled_from(sorted(STACKS)),
           prompts=st.lists(st.sampled_from(POOL), max_size=12),
           max_size=st.integers(min_value=1, max_value=4),
           rate=st.floats(min_value=0.0, max_value=0.5),
           seed=st.integers(min_value=0, max_value=2**10))
    def test_batch_matches_sequential(self, stack, prompts, max_size, rate,
                                      seed):
        def build():
            return STACKS[stack](load_model("chatgpt", seed=seed), max_size,
                                 FaultProfile.uniform(rate, seed=seed))

        reference, batched = build(), build()
        assert _run_batched(batched, prompts) == \
            _run_sequential(reference, prompts)
        assert _stack_state(batched) == _stack_state(reference)
