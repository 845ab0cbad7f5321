"""Fuzz tests: adversarial inputs must raise typed errors, never crash.

The library's contract everywhere is "typed exception or valid result" —
malformed SPARQL raises :class:`SparqlParseError`, arbitrary prompts get a
text completion, arbitrary store mutations keep the indexes coherent.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kg.datasets import movie_kg
from repro.kg.triples import IRI, Triple
from repro.llm import (
    FaultInjectingLLM,
    FaultProfile,
    LLMConfig,
    LLMResponse,
    LLMTransientError,
    SimulatedLLM,
    drain_stream_partial,
    load_model,
)
from repro.llm import prompts as P
from repro.sparql import SparqlEngine, SparqlParseError, parse_query
from repro.sparql.cypher import CypherParseError, cypher_to_sparql

_SPARQL_TOKENS = [
    "SELECT", "ASK", "WHERE", "FILTER", "OPTIONAL", "UNION", "DISTINCT",
    "ORDER", "BY", "LIMIT", "{", "}", "(", ")", ".", ";", ",", "*", "+",
    "?x", "?y", "<http://x/p>", '"lit"', "42", "=", "!=", "&&", "a",
]


@settings(max_examples=120, deadline=None)
@given(tokens=st.lists(st.sampled_from(_SPARQL_TOKENS), max_size=15))
def test_parser_token_soup_never_crashes(tokens):
    text = " ".join(tokens)
    try:
        parse_query(text)
    except SparqlParseError:
        pass  # the only acceptable failure mode


@settings(max_examples=80, deadline=None)
@given(text=st.text(max_size=60))
def test_parser_arbitrary_text_never_crashes(text):
    try:
        parse_query(text)
    except SparqlParseError:
        pass


@settings(max_examples=60, deadline=None)
@given(text=st.text(max_size=60))
def test_cypher_translator_never_crashes(text):
    try:
        cypher_to_sparql(text)
    except CypherParseError:
        pass


class TestEngineFuzz:
    @pytest.fixture(scope="class")
    def engine(self):
        return SparqlEngine(movie_kg(seed=1).kg.store)

    @settings(max_examples=60, deadline=None)
    @given(tokens=st.lists(st.sampled_from(_SPARQL_TOKENS), max_size=12))
    def test_execute_valid_or_typed_error(self, engine, tokens):
        text = " ".join(tokens)
        try:
            result = engine.execute(text)
        except SparqlParseError:
            return
        assert isinstance(result, (list, bool))


class TestLLMFuzz:
    @settings(max_examples=60, deadline=None)
    @given(prompt=st.text(max_size=200))
    def test_complete_always_returns_response(self, prompt):
        llm = SimulatedLLM(LLMConfig(seed=1))
        response = llm.complete(prompt)
        assert isinstance(response.text, str)
        assert response.prompt_tokens >= 0

    @settings(max_examples=40, deadline=None)
    @given(task=st.sampled_from([
        "entity extraction", "relation extraction", "fact verification",
        "question answering", "graph verbalization", "sparql generation",
        "question generation", "summarization", "rule mining", "chat",
    ]), body=st.text(max_size=100))
    def test_structured_prompts_with_garbage_bodies(self, task, body):
        llm = load_model("bert-base", world=movie_kg(seed=1).kg, seed=2)
        response = llm.complete(f"Task: {task}\nQuestion: {body}")
        assert isinstance(response.text, str)

    def test_empty_prompt(self):
        llm = SimulatedLLM(LLMConfig(seed=0))
        assert isinstance(llm.complete("").text, str)


_fault_profiles = st.builds(
    FaultProfile,
    timeout_rate=st.floats(min_value=0.0, max_value=0.25),
    rate_limit_rate=st.floats(min_value=0.0, max_value=0.25),
    truncation_rate=st.floats(min_value=0.0, max_value=0.25),
    malformed_rate=st.floats(min_value=0.0, max_value=0.25),
    burst_period=st.one_of(st.just(0), st.integers(min_value=2, max_value=7)),
    burst_length=st.integers(min_value=1, max_value=2),
    outages=st.lists(
        st.tuples(st.integers(min_value=0, max_value=6),
                  st.integers(min_value=0, max_value=6)).map(
            lambda w: (min(w), max(w) + 1)),
        max_size=2).map(tuple),
    retry_after=st.floats(min_value=0.1, max_value=10.0),
    timeout_latency=st.floats(min_value=0.1, max_value=60.0),
    seed=st.integers(min_value=0, max_value=2**16),
)


class TestFaultInjectionFuzz:
    @settings(max_examples=80, deadline=None)
    @given(profile=_fault_profiles, prompts=st.lists(st.text(max_size=80),
                                                     min_size=1, max_size=8))
    def test_calls_return_response_or_typed_transient_error(self, profile,
                                                            prompts):
        llm = FaultInjectingLLM(SimulatedLLM(LLMConfig(seed=1)), profile)
        for prompt in prompts:
            try:
                response = llm.complete(prompt)
            except LLMTransientError as exc:
                assert exc.kind in ("timeout", "rate_limit",
                                    "truncated", "malformed")
                continue
            assert isinstance(response, LLMResponse)
            assert isinstance(response.text, str)

    @settings(max_examples=40, deadline=None)
    @given(profile=_fault_profiles, prompt=st.text(max_size=60))
    def test_schedule_is_reproducible(self, profile, prompt):
        a = [profile.fault_for(i, prompt) for i in range(12)]
        b = [profile.fault_for(i, prompt) for i in range(12)]
        assert a == b


class TestStoreFuzzIntegration:
    def test_random_mutations_keep_dataset_queryable(self):
        ds = movie_kg(seed=5)
        engine = SparqlEngine(ds.kg.store)
        rng = random.Random(9)
        triples = list(ds.kg.store)
        for _ in range(200):
            triple = triples[rng.randrange(len(triples))]
            if rng.random() < 0.5:
                ds.kg.store.remove(triple)
            else:
                ds.kg.store.add(triple)
        rows = engine.select(
            "PREFIX s: <http://repro.dev/schema/> "
            "SELECT (COUNT(*) AS ?n) WHERE { ?m a s:Movie }")
        assert int(rows[0]["n"].lexical) >= 0
        # Index coherence after the mutation storm.
        for t in list(ds.kg.store)[:20]:
            assert ds.kg.store.match(t.subject, t.predicate, t.object)


# ---------------------------------------------------------------------------
# Batch encoding equivalence (the vectorized hot path)
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(texts=st.lists(st.text(max_size=40), max_size=12))
def test_encode_batch_equals_sequential_encode(texts):
    """The vectorized batch encoder is element-wise equal (within 1e-9) to
    encoding each text individually — for arbitrary text, including empty
    strings, repeated texts, unicode, and whitespace soup."""
    import numpy as np

    from repro.llm.embedding import TextEncoder

    encoder = TextEncoder(dim=24)
    batched = encoder.encode_batch(texts)
    assert batched.shape == (len(texts), 24)
    for i, text in enumerate(texts):
        assert np.abs(batched[i] - encoder.encode(text)).max() < 1e-9


@settings(max_examples=40, deadline=None)
@given(texts=st.lists(st.text(min_size=1, max_size=40), min_size=1,
                      max_size=8),
       corpus=st.lists(st.text(min_size=1, max_size=40), min_size=1,
                       max_size=5))
def test_encode_batch_equals_sequential_with_idf(texts, corpus):
    """Equivalence also holds with SIF token reweighting fitted."""
    import numpy as np

    from repro.llm.embedding import TextEncoder

    encoder = TextEncoder(dim=24).fit_idf(corpus)
    batched = encoder.encode_batch(texts)
    for i, text in enumerate(texts):
        assert np.abs(batched[i] - encoder.encode(text)).max() < 1e-9


class TestBatchEquivalenceFuzz:
    """``complete_batch(prompts)`` ≡ ``[complete(p) for p in prompts]``
    across the wrapper stack, for generated prompt lists, seeds and fault
    rates (satellite of the throughput work — see DESIGN "Throughput")."""

    @staticmethod
    def _drain_sequential(llm, prompts):
        results = []
        for prompt in prompts:
            try:
                results.append(llm.complete(prompt).text)
            except LLMTransientError as exc:
                results.append(("fault", exc.kind))
        return results

    @staticmethod
    def _drain_batched(llm, prompts):
        results = []
        i = 0
        while i < len(prompts):
            try:
                results.extend(r.text for r in llm.complete_batch(prompts[i:]))
                break
            except LLMTransientError as exc:
                prefix = getattr(exc, "batch_prefix", ())
                results.extend(r.text for r in prefix)
                results.append(("fault", exc.kind))
                i += len(prefix) + 1
        return results

    @settings(max_examples=50, deadline=None)
    @given(prompts=st.lists(st.text(max_size=60), max_size=10),
           seed=st.integers(min_value=0, max_value=2**10))
    def test_simulated_llm_batch_equivalence(self, prompts, seed):
        from repro.llm.caching import CachingLLM

        a = CachingLLM(SimulatedLLM(LLMConfig(seed=seed)))
        b = CachingLLM(SimulatedLLM(LLMConfig(seed=seed)))
        assert self._drain_sequential(a, prompts) == \
            self._drain_batched(b, prompts)
        assert a.cache_stats() == b.cache_stats()

    @settings(max_examples=50, deadline=None)
    @given(prompts=st.lists(st.text(max_size=60), max_size=10),
           seed=st.integers(min_value=0, max_value=2**10),
           rate=st.floats(min_value=0.0, max_value=0.6))
    def test_caching_over_faults_batch_equivalence(self, prompts, seed, rate):
        from repro.llm.caching import CachingLLM

        def build():
            return CachingLLM(FaultInjectingLLM(
                SimulatedLLM(LLMConfig(seed=seed)),
                FaultProfile.uniform(rate, seed=seed)))

        a, b = build(), build()
        assert self._drain_sequential(a, prompts) == \
            self._drain_batched(b, prompts)
        assert a.cache_stats() == b.cache_stats()
        assert a.inner.fault_log == b.inner.fault_log

    @settings(max_examples=50, deadline=None)
    @given(prompts=st.lists(st.text(max_size=60), max_size=10),
           seed=st.integers(min_value=0, max_value=2**10),
           rate=st.floats(min_value=0.0, max_value=0.6))
    def test_faults_over_caching_batch_equivalence(self, prompts, seed, rate):
        from repro.llm.caching import CachingLLM

        def build():
            return FaultInjectingLLM(
                CachingLLM(SimulatedLLM(LLMConfig(seed=seed))),
                FaultProfile.uniform(rate, seed=seed))

        a, b = build(), build()
        assert self._drain_sequential(a, prompts) == \
            self._drain_batched(b, prompts)
        assert a.fault_log == b.fault_log
        assert a.inner.cache_stats() == b.inner.cache_stats()


class TestStreamEquivalenceFuzz:
    """``"".join(complete_stream(p))`` ≡ ``complete(p).text`` for every
    task handler, seed and fault profile — same text, same fault kinds,
    same partial output, same usage (the streaming contract, DESIGN §11)."""

    #: One prompt builder per task handler plus the freeform fallback, so
    #: a single generated ``body`` exercises every routing branch.
    _TASK_PROMPTS = (
        lambda s: P.ner_prompt(s, ["person", "place"]),
        lambda s: P.relation_extraction_prompt(s, ["knows", "located in"]),
        lambda s: P.fact_check_prompt(s),
        lambda s: P.qa_prompt(s, facts=[s]),
        lambda s: P.kg2text_prompt([(s or "thing", "related to", "other")]),
        lambda s: P.sparql_prompt(s),
        lambda s: P.question_generation_prompt([(s or "a", "knows", "b")],
                                               answer=s or "a"),
        lambda s: P.summarization_prompt(s),
        lambda s: P.rule_mining_prompt([s or "knows", "parent"]),
        lambda s: P.chat_prompt(s),
        lambda s: s,  # freeform fallback
    )

    @staticmethod
    def _blob_outcome(llm, prompt):
        try:
            return ("ok", llm.complete(prompt).text)
        except LLMTransientError as exc:
            return ("fault", exc.kind, getattr(exc, "partial_text", None),
                    getattr(exc, "corrupted_text", None))

    @staticmethod
    def _stream_outcome(llm, prompt):
        try:
            stream = llm.complete_stream(prompt)
        except LLMTransientError as exc:
            return ("fault", exc.kind, getattr(exc, "partial_text", None),
                    getattr(exc, "corrupted_text", None))
        text, error = drain_stream_partial(stream)
        if error is None:
            return ("ok", text)
        assert isinstance(error, LLMTransientError)
        # A mid-stream fault delivered exactly the blob's partial text.
        assert text == error.partial_text
        return ("fault", error.kind, getattr(error, "partial_text", None),
                getattr(error, "corrupted_text", None))

    @settings(max_examples=40, deadline=None)
    @given(body=st.text(max_size=60),
           seed=st.integers(min_value=0, max_value=2**10))
    def test_every_task_handler_streams_identically(self, body, seed):
        for build in self._TASK_PROMPTS:
            prompt = build(body)
            blob = SimulatedLLM(LLMConfig(seed=seed))
            streamed = SimulatedLLM(LLMConfig(seed=seed))
            assert self._stream_outcome(streamed, prompt) == \
                self._blob_outcome(blob, prompt)
            assert streamed.usage == blob.usage

    @settings(max_examples=50, deadline=None)
    @given(profile=_fault_profiles,
           prompts=st.lists(st.text(max_size=60), min_size=1, max_size=8))
    def test_stream_equivalence_under_faults(self, profile, prompts):
        blob = FaultInjectingLLM(SimulatedLLM(LLMConfig(seed=1)), profile)
        streamed = FaultInjectingLLM(SimulatedLLM(LLMConfig(seed=1)),
                                     profile)
        for prompt in prompts:
            assert self._stream_outcome(streamed, prompt) == \
                self._blob_outcome(blob, prompt)
        assert streamed.fault_log == blob.fault_log
        assert streamed.inner.usage == blob.inner.usage

    @settings(max_examples=30, deadline=None)
    @given(prompts=st.lists(st.text(max_size=60), min_size=1, max_size=8),
           seed=st.integers(min_value=0, max_value=2**10),
           rate=st.floats(min_value=0.0, max_value=0.6))
    def test_caching_over_faults_stream_equivalence(self, prompts, seed,
                                                    rate):
        from repro.llm.caching import CachingLLM

        def build():
            return CachingLLM(FaultInjectingLLM(
                SimulatedLLM(LLMConfig(seed=seed)),
                FaultProfile.uniform(rate, seed=seed)))

        blob, streamed = build(), build()
        for prompt in prompts:
            assert self._stream_outcome(streamed, prompt) == \
                self._blob_outcome(blob, prompt)
        assert streamed.cache_stats() == blob.cache_stats()
        assert streamed.inner.fault_log == blob.inner.fault_log


class TestWalReplayEquivalence:
    """Property: snapshot + WAL replay reconstructs the in-memory store.

    For any interleaving of effective and no-op mutation batches with
    snapshot compactions, recovering the durable directory yields the same
    triples *and* the same version/LSN as the in-memory reference — and
    stays equivalent after arbitrary garbage is smeared over the log tail
    (the torn-write case: recovery truncates, never replays, damage).
    """

    POOL = [
        Triple(IRI(f"http://fuzz.repro.dev/s{i % 4}"),
               IRI(f"http://fuzz.repro.dev/p{i % 3}"),
               IRI(f"http://fuzz.repro.dev/o{i}"))
        for i in range(12)
    ]

    _indices = st.lists(st.integers(min_value=0, max_value=11),
                        min_size=1, max_size=4)
    _op = st.one_of(
        st.tuples(st.just("add"), _indices),
        st.tuples(st.just("remove"), _indices),
        st.tuples(st.just("clear"), st.just([])),
        st.tuples(st.just("snapshot"), st.just([])),
    )

    def _apply(self, store, ops, allow_snapshot):
        for kind, indices in ops:
            triples = [self.POOL[i] for i in indices]
            if kind == "add":
                store.add_all(triples)
            elif kind == "remove":
                store.remove_all(triples)
            elif kind == "clear":
                store.clear()
            elif allow_snapshot:
                store.snapshot()

    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(_op, max_size=20), garbage=st.binary(max_size=48))
    def test_recover_equals_in_memory_reference(self, ops, garbage):
        import os
        import shutil
        import tempfile

        from repro.kg.store import TripleStore
        from repro.kg.wal import WAL_FILENAME, DurableTripleStore, recover

        directory = tempfile.mkdtemp(prefix="wal-fuzz-")
        try:
            durable = DurableTripleStore(directory)
            reference = TripleStore()
            self._apply(durable, ops, allow_snapshot=True)
            self._apply(reference, ops, allow_snapshot=False)
            assert set(durable) == set(reference)
            assert durable.version == reference.version
            durable.close()

            recovered = recover(directory)
            assert set(recovered) == set(reference)
            assert recovered.version == reference.version
            recovered.close()

            # Torn tail: smear bytes over the log, recover again.
            with open(os.path.join(directory, WAL_FILENAME), "ab") as handle:
                handle.write(garbage)
            again = recover(directory)
            assert set(again) == set(reference)
            assert again.version == reference.version
            again.close()
        finally:
            shutil.rmtree(directory, ignore_errors=True)


class TestShardedEquivalenceFuzz:
    """Property: ShardedTripleStore ≡ TripleStore under any mutation
    history, at every tested shard count — same triples, same iteration
    order, same index-derived reads. This is the sharding façade's whole
    contract (DESIGN §10); the unit suite checks curated cases, this
    drives generated ones."""

    POOL = [
        Triple(IRI(f"http://fuzz.repro.dev/s{i % 5}"),
               IRI(f"http://fuzz.repro.dev/p{i % 3}"),
               IRI(f"http://fuzz.repro.dev/o{i % 7}"))
        for i in range(12)
    ]

    _indices = st.lists(st.integers(min_value=0, max_value=11),
                        min_size=1, max_size=4)
    _op = st.one_of(
        st.tuples(st.just("add"), _indices),
        st.tuples(st.just("remove"), _indices),
        st.tuples(st.just("clear"), st.just([])),
    )

    def _apply(self, store, ops):
        for kind, indices in ops:
            triples = [self.POOL[i] for i in indices]
            if kind == "add":
                store.add_all(triples)
            elif kind == "remove":
                store.remove_all(triples)
            else:
                store.clear()

    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(_op, max_size=16),
           shards=st.sampled_from([1, 2, 4, 7]))
    def test_sharded_store_equals_plain_store(self, ops, shards):
        from repro.kg.sharding import ShardedTripleStore
        from repro.kg.store import TripleStore

        sharded = ShardedTripleStore(shards=shards)
        reference = TripleStore()
        self._apply(sharded, ops)
        self._apply(reference, ops)

        assert list(sharded) == list(reference)  # membership AND order
        assert sharded.version == reference.version
        assert sharded.relations() == reference.relations()
        assert sharded.subjects() == reference.subjects()
        assert sharded.objects() == reference.objects()
        assert sharded.stats() == reference.stats()
        for p in reference.relations():
            assert sharded.match(None, p, None) == \
                reference.match(None, p, None)
            assert sharded.subjects(p) == reference.subjects(p)
        for t in self.POOL[:4]:
            assert sharded.match(t.subject, None, None) == \
                reference.match(t.subject, None, None)
            assert sharded.match(None, None, t.object) == \
                reference.match(None, None, t.object)


class TestDurableShardedByteIdentityFuzz:
    """Property: the sharded durable store *is* the flat durable store on
    disk. For any add/remove/clear history and any ``snapshot_every``, a
    ``DurableShardedTripleStore`` at k ∈ {1, 2, 4, 7} shards writes
    ``wal.log`` and ``snapshot.nt`` byte-identical to ``DurableTripleStore``,
    and the directory recovers to the same triples, order and version
    under any shard count and under the flat class."""

    POOL = TestShardedEquivalenceFuzz.POOL
    _op = TestShardedEquivalenceFuzz._op

    @staticmethod
    def _files(directory):
        """``{file name: bytes or None}`` for the log and the snapshot."""
        from pathlib import Path

        from repro.kg.wal import SNAPSHOT_FILENAME, WAL_FILENAME
        paths = (Path(directory) / name
                 for name in (WAL_FILENAME, SNAPSHOT_FILENAME))
        return {path.name: path.read_bytes() if path.exists() else None
                for path in paths}

    @settings(max_examples=40, deadline=None)
    @given(ops=st.lists(_op, max_size=16),
           snapshot_every=st.one_of(st.none(),
                                    st.integers(min_value=1, max_value=5)),
           recover_shards=st.sampled_from([1, 3, 8]))
    def test_sharded_files_equal_flat_files(self, ops, snapshot_every,
                                            recover_shards):
        import os
        import shutil
        import tempfile

        from repro.kg.sharding import DurableShardedTripleStore
        from repro.kg.wal import DurableTripleStore, recover

        apply = TestShardedEquivalenceFuzz._apply
        root = tempfile.mkdtemp(prefix="wal-bytes-")
        try:
            flat_dir = os.path.join(root, "flat")
            flat = DurableTripleStore(flat_dir, snapshot_every=snapshot_every)
            apply(self, flat, ops)
            flat.close()
            expected = self._files(flat_dir)
            for shards in (1, 2, 4, 7):
                directory = os.path.join(root, f"k{shards}")
                store = DurableShardedTripleStore(
                    directory, shards=shards, snapshot_every=snapshot_every)
                apply(self, store, ops)
                store.close()
                assert self._files(directory) == expected
                for recovered in (recover(directory),
                                  recover(directory, shards=recover_shards),
                                  DurableTripleStore(directory)):
                    assert list(recovered) == list(flat)
                    assert recovered.version == flat.version
                    recovered.close()
        finally:
            shutil.rmtree(root, ignore_errors=True)


class TestAgentFuzz:
    """Any seed × fault profile × step budget: the agent terminates
    inside the budget, replays byte-identically at worker counts 1 and
    4, and consumes fault-schedule indices exactly like a non-agent
    caller issuing the same prompts through plain ``complete``."""

    DATASET = None

    @classmethod
    def _dataset(cls):
        if cls.DATASET is None:
            cls.DATASET = movie_kg(seed=0)
        return cls.DATASET

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16),
           profile=_fault_profiles,
           budget=st.integers(min_value=1, max_value=10))
    def test_budget_and_worker_determinism(self, seed, profile, budget):
        from repro.agent import GraphAgent
        from repro.core.executor import ParallelExecutor
        from repro.qa.multihop import generate_multihop_questions

        dataset = self._dataset()
        question = generate_multihop_questions(
            dataset, n=1, hops=2, seed=seed % 7)[0].text
        dicts = []
        fault_logs = []
        for workers in (1, 4):
            inner = load_model("chatgpt", world=dataset.kg, seed=seed)
            llm = FaultInjectingLLM(inner, profile)
            agent = GraphAgent(llm, dataset.kg, max_steps=budget,
                               executor=ParallelExecutor(
                                   max_workers=workers))
            trace = agent.run(question)
            assert len(trace.steps) <= budget
            assert trace.stop_reason in ("final", "budget")
            assert isinstance(trace.final_answer, str)
            assert trace.degraded == any(s.fault for s in trace.steps)
            dicts.append(trace.to_dict())
            fault_logs.append(list(llm.fault_log))
        assert dicts[0] == dicts[1]
        assert fault_logs[0] == fault_logs[1]

        # Exactly-once fault composition: a plain `complete` replay of
        # the agent's prompt sequence through a fresh identical stack
        # consumes the same schedule indices.
        inner = load_model("chatgpt", world=dataset.kg, seed=seed)
        replay = FaultInjectingLLM(inner, profile)
        for prompt in dicts[0]["steps"]:
            try:
                replay.complete(prompt["prompt"])
            except LLMTransientError:
                pass
        assert replay.fault_log == fault_logs[0]


class TestReplicatedEquivalenceFuzz:
    """Property: for every partition schedule that leaves at least one
    live replica per shard, ReplicatedShardedTripleStore reads are
    indistinguishable from a flat TripleStore — no unavailability, no
    stale refusals, identical results — at replica counts 1, 2 and 3.
    This is the availability contract the chaos suite gates on curated
    schedules; here Hypothesis drives the schedule space."""

    CORPUS = [
        Triple(IRI(f"http://fuzz.repro.dev/node{i % 9}"),
               IRI(f"http://fuzz.repro.dev/rel{i % 4}"),
               IRI(f"http://fuzz.repro.dev/val{i % 6}"))
        for i in range(30)
    ]

    @staticmethod
    @st.composite
    def _schedules(draw):
        replicas = draw(st.sampled_from([1, 2, 3]))
        shards = draw(st.sampled_from([2, 3, 4]))
        # One bitmask per shard over its replicas; excluding the
        # all-ones mask is exactly the ">=1 live replica" constraint.
        masks = draw(st.lists(
            st.integers(min_value=0, max_value=2 ** replicas - 2),
            min_size=shards, max_size=shards))
        return replicas, shards, masks

    @settings(max_examples=50, deadline=None)
    @given(schedule=_schedules(), seed=st.integers(min_value=0,
                                                   max_value=2 ** 16),
           tail_rate=st.sampled_from([0.0, 0.1, 0.3]))
    def test_replicated_reads_equal_flat_reads(self, schedule, seed,
                                               tail_rate):
        from repro.kg.replication import (
            ReplicatedShardedTripleStore,
            TransportProfile,
        )
        from repro.kg.store import TripleStore

        replicas, shards, masks = schedule
        reference = TripleStore(self.CORPUS)
        store = ReplicatedShardedTripleStore(
            self.CORPUS, shards=shards, replicas=replicas,
            profile=TransportProfile(seed=seed, tail_rate=tail_rate))
        for shard, mask in enumerate(masks):
            for replica in range(replicas):
                if mask & (1 << replica):
                    store.transport.force_partition(shard, replica)

        for subject in sorted({t.subject for t in self.CORPUS},
                              key=lambda term: term.value):
            assert store.match(subject, None, None) == \
                reference.match(subject, None, None)
        for predicate in sorted(reference.relations(),
                                key=lambda term: term.value):
            assert store.match(None, predicate, None) == \
                reference.match(None, predicate, None)
        assert store.match_count(None, None, None) == len(reference)
        # Partitions never made a read degrade: no shard lost all its
        # replicas, and partitions alone cannot create staleness.
        assert store.unavailable == 0
        assert store.stale_rejections == 0
