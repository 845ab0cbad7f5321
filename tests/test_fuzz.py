"""Fuzz tests: adversarial inputs must raise typed errors, never crash.

The library's contract everywhere is "typed exception or valid result" —
malformed SPARQL raises :class:`SparqlParseError`, arbitrary prompts get a
text completion, arbitrary store mutations keep the indexes coherent.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kg.datasets import movie_kg
from repro.kg.indexes import NUMERIC_DATATYPES
from repro.kg.triples import IRI, Literal, Triple
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
from repro.sparql import algebra as alg
from repro.sparql.cypher import CypherParseError, cypher_to_sparql
from tests.llm.test_batching import _run_batched, _run_sequential

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
    """``complete_batch(prompts)`` on a fresh stack ≡ ``[complete(p) for p
    in prompts]`` on a twin, stopping at the first fault, for arbitrary
    prompt text, seeds and fault rates (the pool-based property is
    ``tests/llm/test_batching.py::TestStackEquivalenceProperty``)."""

    @settings(max_examples=50, deadline=None)
    @given(prompts=st.lists(st.text(max_size=60), max_size=10),
           seed=st.integers(min_value=0, max_value=2**10))
    def test_simulated_llm_batch_equivalence(self, prompts, seed):
        from repro.llm.caching import CachingLLM

        a = CachingLLM(SimulatedLLM(LLMConfig(seed=seed)))
        b = CachingLLM(SimulatedLLM(LLMConfig(seed=seed)))
        assert _run_sequential(a, prompts) == _run_batched(b, prompts)
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
        assert _run_sequential(a, prompts) == _run_batched(b, prompts)
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
        assert _run_sequential(a, prompts) == _run_batched(b, prompts)
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


_ORACLE_NS = "http://fuzz.repro.dev/"
_ORACLE_WORDS = ("apple", "Apple", "pie", "graph", "Graph-store", "tea42", "x")
_ORACLE_VARS = ("?a", "?b", "?c")


def _oracle_iri(name):
    return IRI(_ORACLE_NS + name)


def _oracle_triples():
    """Random stores: every subject has a value, a label and a ``p0``
    edge to the next subject, plus random
    edges between a few subjects, extra labels built from a small
    vocabulary and extra numeric (or non-numeric) values."""
    from repro.kg.triples import RDFS, XSD, Literal

    subjects = [_oracle_iri(f"s{i}") for i in range(4)]
    subject = st.sampled_from(subjects)
    text = st.lists(st.sampled_from(_ORACLE_WORDS), min_size=1,
                    max_size=3).map(lambda words: Literal(" ".join(words)))
    number = st.one_of(
        st.integers(-3, 12).map(
            lambda n: Literal(str(n), datatype=XSD.integer)),
        st.sampled_from(["2.5", "7.0"]).map(
            lambda x: Literal(x, datatype=XSD.decimal)),
        st.just(Literal("n/a")))
    base = st.tuples(
        st.lists(number, min_size=4, max_size=4),
        st.lists(text, min_size=4, max_size=4),
    ).map(lambda t: [Triple(s, _oracle_iri("val"), n)
                     for s, n in zip(subjects, t[0])] +
          [Triple(s, RDFS.label, l) for s, l in zip(subjects, t[1])] +
          [Triple(s, _oracle_iri("p0"), subjects[(i + 1) % 4])
           for i, s in enumerate(subjects)])
    edge = st.tuples(
        subject, st.integers(0, 1).map(lambda i: _oracle_iri(f"p{i}")),
        st.one_of(subject,
                  st.integers(0, 2).map(lambda i: _oracle_iri(f"o{i}"))))
    label = st.tuples(subject, st.just(RDFS.label), text)
    value = st.tuples(subject, st.just(_oracle_iri("val")), number)
    extra = st.lists(st.one_of(edge, label, value).map(lambda t: Triple(*t)),
                     max_size=30)
    return st.tuples(base, extra).map(lambda t: t[0] + t[1])


def _oracle_bgp():
    # The literal constants may land in subject position, where they must
    # match nothing (and neither crash the planner nor reach a shard).
    node = st.sampled_from(
        _ORACLE_VARS + (f"<{_ORACLE_NS}s0>", f"<{_ORACLE_NS}s1>", '"x"', "3"))
    edge = st.tuples(
        node,
        st.sampled_from((f"<{_ORACLE_NS}p0>", f"<{_ORACLE_NS}p1>", "?p")),
        st.one_of(node, st.just(f"<{_ORACLE_NS}o0>")))
    label = st.tuples(
        st.sampled_from(_ORACLE_VARS),
        st.just("<http://www.w3.org/2000/01/rdf-schema#label>"),
        st.just("?l"))
    value = st.tuples(st.sampled_from(_ORACLE_VARS),
                      st.just(f"<{_ORACLE_NS}val>"), st.just("?v"))
    return st.lists(st.one_of(edge, label, value).map(" ".join),
                    min_size=1, max_size=3).map(" . ".join)


def _oracle_filter(draw, text):
    """``""`` or a FILTER whose conjuncts mention variables of ``text``
    (range comparisons on ``?v``, CONTAINS on ``?l``, ``?a != ?b``)."""
    number = st.integers(-2, 11).map(str)
    options = []
    if "?v" in text:
        options += [
            st.tuples(st.sampled_from((">=", ">", "<", "<=", "=")), number)
            .map(lambda t: f"?v {t[0]} {t[1]}"),
            number.map(lambda n: f"{n} < ?v")]
    if "?l" in text:
        options += [
            st.sampled_from(("app", "pie", "Graph", "tea42", "a b"))
            .map(lambda w: f'CONTAINS(?l, "{w}")'),
            st.just('CONTAINS(STR(?l), "graph")')]
    if "?a" in text and "?b" in text:
        options.append(st.just("?a != ?b"))
    if not options or not draw(st.booleans()):
        return ""
    conjunct = st.one_of(*options)
    expression = draw(st.one_of(
        st.lists(conjunct, min_size=1, max_size=3).map(" && ".join),
        st.tuples(conjunct, conjunct).map(lambda t: f"{t[0]} || {t[1]}")))
    return f" FILTER ({expression})"


@st.composite
def _oracle_group(draw):
    """A group body: a BGP, then maybe an OPTIONAL block, then maybe a
    two-way UNION, each group with a maybe-FILTER over its variables. The
    outer FILTER may name variables only the OPTIONAL binds."""
    bgp = draw(_oracle_bgp())
    optional = union = ""
    if draw(st.booleans()):
        inner = draw(_oracle_bgp())
        optional = f" OPTIONAL {{ {inner}{_oracle_filter(draw, inner)} }}"
    if draw(st.booleans()):
        left, right = draw(_oracle_bgp()), draw(_oracle_bgp())
        union = (f" {{ {left}{_oracle_filter(draw, left)} }} UNION "
                 f"{{ {right}{_oracle_filter(draw, right)} }}")
    body = bgp + optional + union
    return bgp + _oracle_filter(draw, body) + optional + union


class TestPlannerOracleFuzz:
    """Property: the cost planner returns exactly the parse-order
    oracle's rows. For random stores mixing IRIs, labels and numeric
    literals (so the FULLTEXT and NUMERIC access paths fire) and random
    BGP / FILTER / OPTIONAL / UNION queries, ``SparqlEngine(store)``
    results are multiset-equal to ``planner="parse"``'s and ASK answers
    are equal, on a flat store and on 2- and 4-shard stores. One engine
    answers every query of an example in turn, so plan state leaking
    from one call into the next would show as a wrong answer."""

    @staticmethod
    def _multiset(rows):
        from collections import Counter
        return Counter(tuple(sorted((k, repr(v)) for k, v in row.items()))
                       for row in rows)

    @settings(max_examples=80, deadline=None)
    @given(triples=_oracle_triples(),
           groups=st.lists(_oracle_group(), min_size=1, max_size=4),
           shards=st.sampled_from([0, 2, 4]))
    def test_cost_planner_equals_parse_oracle(self, triples, groups, shards):
        from repro.kg.sharding import ShardedTripleStore
        from repro.kg.store import TripleStore

        store = ShardedTripleStore(triples, shards=shards) if shards \
            else TripleStore(triples)
        engine = SparqlEngine(store)
        oracle = SparqlEngine(store, planner="parse")
        for group in groups:
            query = f"SELECT * WHERE {{ {group} }}"
            assert self._multiset(engine.select(query)) == \
                self._multiset(oracle.select(query)), query
        for group in groups:
            query = f"ASK {{ {group} }}"
            assert engine.ask(query) == oracle.ask(query), query


class _BruteForce:
    """A reference evaluator sharing nothing with the engine but the
    parser: each triple pattern is a nested loop over ``list(store)``,
    and the fuzz grammar's filter conjuncts (numeric ``< <= > >= =``,
    ``CONTAINS``, ``!=``) get plain-Python semantics, where an unbound
    variable or an ordering across types makes the conjunct false."""

    def __init__(self, store):
        self.triples = list(store)

    def rows(self, group, rows):
        filters = []
        for element in group.elements:
            if isinstance(element, alg.BGP):
                for pattern in element.patterns:
                    rows = [new for row in rows
                            for new in self._matches(row, pattern)]
            elif isinstance(element, alg.OptionalPattern):
                joined = []
                for row in rows:
                    joined.extend(self.rows(element.pattern, [dict(row)])
                                  or [row])
                rows = joined
            elif isinstance(element, alg.UnionPattern):
                rows = [new for alternative in element.alternatives
                        for new in self.rows(alternative,
                                             [dict(r) for r in rows])]
            elif isinstance(element, alg.Filter):
                filters.append(element.expression)
            else:
                rows = self.rows(element, rows)
        for expression in filters:
            rows = [row for row in rows if self._holds(expression, row)]
        return rows

    def _matches(self, row, pattern):
        slots = (pattern.subject, pattern.predicate, pattern.object)
        for triple in self.triples:
            new = dict(row)
            for slot, value in zip(slots, triple.as_tuple()):
                if isinstance(slot, alg.Var):
                    if new.setdefault(slot.name, value) != value:
                        break
                elif slot != value:
                    break
            else:
                yield new

    @staticmethod
    def _number(term):
        if isinstance(term, Literal) and term.datatype in NUMERIC_DATATYPES:
            try:
                return float(term.lexical)
            except ValueError:
                return None
        return None

    def _holds(self, expression, row):
        from repro.kg.triples import IRI
        if isinstance(expression, alg.BoolOp):
            left = self._holds(expression.left, row)
            right = self._holds(expression.right, row)
            return left and right if expression.op == "&&" else left or right
        if isinstance(expression, alg.FunctionCall):  # CONTAINS
            haystack, needle = expression.args
            if isinstance(haystack, alg.FunctionCall):  # STR(?l)
                haystack = haystack.args[0]
            value = row.get(haystack.var.name)
            if value is None:
                return False
            text = value.value if isinstance(value, IRI) else value.lexical
            return needle.term.lexical in text
        left, op, right = expression.left, expression.op, expression.right
        if op == "!=":  # ?a != ?b
            a, b = row.get(left.var.name), row.get(right.var.name)
            if a is None or b is None:
                return False

            def plain(term):
                if isinstance(term, IRI):
                    return "iri", term.value
                number = self._number(term)
                return ("number", number) if number is not None \
                    else ("text", term.lexical)
            return plain(a) != plain(b)
        if isinstance(left, alg.TermExpr):  # n OP ?v
            left, right = right, left
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}[op]
        value = self._number(row.get(left.var.name))
        if value is None:
            return False
        bound = float(right.term.lexical)
        return {"<": value < bound, "<=": value <= bound, ">": value > bound,
                ">=": value >= bound, "=": value == bound}[op]


@st.composite
def _store_and_groups(draw):
    """A random store, then groups: the oracle grammar's, and range
    groups whose bounds are values the store holds, so inclusive and
    exclusive bounds decide rows."""
    triples = draw(_oracle_triples())
    values = sorted({t.object.lexical for t in triples
                     if t.predicate == _oracle_iri("val")
                     and t.object.datatype is not None} or {"0"})
    bound = st.sampled_from(values)
    conjunct = st.one_of(
        st.tuples(st.sampled_from((">=", ">", "<", "<=", "=")), bound)
        .map(lambda t: f"?v {t[0]} {t[1]}"),
        st.tuples(bound, st.sampled_from((">=", ">", "<", "<=")))
        .map(lambda t: f"{t[0]} {t[1]} ?v"))
    ranged = st.tuples(
        st.sampled_from(_ORACLE_VARS), _oracle_bgp(),
        st.lists(conjunct, min_size=1, max_size=3),
    ).map(lambda t: f"{t[0]} <{_ORACLE_NS}val> ?v . {t[1]} "
                    f"FILTER ({' && '.join(t[2])})")
    groups = draw(st.lists(st.one_of(_oracle_group(), ranged),
                           min_size=1, max_size=4))
    return triples, groups


def _edge_cases():
    """A fixed store and groups for the cases random draws reach rarely:
    range bounds equal to stored values, and literal subjects (constant,
    or bound by an earlier pattern) on a constant-predicate pattern."""
    from repro.kg.triples import RDFS, XSD
    s0, s1, val = _oracle_iri("s0"), _oracle_iri("s1"), _oracle_iri("val")
    triples = [Triple(s0, val, Literal("3", datatype=XSD.integer)),
               Triple(s1, val, Literal("5", datatype=XSD.integer)),
               Triple(s0, _oracle_iri("p0"), s1),
               Triple(s1, RDFS.label, Literal("x"))]
    groups = [f"?a <{_ORACLE_NS}val> ?v FILTER (?v >= 3 && ?v <= 5)",
              f"?a <{_ORACLE_NS}val> ?v FILTER (3 < ?v && 5 > ?v)",
              f"3 <{_ORACLE_NS}p0> ?b", "3 ?p ?o",
              f'"x" <{_ORACLE_NS}p0> <{_ORACLE_NS}o0>',
              f"?s ?p ?a . ?a <{_ORACLE_NS}p0> ?b"]
    return triples, groups


class TestBruteForceOracleFuzz:
    """Property: both planner modes return the brute-force reference's
    rows. ``planner="parse"`` shares the join step and the compiled
    filters with the cost planner, so the parse-order oracle alone cannot
    catch a fault in either; this reference shares only the parser."""

    @settings(max_examples=80, deadline=None)
    @given(case=_store_and_groups(), shards=st.sampled_from([0, 2, 4]))
    @example(case=_edge_cases(), shards=0)
    @example(case=_edge_cases(), shards=2)
    def test_engine_equals_brute_force_reference(self, case, shards):
        from repro.kg.sharding import ShardedTripleStore
        from repro.kg.store import TripleStore

        triples, groups = case
        store = ShardedTripleStore(triples, shards=shards) if shards \
            else TripleStore(triples)
        reference = _BruteForce(store)
        engines = (SparqlEngine(store), SparqlEngine(store, planner="parse"))
        multiset = TestPlannerOracleFuzz._multiset
        for group in groups:
            query = f"SELECT * WHERE {{ {group} }}"
            expected = multiset(reference.rows(parse_query(query).where,
                                               [{}]))
            for engine in engines:
                assert multiset(engine.select(query)) == expected, \
                    (engine.mode, query)
            assert engines[0].ask(f"ASK {{ {group} }}") == bool(expected), \
                query


@st.composite
def _optional_group(draw, depth=2):
    """A group body for the left-join property: a BGP with a maybe-FILTER,
    one or two OPTIONAL blocks holding groups one level shallower (so
    OPTIONALs nest), and maybe a UNION of two such groups (so OPTIONALs
    sit inside UNION branches). The last FILTER ranges over every
    variable of the body, OPTIONAL-bound ones included."""
    bgp = draw(_oracle_bgp())
    body = bgp + _oracle_filter(draw, bgp)
    if depth == 0:
        return body
    for _ in range(draw(st.integers(1, 2))):
        body += f" OPTIONAL {{ {draw(_optional_group(depth - 1))} }}"
    if draw(st.booleans()):
        left = draw(_optional_group(depth - 1))
        right = draw(_optional_group(depth - 1))
        body += f" {{ {left} }} UNION {{ {right} }}"
    return body + _oracle_filter(draw, body)


class TestOptionalLeftJoinFuzz:
    """Property: OPTIONAL is a left join however it nests. For random
    stores and groups with nested OPTIONALs and OPTIONALs inside UNION
    branches, both planner modes return the brute-force reference's rows
    (which evaluates each OPTIONAL once per outer row) and ASK agrees, on
    a flat store and on 2- and 4-shard stores. A row-index tag leaking
    out of the join would show as an extra binding."""

    @settings(max_examples=40, deadline=None)
    @given(triples=_oracle_triples(),
           groups=st.lists(_optional_group(), min_size=1, max_size=2),
           shards=st.sampled_from([0, 2, 4]))
    def test_nested_optional_equals_brute_force(self, triples, groups,
                                                shards):
        from repro.kg.sharding import ShardedTripleStore
        from repro.kg.store import TripleStore

        store = ShardedTripleStore(triples, shards=shards) if shards \
            else TripleStore(triples)
        reference = _BruteForce(store)
        engines = (SparqlEngine(store), SparqlEngine(store, planner="parse"))
        multiset = TestPlannerOracleFuzz._multiset
        for group in groups:
            query = f"SELECT * WHERE {{ {group} }}"
            expected = multiset(reference.rows(parse_query(query).where,
                                               [{}]))
            for engine in engines:
                assert multiset(engine.select(query)) == expected, \
                    (engine.mode, query)
            assert engines[0].ask(f"ASK {{ {group} }}") == bool(expected), \
                query


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
