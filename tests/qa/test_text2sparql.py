"""Tests for text-to-SPARQL / text-to-Cypher (RQ6)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kg.datasets import movie_kg
from repro.kg.triples import IRI, RDFS, Literal, Triple
from repro.llm import load_model
from repro.qa import (
    SGPTText2Sparql, SparqlGenText2Sparql, Text2Cypher, Text2SparqlTask,
    ZeroShotText2Sparql, evaluate_text2sparql,
)
from repro.sparql import parse_query


@pytest.fixture(scope="module")
def setup():
    ds = movie_kg(seed=3)
    task = Text2SparqlTask(ds, n=15, hops=1, seed=2)
    return ds, task


class TestTask:
    def test_gold_queries_execute_to_gold_answers(self, setup):
        ds, task = setup
        for instance in task.instances:
            rows = task.engine.select(instance.gold_query)
            predicted = {row["x"] for row in rows}
            assert predicted == instance.answers

    def test_schema_text_lists_relations(self, setup):
        ds, task = setup
        text = task.schema_text()
        assert "directed by = <http://repro.dev/schema/directedBy>" in text

    def test_subgraph_text_is_ntriples(self, setup):
        ds, task = setup
        llm = load_model("chatgpt", world=ds.kg, seed=0)
        subgraph = task.subgraph_text(task.instances[0].question, llm)
        assert subgraph is not None
        from repro.kg.rdf import loads_ntriples
        assert loads_ntriples(subgraph)


class TestSystemOrdering:
    def test_grounded_prompting_beats_zero_shot(self, setup):
        ds, task = setup
        weak = lambda: load_model("gpt-2", world=ds.kg, seed=4)
        zero = evaluate_text2sparql(ZeroShotText2Sparql(weak()), task)
        one_shot = evaluate_text2sparql(SparqlGenText2Sparql(weak(), task), task)
        assert one_shot["execution_accuracy"] > zero["execution_accuracy"]
        assert one_shot["parse_rate"] >= zero["parse_rate"]

    def test_trained_sgpt_at_least_matches_zero_shot(self, setup):
        ds, task = setup
        weak = lambda: load_model("gpt-2", world=ds.kg, seed=4)
        zero = evaluate_text2sparql(ZeroShotText2Sparql(weak()), task)
        sgpt = SGPTText2Sparql(weak(), task)
        sgpt.fit(["q"] * 300)
        trained = evaluate_text2sparql(sgpt, task)
        assert trained["execution_accuracy"] >= zero["execution_accuracy"]

    def test_generated_queries_are_strings(self, setup):
        ds, task = setup
        llm = load_model("chatgpt", world=ds.kg, seed=0)
        system = SparqlGenText2Sparql(llm, task)
        query = system.generate(task.instances[0].question)
        parse_query(query)  # grounded prompting must yield valid syntax

    def test_malformed_output_counts_as_failure_not_crash(self, setup):
        ds, task = setup

        class Broken:
            def generate(self, question):
                return "SELECT ?x WHERE { unterminated"

        scores = evaluate_text2sparql(Broken(), task)
        assert scores["parse_rate"] == 0.0
        assert scores["execution_accuracy"] == 0.0


class TestText2Cypher:
    def test_generates_match_pattern(self, setup):
        ds, task = setup
        llm = load_model("chatgpt", world=ds.kg, seed=0)
        t2c = Text2Cypher(llm, ds.kg)
        cypher = t2c.generate(task.instances[0].question)
        assert cypher is not None and cypher.startswith("MATCH")

    def test_execution_matches_gold(self, setup):
        ds, task = setup
        llm = load_model("chatgpt", world=ds.kg, seed=0)
        t2c = Text2Cypher(llm, ds.kg)
        correct = 0
        for instance in task.instances:
            if t2c.answer(instance.question) == instance.answers:
                correct += 1
        assert correct / len(task.instances) > 0.7

    def test_ungroundable_returns_none(self, setup):
        ds, _ = setup
        llm = load_model("chatgpt", world=ds.kg, seed=0)
        assert Text2Cypher(llm, ds.kg).generate("what is love?") is None


class TestResilientPartition:
    def test_partition_raises_instead_of_path_fallback(self):
        """A replication failure is not a query failure: under strict reads
        on a fully partitioned store, ``answer`` must let the typed error
        reach the serving tier ladder instead of rerouting the read to
        path reasoning."""
        from repro.kg.replication import (ReplicatedShardedTripleStore,
                                          ReplicationError)
        from repro.qa import ResilientText2SparqlQA

        ds = movie_kg(seed=3)
        replicated = ReplicatedShardedTripleStore(ds.kg.store, shards=2,
                                                  replicas=2)
        ds.kg.store = replicated
        task = Text2SparqlTask(ds, n=2, hops=1, seed=2)
        llm = load_model("chatgpt", world=ds.kg, seed=0)

        class Drafter:
            def generate(self, question):
                return ("SELECT ?m WHERE { ?m "
                        "<http://repro.dev/schema/directedBy> ?d }")

        qa = ResilientText2SparqlQA(Drafter(), task, llm)
        fallbacks = []

        class PathFallback:
            def answer(self, question):
                fallbacks.append(question)
                return set()

        qa.path_fallback = PathFallback()
        for shard in range(2):
            for replica in range(2):
                replicated.transport.force_partition(shard, replica)
        with replicated.reads_consistency("strict"):
            with pytest.raises(ReplicationError):
                qa.answer("Who directed what?")
        assert fallbacks == []


def _count_successful_parses(monkeypatch):
    """Route every ``parse_query`` the QA path and the engine use through
    one counter of parses that returned a query."""
    import repro.qa.text2sparql as t2s
    import repro.sparql.evaluator as evaluator

    calls = []

    def counting(text):
        query = parse_query(text)
        calls.append(text)
        return query

    monkeypatch.setattr(t2s, "parse_query", counting)
    monkeypatch.setattr(evaluator, "parse_query", counting)
    return calls


class TestOnePassPerRequest:
    def test_answer_parses_each_accepted_draft_once(self, setup, monkeypatch):
        from repro.qa import ResilientText2SparqlQA

        ds, task = setup
        llm = load_model("chatgpt", world=ds.kg, seed=0)
        qa = ResilientText2SparqlQA(SparqlGenText2Sparql(llm, task), task, llm)
        calls = _count_successful_parses(monkeypatch)
        routed = 0
        for instance in task.instances:
            del calls[:]
            qa.answer(instance.question)
            if qa.last_route == "sparql":
                routed += 1
                assert len(calls) == 1, instance.question
        assert routed > 0

    def test_evaluation_parses_each_query_once(self, setup, monkeypatch):
        ds, task = setup
        llm = load_model("chatgpt", world=ds.kg, seed=0)
        calls = _count_successful_parses(monkeypatch)
        result = evaluate_text2sparql(SparqlGenText2Sparql(llm, task), task)
        assert len(calls) == round(result["parse_rate"] * len(task.instances))
        assert len(calls) > 0

    def test_schema_text_shows_ontology_edits(self):
        from repro.kg.triples import IRI

        ds = movie_kg(seed=3)
        task = Text2SparqlTask(ds, n=2, hops=1, seed=2)
        before = task.schema_text()
        assert task.schema_text() == before
        relation = IRI("http://repro.dev/schema/remadeAs")
        ds.ontology.add_property(relation, label="remadeAs")
        added = task.schema_text()
        assert "remade as = <http://repro.dev/schema/remadeAs>" in added
        assert added.replace(
            "remade as = <http://repro.dev/schema/remadeAs>\n", "") == before
        ds.ontology.properties[relation].label = "remakeOf"
        relabelled = task.schema_text()
        assert "remake of = <http://repro.dev/schema/remadeAs>" in relabelled
        assert "remade as" not in relabelled


#: SHA-256 over every enterprise one-hop question (618 of them) of the
#: rendered prompt sections and of what the SPARQLGEN path drafted and
#: answered. The simulated LLM seeds its output from the prompt text, so
#: a change to any of these shifts accuracy; this names which one moved.
GOLDEN_PROMPT_DIGESTS = {
    "schema": "93e112dc319230816aa87b5e95fb7c8001603a96823d85f22c0ebef6b3b088fd",
    "subgraph": "246519b8548e38094afee7d87d0e0c3e52ed62c41e1d06f881514b496ef38719",
    "draft": "d0d6f28c30f34205ce4baa1b2a8047c29865960ad424f6b026969be447f0e957",
    "answer": "4f2455745a17b847afe07cfe2c56208ba439a1eee8bf4316db91b069944ff76f",
}


def prompt_path_digests():
    """The digests :data:`GOLDEN_PROMPT_DIGESTS` pins, computed afresh."""
    import hashlib

    from repro.kg.datasets import enterprise_kg
    from repro.qa import ResilientText2SparqlQA
    from repro.qa.multihop import generate_multihop_questions

    data = enterprise_kg(seed=0, n_employees=600)
    questions = sorted({q.text for q in generate_multihop_questions(
        data, n=5000, hops=1, seed=0)})
    assert len(questions) == 618
    llm = load_model("chatgpt", world=data.kg, seed=0)
    task = Text2SparqlTask(data, n=8, seed=0)
    qa = ResilientText2SparqlQA(SparqlGenText2Sparql(llm, task), task, llm)
    digests = {name: hashlib.sha256() for name in GOLDEN_PROMPT_DIGESTS}
    for question in questions:
        answers = sorted(entity.value for entity in qa.answer(question))
        parts = {
            "schema": task.schema_text(),
            "subgraph": str(task.subgraph_text(question, llm)),
            "draft": str(qa.draft(question)),
            "answer": " ".join([qa.last_route] + answers),
        }
        for name, text in parts.items():
            digests[name].update(text.encode("utf-8") + b"\0")
    return {name: digest.hexdigest() for name, digest in digests.items()}


class TestPromptIdentity:
    def test_prompt_path_matches_golden_digests(self):
        assert prompt_path_digests() == GOLDEN_PROMPT_DIGESTS


# ---------------------------------------------------------------------------
# Memos: the subgraph per KG version, the draft parse per draft text
# ---------------------------------------------------------------------------
_EX = "http://ex.org/"
_ENTITIES = [IRI(f"{_EX}e{index}") for index in range(4)]
_PREDICATES = [IRI(f"{_EX}knows"), IRI(f"{_EX}likes"), RDFS.label]
_NAMES = ["ann", "bo", "cy", "dee"]
_MEMO_QUESTIONS = ["Who does ann know?", "Does bo like cy?",
                   "What about dee and ann?", "Nobody is named here."]

_memo_triple = st.builds(
    lambda s, p, o: Triple(_ENTITIES[s], _PREDICATES[p],
                           Literal(_NAMES[o]) if p == 2 else _ENTITIES[o]),
    st.integers(0, 3), st.integers(0, 2), st.integers(0, 3))
_memo_step = st.one_of(
    st.tuples(st.just("add_all"), st.lists(_memo_triple, min_size=1,
                                           max_size=4)),
    st.tuples(st.just("remove_all"), st.lists(_memo_triple, min_size=1,
                                              max_size=4)),
    st.tuples(st.just("clear")),
    st.tuples(st.just("direct_add"), _memo_triple),
    st.tuples(st.just("direct_remove"), _memo_triple),
    st.tuples(st.just("lexicon_set"), st.sampled_from(_NAMES),
              st.integers(0, 3)),
    st.tuples(st.just("lexicon_del"), st.sampled_from(_NAMES)),
)


def _memo_fixture(store):
    """A task over ``store`` and a model that grounds :data:`_NAMES`."""
    import dataclasses

    from repro.kg.graph import KnowledgeGraph
    from repro.llm import SimulatedLLM

    base = movie_kg(seed=3)
    task = Text2SparqlTask(
        dataclasses.replace(base, kg=KnowledgeGraph(store)), n=0)
    llm = SimulatedLLM()
    for name, entity in zip(_NAMES, _ENTITIES):
        llm.entity_lexicon[name] = entity
    return task, llm


def _apply_memo_step(store, llm, step):
    kind = step[0]
    if kind == "add_all":
        store.add_all(step[1])
    elif kind == "remove_all":
        store.remove_all(step[1])
    elif kind == "clear":
        store.clear()
    elif kind in ("direct_add", "direct_remove"):
        shards = getattr(store, "shards", None)
        backing = (shards[store.shard_index(step[1].subject)] if shards
                   else store)
        getattr(backing, kind[len("direct_"):])(step[1])
    elif kind == "lexicon_set":
        llm.entity_lexicon[step[1]] = _ENTITIES[step[2]]
    elif step[1] in llm.entity_lexicon:
        del llm.entity_lexicon[step[1]]


def _unmemoised_subgraph(task, question, llm, hops):
    from repro.kg.graph import KnowledgeGraph
    from repro.kg.rdf import dumps_ntriples

    seeds = [m.iri for m in llm.find_mentions(question) if m.iri is not None]
    if not seeds:
        return None
    fresh = KnowledgeGraph(task.kg.store, name="fresh")
    return dumps_ntriples(fresh.subgraph_triples(seeds, hops=hops,
                                                 max_triples=60))


def _memo_store(kind):
    from repro.kg.sharding import ShardedTripleStore
    from repro.kg.store import TripleStore

    return TripleStore() if kind == "flat" else ShardedTripleStore(shards=4)


class TestSubgraphMemo:
    """Whatever the write path (façade batch, ``clear``, a direct write to
    one shard) or lexicon edit, the memoised subgraph equals a fresh
    rendering after every step."""

    @pytest.mark.parametrize("kind", ["flat", "sharded-4"])
    @settings(max_examples=60, deadline=None)
    @given(seed_triples=st.lists(_memo_triple, max_size=12),
           steps=st.lists(_memo_step, min_size=1, max_size=12))
    def test_memo_matches_a_fresh_rendering(self, kind, seed_triples, steps):
        store = _memo_store(kind)
        store.add_all(seed_triples)
        task, llm = _memo_fixture(store)
        for step in [None] + steps:
            if step is not None:
                _apply_memo_step(store, llm, step)
            for _ in range(2):  # the second round is served from the memo
                for question in _MEMO_QUESTIONS:
                    for hops in (1, 2):
                        assert task.subgraph_text(question, llm, hops) == \
                            _unmemoised_subgraph(task, question, llm, hops)

    @pytest.mark.parametrize("kind", ["flat", "sharded-4"])
    def test_text_rendered_during_a_write_is_not_served_after_it(self, kind):
        store = _memo_store(kind)
        store.add(Triple(_ENTITIES[0], _PREDICATES[0], _ENTITIES[1]))
        task, llm = _memo_fixture(store)
        question = _MEMO_QUESTIONS[0]
        render = task.kg.subgraph_triples
        raced = []

        def racing_render(*args, **kwargs):
            triples = render(*args, **kwargs)
            if not raced:  # a writer lands after the read, before the memo
                raced.append(True)
                store.add(Triple(_ENTITIES[0], _PREDICATES[1], _ENTITIES[2]))
            return triples

        task.kg.subgraph_triples = racing_render
        stale = task.subgraph_text(question, llm)
        assert "likes" not in stale
        assert task.subgraph_text(question, llm) == \
            _unmemoised_subgraph(task, question, llm, 1)
        assert "likes" in task.subgraph_text(question, llm)

    def test_a_replaced_store_is_read_afresh(self):
        from repro.kg.store import TripleStore

        first = TripleStore([Triple(_ENTITIES[0], _PREDICATES[0],
                                    _ENTITIES[1])])
        task, llm = _memo_fixture(first)
        question = _MEMO_QUESTIONS[0]
        before = task.subgraph_text(question, llm)
        second = TripleStore([Triple(_ENTITIES[0], _PREDICATES[1],
                                     _ENTITIES[2])])
        assert second.version == first.version
        task.kg.store = second
        after = task.subgraph_text(question, llm)
        assert after != before
        assert after == _unmemoised_subgraph(task, question, llm, 1)

    def test_memo_stays_within_its_bound(self, monkeypatch):
        import repro.qa.text2sparql as t2s
        from repro.kg.store import TripleStore

        monkeypatch.setattr(t2s, "_SUBGRAPH_MEMO_SIZE", 3)
        store = TripleStore([Triple(a, _PREDICATES[0], b)
                             for a in _ENTITIES for b in _ENTITIES])
        task, llm = _memo_fixture(store)
        for _ in range(2):
            for question in _MEMO_QUESTIONS:
                for hops in (1, 2, 3):
                    assert task.subgraph_text(question, llm, hops) == \
                        _unmemoised_subgraph(task, question, llm, hops)
                    assert len(task._subgraphs) <= 3


class _UnrepairableDrafter:
    def __init__(self):
        self.calls = 0

    def generate(self, question):
        self.calls += 1
        return "SELEKT ?x WHERE { ?x ?p ?o"


class TestDraftMemo:
    def test_unrepairable_draft_falls_back_on_every_repeat(self, setup,
                                                           monkeypatch):
        import repro.qa.text2sparql as t2s
        from repro.qa import ResilientText2SparqlQA

        ds, task = setup
        llm = load_model("chatgpt", world=ds.kg, seed=0)
        drafter = _UnrepairableDrafter()
        qa = ResilientText2SparqlQA(drafter, task, llm)
        question = task.instances[0].question
        expected = qa.path_fallback.answer(question)
        attempts = []

        def attempting(text):
            attempts.append(text)
            return parse_query(text)

        monkeypatch.setattr(t2s, "parse_query", attempting)
        for repeat in range(1, 4):
            answers, route = qa.answer_with_route(question)
            assert (answers, route) == (expected, "path-reasoning")
            assert qa.last_degraded
            assert qa.draft(question) is None
            assert drafter.calls == 2 * repeat  # generated on every call
        # The draft and its one repair were tried once, on the first call.
        assert attempts == ["SELEKT ?x WHERE { ?x ?p ?o",
                            "SELEKT ?x WHERE { ?x ?p ?o }"]
        assert qa._drafts.items() == [("SELEKT ?x WHERE { ?x ?p ?o", None)]

    def test_memo_stays_within_its_bound(self, setup, monkeypatch):
        import repro.qa.text2sparql as t2s
        from repro.qa import ResilientText2SparqlQA

        ds, task = setup
        monkeypatch.setattr(t2s, "_DRAFT_MEMO_SIZE", 3)
        llm = load_model("chatgpt", world=ds.kg, seed=0)
        qa = ResilientText2SparqlQA(SparqlGenText2Sparql(llm, task), task,
                                    llm)
        cold = ResilientText2SparqlQA(SparqlGenText2Sparql(llm, task), task,
                                      llm)
        for _ in range(2):
            for instance in task.instances:
                cold._drafts.clear()
                assert qa.answer_with_route(instance.question) == \
                    cold.answer_with_route(instance.question)
                assert len(qa._drafts) <= 3


class TestWarmEqualsFresh:
    def test_warm_answers_and_routes_equal_fresh_ones(self):
        """Over every enterprise one-hop question, a QA system whose memos
        are warm answers and routes exactly as one whose memos are emptied
        before each question, and every remembered parse still equals a
        fresh parse of its text (nothing mutated the shared ``Query``)."""
        from repro.kg.datasets import enterprise_kg
        from repro.qa import ResilientText2SparqlQA
        from repro.qa.multihop import generate_multihop_questions

        data = enterprise_kg(seed=0, n_employees=600)
        questions = sorted({q.text for q in generate_multihop_questions(
            data, n=5000, hops=1, seed=0)})
        assert len(questions) == 618
        llm = load_model("chatgpt", world=data.kg, seed=0)
        task = Text2SparqlTask(data, n=8, seed=0)
        warm = ResilientText2SparqlQA(SparqlGenText2Sparql(llm, task), task,
                                      llm)
        fresh_task = Text2SparqlTask(data, n=8, seed=0)
        fresh = ResilientText2SparqlQA(
            SparqlGenText2Sparql(llm, fresh_task), fresh_task, llm)
        for question in questions:
            warm.answer(question)
        for question in questions:
            fresh._drafts.clear()
            fresh_task._subgraphs.clear()
            expected = fresh.answer_with_route(question)
            assert warm.answer_with_route(question) == expected, question
        assert len(task._subgraphs) == len(warm._drafts) == 618
        for text, drafted in warm._drafts.items():
            if drafted is not None:
                assert drafted[1] == parse_query(drafted[0])
