"""Tests for text-to-SPARQL / text-to-Cypher (RQ6)."""

import pytest

from repro.kg.datasets import movie_kg
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
