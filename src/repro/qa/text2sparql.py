"""Query generation from text (survey §4.1.3, RQ6): text → SPARQL/Cypher.

Systems, in the survey's order of increasing grounding:

* :class:`ZeroShotText2Sparql` — bare prompting; the model must guess
  predicate IRIs and entity groundings, and may emit malformed queries.
* :class:`SparqlGenText2Sparql` — SPARQLGEN one-shot prompting: the prompt
  carries the RDF subgraph relevant to the question, the schema, and one
  correct example query for a *different* question. Pliukhin et al.'s
  improvement (wider subgraph extraction) is the ``subgraph_hops`` knob.
* :class:`SGPTText2Sparql` — SGPT: a generator *trained* on (question,
  query) pairs, prompted with the schema it learned.
* :class:`Text2Cypher` — the Cypher half of RQ6, executed through the
  Cypher→SPARQL translator.

Execution accuracy is the paper-standard metric: parse the generated query,
run it on the KG, compare answer sets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.memo import Memo
from repro.core.resilience import ResilienceError, RetryPolicy
from repro.kg.datasets import Dataset
from repro.kg.graph import KnowledgeGraph, _humanize_relation
from repro.kg.rdf import dumps_ntriples
from repro.kg.triples import IRI, OWL, RDF, RDFS
from repro.llm import prompts as P
from repro.llm.faults import LLMTransientError
from repro.llm.model import SimulatedLLM
from repro.sparql import SparqlEngine, SparqlParseError, parse_query
from repro.sparql.algebra import Query
from repro.sparql.cypher import CypherEngine, CypherParseError
from repro.qa.multihop import (
    MultiHopQuestion, ReLMKGQA, generate_multihop_questions,
)

#: Distinct (seeds, hops) whose rendered subgraph one task remembers per
#: KG epoch, and distinct draft texts whose parse one QA system
#: remembers. A full memo is emptied.
_SUBGRAPH_MEMO_SIZE = 1024
_DRAFT_MEMO_SIZE = 1024


@dataclass
class Text2SparqlInstance:
    """One (question, gold SPARQL, gold answers) item."""

    question: str
    gold_query: str
    answers: Set[IRI]


class Text2SparqlTask:
    """Build evaluation instances from a dataset's generated questions."""

    def __init__(self, dataset: Dataset, n: int = 20, hops: int = 1,
                 seed: int = 0):
        self.dataset = dataset
        self.kg = dataset.kg
        self.engine = SparqlEngine(self.kg.store)
        self._schema: Tuple[tuple, str] = ((), "")
        self._subgraphs = Memo(_store_epoch, _SUBGRAPH_MEMO_SIZE)
        self.instances = [
            self._to_instance(q)
            for q in generate_multihop_questions(dataset, n=n, hops=hops,
                                                 seed=seed)
        ]

    def _to_instance(self, question: MultiHopQuestion) -> Text2SparqlInstance:
        patterns = []
        subject = question.anchor.n3()
        for index, relation in enumerate(question.relations):
            var = "?x" if index == len(question.relations) - 1 else f"?m{index}"
            patterns.append(f"{subject} {relation.n3()} {var} .")
            subject = var
        gold_query = "SELECT ?x WHERE { " + " ".join(patterns) + " }"
        return Text2SparqlInstance(question=question.text,
                                   gold_query=gold_query,
                                   answers=question.answers)

    def schema_text(self) -> str:
        """``label = <iri>`` lines for every relation (the Schema section).

        Rendered once per distinct set of (relation, label) pairs, so an
        ontology edit shows on the next call.
        """
        pairs = tuple((relation, prop.label) for relation, prop
                      in self.dataset.ontology.properties.items())
        if pairs != self._schema[0]:
            lines = [f"{_humanize_relation(label)} = <{relation.value}>"
                     for relation, label in sorted(
                         pairs, key=lambda pair: pair[0].value)]
            self._schema = (pairs, "\n".join(lines))
        return self._schema[1]

    def subgraph_text(self, question: str, llm: SimulatedLLM,
                      hops: int = 1) -> Optional[str]:
        """The N-Triples subgraph around the question's entities.

        Rendered once per (seeds, hops) and KG epoch: a hit reads
        nothing from the KG, and a text rendered while a write raced is
        returned but not remembered.
        """
        mentions = llm.find_mentions(question)
        seeds = tuple(m.iri for m in mentions if m.iri is not None)
        if not seeds:
            return None
        return self._subgraphs.get(self.kg, (seeds, hops), _render_subgraph,
                                   seeds, hops)


def _store_epoch(kg: KnowledgeGraph) -> int:
    return kg.store.epoch


def _render_subgraph(kg: KnowledgeGraph, seeds: Tuple[IRI, ...],
                     hops: int) -> str:
    return dumps_ntriples(kg.subgraph_triples(seeds, hops=hops,
                                              max_triples=60))


_EXAMPLE_QUERY = ('SELECT ?x WHERE { <http://repro.dev/kg/Example> '
                  '<http://repro.dev/schema/exampleOf> ?x . }')


def _default_draft_retry() -> RetryPolicy:
    """The drafting retry policy: three attempts over transient faults."""
    return RetryPolicy(max_attempts=3, retry_on=(LLMTransientError,))


class ZeroShotText2Sparql:
    """Bare prompting, no grounding material."""

    def __init__(self, llm: SimulatedLLM, retry: Optional[RetryPolicy] = None):
        self.llm = llm
        self.retry = retry or _default_draft_retry()

    def generate(self, question: str) -> str:
        """Bare prompt → query text (may be malformed; callers must parse).

        Transient LLM faults are retried; the final fault propagates."""
        return self.retry.call(
            lambda: self.llm.complete(P.sparql_prompt(question)).text,
            key=question)


class SparqlGenText2Sparql:
    """SPARQLGEN: one-shot prompt with subgraph + schema + example query."""

    def __init__(self, llm: SimulatedLLM, task: Text2SparqlTask,
                 subgraph_hops: int = 1, retry: Optional[RetryPolicy] = None):
        self.llm = llm
        self.task = task
        self.subgraph_hops = subgraph_hops
        self.retry = retry or _default_draft_retry()

    def generate(self, question: str) -> str:
        """One-shot prompt with subgraph + schema + example query."""
        prompt = P.sparql_prompt(
            question,
            schema=self.task.schema_text(),
            subgraph=self.task.subgraph_text(question, self.llm,
                                             hops=self.subgraph_hops),
            example_query=_EXAMPLE_QUERY,
        )
        return self.retry.call(lambda: self.llm.complete(prompt).text,
                               key=question)


class SGPTText2Sparql:
    """SGPT: fine-tuned generation with the learned schema."""

    def __init__(self, llm: SimulatedLLM, task: Text2SparqlTask,
                 retry: Optional[RetryPolicy] = None):
        self.llm = llm
        self.task = task
        self.trained_on = 0
        self.retry = retry or _default_draft_retry()

    def fit(self, training_questions: Sequence[str]) -> None:
        """Train on (question, query) pairs."""
        self.llm.fine_tune("sparql generation", len(training_questions))
        self.trained_on = len(training_questions)

    def generate(self, question: str) -> str:
        """Trained generation with the learned schema in the prompt."""
        prompt = P.sparql_prompt(
            question,
            schema=self.task.schema_text(),
            example_query=_EXAMPLE_QUERY,
        )
        return self.retry.call(lambda: self.llm.complete(prompt).text,
                               key=question)


def evaluate_text2sparql(system, task: Text2SparqlTask,
                         instances: Optional[Sequence[Text2SparqlInstance]] = None
                         ) -> Dict[str, float]:
    """Parse rate, execution accuracy (exact answer-set match) and mean F1."""
    instances = list(instances if instances is not None else task.instances)
    if not instances:
        raise ValueError("no instances to evaluate")
    parsed = exact = 0
    total_f1 = 0.0
    for instance in instances:
        query_text = system.generate(instance.question)
        try:
            query = parse_query(query_text)
        except SparqlParseError:
            continue
        parsed += 1
        try:
            rows = task.engine.select(query)
        except Exception:
            continue
        predicted: Set[IRI] = set()
        for row in rows:
            for value in row.values():
                if isinstance(value, IRI):
                    predicted.add(value)
        gold = instance.answers
        if predicted == gold:
            exact += 1
        if predicted and gold:
            tp = len(predicted & gold)
            precision = tp / len(predicted)
            recall = tp / len(gold)
            if precision + recall:
                total_f1 += 2 * precision * recall / (precision + recall)
        elif not predicted and not gold:
            total_f1 += 1.0
    n = len(instances)
    return {"parse_rate": parsed / n, "execution_accuracy": exact / n,
            "f1": total_f1 / n, "instances": float(n)}


def _parse_draft(max_repairs: int,
                 query_text: str) -> Optional[Tuple[str, Query]]:
    """Bounded parse-repair rounds over one draft text."""
    for _ in range(max_repairs + 1):
        try:
            return query_text, parse_query(query_text)
        except SparqlParseError:
            repaired = repair_query(query_text)
            if repaired == query_text:
                return None
            query_text = repaired
    return None


def repair_query(query_text: str) -> str:
    """One deterministic repair round for near-miss SPARQL drafts.

    Handles the malformations the simulated drafting model (and its
    fault-injected variants) actually produce: unbalanced braces and
    trailing garbage after the last brace.
    """
    repaired = query_text.strip()
    opened = repaired.count("{")
    closed = repaired.count("}")
    if opened > closed:
        repaired += " }" * (opened - closed)
    elif closed > opened and repaired.endswith("}"):
        while repaired.count("}") > opened and repaired.endswith("}"):
            repaired = repaired[:-1].rstrip()
    last = repaired.rfind("}")
    if 0 <= last < len(repaired) - 1:
        repaired = repaired[:last + 1]
    return repaired


class ResilientText2SparqlQA:
    """Drafting with retry → parse-repair loop → path-reasoning fallback.

    The full degradation ladder for the text→query workload: (1) draft a
    query with the wrapped generator (which already retries transient LLM
    faults); (2) if the draft does not parse, run bounded repair rounds;
    (3) if drafting or execution still fails, fall back to
    :class:`~repro.qa.multihop.ReLMKGQA` path reasoning over the KG, which
    needs no query language at all. ``answer`` never raises for LLM or
    query faults; ``last_degraded`` records whether the structured path
    was abandoned. Replication faults
    (:class:`~repro.core.resilience.ResilienceError`) from the store do
    propagate, so the caller's tier ladder can degrade on them.
    """

    def __init__(self, system, task: Text2SparqlTask, llm: SimulatedLLM,
                 max_repairs: int = 2):
        self.system = system
        self.task = task
        self.llm = llm
        self.max_repairs = max_repairs
        self.path_fallback = ReLMKGQA(llm, task.kg)
        self._drafts = Memo(limit=_DRAFT_MEMO_SIZE)
        self.last_degraded = False
        self.last_route = "sparql"

    def draft(self, question: str) -> Optional[str]:
        """A parseable query, after repairs — or None when drafting failed."""
        drafted = self._draft(question)
        return drafted[0] if drafted is not None else None

    def _draft(self, question: str) -> Optional[Tuple[str, Query]]:
        """The accepted draft and the parse that accepted it, or None.

        The draft is generated on every call; what the parse-and-repair
        loop makes of it is a pure function of the draft text, so it is
        worked out once per distinct draft. The remembered ``Query`` is
        shared by every request that drafts the same text and must not be
        mutated (``SparqlEngine.select`` only reads it).
        """
        try:
            query_text = self.system.generate(question)
        except LLMTransientError:
            return None
        return self._drafts.get(self.max_repairs, query_text, _parse_draft,
                                query_text)

    def answer(self, question: str) -> Set[IRI]:
        """Entities answering the question, degrading through the ladder."""
        self.last_degraded = False
        self.last_route = "sparql"
        drafted = self._draft(question)
        if drafted is not None:
            try:
                rows = self.task.engine.select(drafted[1])
            except ResilienceError:
                # A partitioned or stale shard is not a bad query: path
                # reasoning would read the same shards, and the serving
                # tier ladder must see the typed error to fall through.
                raise
            except Exception:
                rows = None
            if rows is not None:
                out: Set[IRI] = set()
                for row in rows:
                    for value in row.values():
                        if isinstance(value, IRI):
                            out.add(value)
                return out
        # Structured querying failed outright: fall back to path reasoning
        # (which itself degrades to closed-book QA).
        self.last_degraded = True
        self.last_route = "path-reasoning"
        try:
            return self.path_fallback.answer(question)
        except LLMTransientError:
            return set()

    def answer_with_route(self, question: str) -> Tuple[Set[IRI], str]:
        """Answer plus the route that produced it, as one atomic result.

        ``last_route`` is instance state and races when one QA system is
        shared by concurrent serving workers; this returns the pair
        captured immediately after the call, which is what the gateway's
        per-tier accounting needs.
        """
        answers = self.answer(question)
        return answers, self.last_route


class Text2Cypher:
    """Text → Cypher, executed through the Cypher front-end.

    The generator grounds the question with the backbone's lexicons and
    emits a ``MATCH`` pattern; faithfulness of the grounding carries the
    same failure modes as the SPARQL path.
    """

    def __init__(self, llm: SimulatedLLM, kg: KnowledgeGraph):
        self.llm = llm
        self.kg = kg
        self.engine = CypherEngine(kg.store)

    def generate(self, question: str) -> Optional[str]:
        """A Cypher query, or None when the question cannot be grounded."""
        mentions = [m for m in self.llm.find_mentions(question)
                    if m.iri is not None]
        relations = [hit[1] for hit in self.llm.find_relations(question)]
        if not mentions or not relations:
            return None
        anchor = mentions[-1]
        label = self.kg.label(anchor.iri).replace('"', '\\"')  # type: ignore[arg-type]
        chain = list(reversed(relations))
        pattern = f'(a {{name: "{label}"}})'
        for index, relation in enumerate(chain):
            var = "x" if index == len(chain) - 1 else f"m{index}"
            pattern += f"-[:{relation.local_name}]->({var})"
        return f"MATCH {pattern} RETURN x"

    def answer(self, question: str) -> Set[IRI]:
        """Generate, execute, and collect the bound entities."""
        cypher = self.generate(question)
        if cypher is None:
            return set()
        try:
            rows = self.engine.execute(cypher)
        except (CypherParseError, SparqlParseError):
            return set()
        out: Set[IRI] = set()
        if isinstance(rows, list):
            for row in rows:
                for value in row.values():
                    if isinstance(value, IRI):
                        out.add(value)
        return out
