"""Fact checking for KGs with LLMs (survey §2.6.1, RQ4).

The survey's recipe: verbalize each triple and prompt an LLM to judge it —
closed-book first, then augmented with external knowledge (FactLLaMA) or a
tool (FacTool). :class:`MisinformationInjector` produces the labelled
evaluation mix by corrupting a deterministic subset of a clean KG.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.kg.graph import KnowledgeGraph
from repro.kg.triples import IRI, OWL, RDF, RDFS, Triple
from repro.llm import prompts as P
from repro.llm.model import SimulatedLLM
from repro.sparql import SparqlEngine


@dataclass
class LabelledStatement:
    """One verbalized statement with its gold truth value."""

    statement: str
    triple: Triple
    is_true: bool


class MisinformationInjector:
    """Corrupt a deterministic subset of a KG into plausible misinformation.

    Each corrupted triple swaps the object for a *type-compatible* wrong
    entity (the hard case: a plausible lie), mirroring how LLM-generated
    misinformation looks.
    """

    def __init__(self, kg: KnowledgeGraph, seed: int = 0):
        self.kg = kg
        self.rng = random.Random(seed)

    def build_statements(self, n: int = 60,
                         false_fraction: float = 0.5) -> List[LabelledStatement]:
        """A shuffled list of true and corrupted statements."""
        candidates = [
            t for t in self.kg.store
            if isinstance(t.object, IRI)
            and t.predicate not in (RDFS.label, RDFS.comment, RDF.type)
            and not t.predicate.value.startswith(RDFS.prefix)
            and not t.predicate.value.startswith(OWL.prefix)
            and not self.kg.store.match(t.subject, RDF.type, OWL.Class)
        ]
        candidates.sort(key=lambda t: t.n3())
        self.rng.shuffle(candidates)
        statements: List[LabelledStatement] = []
        n_false = int(n * false_fraction)
        for index, triple in enumerate(candidates[:n]):
            if index < n_false:
                corrupted = self._corrupt(triple)
                if corrupted is None:
                    continue
                statements.append(LabelledStatement(
                    statement=self.kg.verbalize_triple(corrupted),
                    triple=corrupted, is_true=False))
            else:
                statements.append(LabelledStatement(
                    statement=self.kg.verbalize_triple(triple),
                    triple=triple, is_true=True))
        self.rng.shuffle(statements)
        return statements

    def _corrupt(self, triple: Triple) -> Optional[Triple]:
        assert isinstance(triple.object, IRI)
        gold_types = set(self.kg.types(triple.object))
        pool = [
            t.object for t in self.kg.store.match(None, triple.predicate, None)
            if isinstance(t.object, IRI) and t.object != triple.object
        ]
        typed_pool = [e for e in pool if set(self.kg.types(e)) & gold_types] or pool
        typed_pool = sorted(set(typed_pool), key=lambda e: e.value)
        for _ in range(10):
            if not typed_pool:
                return None
            candidate = typed_pool[self.rng.randrange(len(typed_pool))]
            corrupted = triple.replace(object=candidate)
            if corrupted not in self.kg.store:
                return corrupted
        return None


class ClosedBookFactChecker:
    """Verbalize-and-prompt with no external knowledge — the baseline whose
    failure modes (stale memory, hallucinated verdicts) motivate RQ4."""

    def __init__(self, llm: SimulatedLLM):
        self.llm = llm

    def check(self, statement: str) -> Optional[bool]:
        """True/False, or None when the model abstains."""
        response = self.llm.complete(P.fact_check_prompt(statement))
        return P.parse_fact_check_response(response.text)


class RetrievalAugmentedFactChecker:
    """FactLLaMA-style: retrieve relevant facts from a trusted reference KG
    into the prompt before judging."""

    def __init__(self, llm: SimulatedLLM, reference: KnowledgeGraph,
                 facts_per_query: int = 20):
        self.llm = llm
        self.reference = reference
        self.facts_per_query = facts_per_query

    def check(self, statement: str) -> Optional[bool]:
        """Retrieve reference facts, then judge with them in the prompt."""
        mentions = self.llm.find_mentions(statement)
        seeds = [m.iri for m in mentions if m.iri is not None]
        facts: List[str] = []
        if seeds:
            subgraph = self.reference.subgraph_triples(
                seeds, hops=1, max_triples=self.facts_per_query * 2)
            for triple in subgraph:
                if triple.predicate in (RDFS.label, RDFS.comment, RDF.type):
                    continue
                facts.append(self.reference.verbalize_triple(triple))
                if len(facts) >= self.facts_per_query:
                    break
        context = " ".join(facts) if facts else None
        response = self.llm.complete(P.fact_check_prompt(statement, context=context))
        return P.parse_fact_check_response(response.text)


class ToolAugmentedFactChecker:
    """FacTool-style: the LLM grounds the claim, a SPARQL ASK against the
    reference KG is the verification tool, and the LLM only falls back to
    its own judgment when the claim cannot be grounded."""

    def __init__(self, llm: SimulatedLLM, reference: KnowledgeGraph):
        self.llm = llm
        self.reference = reference
        self.engine = SparqlEngine(reference.store)
        self.tool_calls = 0

    def check(self, statement: str) -> Optional[bool]:
        """Ground the claim, ASK the reference KG, fall back to the LLM."""
        grounded = self.llm._ground_statement(statement)
        if grounded is not None:
            subject, relation, obj = grounded
            if isinstance(obj, IRI):
                self.tool_calls += 1
                query = f"ASK {{ {subject.n3()} {relation.n3()} {obj.n3()} }}"
                if self.engine.ask(query):
                    return True
                # Claim contradicts a one-valued relation → definitive False.
                exists = f"ASK {{ {subject.n3()} {relation.n3()} ?o }}"
                if self.engine.ask(exists):
                    return False
                return None  # reference silent on this subject/relation
        response = self.llm.complete(P.fact_check_prompt(statement))
        return P.parse_fact_check_response(response.text)


def evaluate_fact_checking(checker, statements: Sequence[LabelledStatement]
                           ) -> Dict[str, float]:
    """Accuracy over decided statements, coverage, and end-to-end accuracy
    (abstentions count as errors)."""
    decided = correct = 0
    for labelled in statements:
        verdict = checker.check(labelled.statement)
        if verdict is None:
            continue
        decided += 1
        if verdict == labelled.is_true:
            correct += 1
    total = len(statements)
    return {
        "accuracy_on_decided": correct / decided if decided else 0.0,
        "coverage": decided / total if total else 0.0,
        "end_to_end_accuracy": correct / total if total else 0.0,
    }
