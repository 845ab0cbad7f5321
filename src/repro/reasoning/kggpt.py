"""KG-GPT (Kim et al.): sentence segmentation → graph retrieval → inference.

The framework verifies multi-fact claims against a KG: split the claim into
atomic segments, retrieve each segment's relevant subgraph, and infer each
segment's truth with the LLM, aggregating conjunctively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.pipeline import Pipeline, PipelineContext
from repro.kg.graph import KnowledgeGraph
from repro.kg.triples import IRI, RDF, RDFS
from repro.llm import prompts as P
from repro.llm.model import SimulatedLLM
from repro.text import split_sentences


@dataclass
class SegmentVerdict:
    """One claim segment with its retrieved evidence and verdict."""

    segment: str
    evidence: List[str]
    verdict: Optional[bool]


@dataclass
class ClaimVerdict:
    """The aggregated verdict for a full claim."""

    claim: str
    segments: List[SegmentVerdict]

    @property
    def supported(self) -> Optional[bool]:
        """Conjunctive aggregation: True iff every segment verifies True;
        None when any segment is undecidable (and none is False)."""
        verdicts = [s.verdict for s in self.segments]
        if any(v is False for v in verdicts):
            return False
        if all(v is True for v in verdicts) and verdicts:
            return True
        return None


class KGGPTVerifier:
    """The three-stage KG-GPT pipeline for claim verification."""

    def __init__(self, llm: SimulatedLLM, kg: KnowledgeGraph,
                 evidence_per_segment: int = 25):
        self.llm = llm
        self.kg = kg
        self.evidence_per_segment = evidence_per_segment
        self.pipeline = (
            Pipeline("kg-gpt")
            .add("sentence segmentation", self._segment)
            .add("graph retrieval", self._retrieve)
            .add("inference", self._infer)
        )

    def verify(self, claim: str) -> ClaimVerdict:
        """Verify a (possibly multi-fact) claim against the KG."""
        context = self.pipeline.execute(claim=claim)
        return context["verdict"]

    # -- stage 1 ----------------------------------------------------------
    def _segment(self, context: PipelineContext) -> None:
        claim = context["claim"]
        segments: List[str] = []
        for sentence in split_sentences(claim):
            # Further split conjunctions into atomic segments.
            for part in sentence.replace(", and ", " and ").split(" and "):
                part = part.strip().rstrip(".").strip()
                if part:
                    segments.append(part + ".")
        context["segments"] = segments

    # -- stage 2 ----------------------------------------------------------
    def _retrieve(self, context: PipelineContext) -> None:
        evidence: List[List[str]] = []
        for segment in context["segments"]:
            mentions = self.llm.find_mentions(segment)
            seeds = [m.iri for m in mentions if m.iri is not None]
            facts: List[str] = []
            if seeds:
                subgraph = self.kg.subgraph_triples(
                    seeds, hops=1, max_triples=self.evidence_per_segment * 2)
                for triple in subgraph:
                    if triple.predicate in (RDFS.label, RDFS.comment, RDF.type):
                        continue
                    facts.append(self.kg.verbalize_triple(triple))
                    if len(facts) >= self.evidence_per_segment:
                        break
            evidence.append(facts)
        context["evidence"] = evidence

    # -- stage 3 ----------------------------------------------------------
    def _infer(self, context: PipelineContext) -> None:
        verdicts: List[SegmentVerdict] = []
        for segment, facts in zip(context["segments"], context["evidence"]):
            evidence_text = " ".join(facts)
            prompt = P.fact_check_prompt(segment,
                                         context=evidence_text or None)
            verdict = P.parse_fact_check_response(self.llm.complete(prompt).text)
            verdicts.append(SegmentVerdict(segment=segment, evidence=facts,
                                           verdict=verdict))
        context["verdict"] = ClaimVerdict(claim=context["claim"], segments=verdicts)
