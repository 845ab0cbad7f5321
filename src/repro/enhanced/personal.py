"""Personal KG-enhanced LLMs (survey §5.2).

The survey's forward-looking application: *"Personal KG-enhanced LLMs,
which can imitate the style of writing of each individual by fine-tuning
from email and chat conversations and based on a Personal KG containing the
(private) knowledge of the individual."*

:class:`PersonalAssistant` realizes both halves: an n-gram **style model**
fitted on the individual's message history drives surface realization, and
a **personal KG** answers private factual questions the base model cannot
know. The demo metric: style perplexity of generated text under the
owner's language model, and factual accuracy on personal questions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import random

from repro.kg.graph import KnowledgeGraph
from repro.kg.triples import IRI, RDF, RDFS
from repro.llm import prompts as P
from repro.llm.model import SimulatedLLM
from repro.llm.ngram import NGramLanguageModel


@dataclass
class PersonalReply:
    """One assistant reply with its provenance."""

    text: str
    grounded: bool      # True when the personal KG supplied the answer
    styled: bool        # True when the style model shaped the phrasing


class PersonalAssistant:
    """A privacy-local assistant: owner's style + owner's knowledge."""

    def __init__(self, backbone: SimulatedLLM, personal_kg: KnowledgeGraph,
                 message_history: Sequence[str] = (), seed: int = 0):
        self.backbone = backbone
        self.personal_kg = personal_kg
        self.seed = seed
        self.style_model = NGramLanguageModel(order=3)
        self._style_fitted = False
        if message_history:
            self.fit_style(message_history)

    # ------------------------------------------------------------------
    # Style half ("fine-tuning from email and chat conversations")
    # ------------------------------------------------------------------
    def fit_style(self, messages: Sequence[str]) -> None:
        """Fit the owner's writing-style model on their message history."""
        self.style_model.fit(messages)
        self._style_fitted = True

    def style_perplexity(self, text: str) -> float:
        """How surprising ``text`` is under the owner's style model."""
        return self.style_model.perplexity(text)

    def draft_in_style(self, topic: str, max_tokens: int = 18) -> str:
        """Draft a message continuation in the owner's voice."""
        if not self._style_fitted:
            return topic
        rng = random.Random(self.seed ^ hash(topic) & 0xFFFF)
        continuation = self.style_model.generate(rng, max_tokens=max_tokens,
                                                 prompt=topic)
        return f"{topic} {continuation}".strip()

    # ------------------------------------------------------------------
    # Knowledge half ("a Personal KG containing the private knowledge")
    # ------------------------------------------------------------------
    def _personal_facts(self, question: str) -> List[str]:
        mentions = self.backbone.find_mentions(question)
        seeds = [m.iri for m in mentions if m.iri is not None]
        facts: List[str] = []
        if seeds:
            subgraph = self.personal_kg.subgraph_triples(seeds, hops=2, max_triples=40)
            for triple in subgraph:
                if triple.predicate in (RDFS.label, RDFS.comment, RDF.type):
                    continue
                facts.append(self.personal_kg.verbalize_triple(triple))
        return facts

    def answer(self, question: str) -> PersonalReply:
        """Answer a question, grounding in the personal KG when possible."""
        facts = self._personal_facts(question)
        response = self.backbone.complete(
            P.qa_prompt(question, facts=facts or None))
        answer = P.parse_qa_response(response.text)
        grounded = bool(facts) and answer.lower() != "unknown"
        return PersonalReply(text=answer, grounded=grounded, styled=False)

    def reply_to(self, message: str) -> PersonalReply:
        """A full reply: grounded content, phrased in the owner's style."""
        answered = self.answer(message)
        if answered.text.lower() == "unknown" or not self._style_fitted:
            return answered
        styled = self.draft_in_style(answered.text)
        return PersonalReply(text=styled, grounded=answered.grounded,
                             styled=True)


def build_personal_kg(owner: str, facts: Sequence[tuple],
                      namespace_prefix: str = "http://personal.local/"
                      ) -> KnowledgeGraph:
    """Helper: a personal KG from (subject, relation, object) label triples.

    All three positions are plain labels; entities and relations are minted
    under a private namespace — nothing leaves the device.
    """
    from repro.kg.triples import Namespace
    ns = Namespace(namespace_prefix)
    kg = KnowledgeGraph(name=f"personal-{owner}")

    def mint(label: str) -> IRI:
        iri = ns[label.replace(" ", "_")]
        kg.set_label(iri, label)
        return iri

    for subject, relation, obj in facts:
        kg.add(mint(subject), mint(relation), mint(obj))
    return kg
