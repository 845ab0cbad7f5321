"""Prompt templates and response parsers.

Every surveyed prompting pattern (zero-shot, few-shot/ICL, chain-of-thought,
instruction) is expressed as a *builder* producing a structured prompt with
labelled sections, plus a *parser* for the model's response. Task packages
call the builders; the simulator's router (``repro.llm.model``) reads the
same sections; benchmarks call the parsers. Keeping both sides of the
contract in one module is what makes the simulation honest: the model only
sees what the prompt actually contains.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Recognized section headers, in canonical order of appearance.
SECTIONS = [
    "Task", "Instructions", "Entity types", "Relations", "Schema",
    "Context", "Facts", "Examples", "Example query", "Subgraph",
    "Dictionary", "Sentence", "Statement", "Question", "Triples", "Path",
    "Text", "Rules", "Options", "Answer format", "History", "Tools",
    "Scratchpad",
]

_SECTION_NAMES = frozenset(SECTIONS)


@dataclass
class Prompt:
    """A structured prompt: ordered (section, content) pairs."""

    fields: List[Tuple[str, str]] = field(default_factory=list)

    def add(self, section: str, content: str) -> "Prompt":
        """Append a section (validated against the canonical list)."""
        if section not in SECTIONS:
            raise ValueError(f"unknown prompt section {section!r}")
        self.fields.append((section, content))
        return self

    def render(self) -> str:
        """The prompt text sent to the model."""
        lines = []
        for section, content in self.fields:
            lines.append(f"{section}: {content}")
        return "\n".join(lines)

    def get(self, section: str) -> Optional[str]:
        """The first content for ``section``, or None."""
        for s, content in self.fields:
            if s == section:
                return content
        return None

    def get_all(self, section: str) -> List[str]:
        """All contents for ``section``."""
        return [content for s, content in self.fields if s == section]


def parse_prompt(text: str) -> Prompt:
    """Reconstruct the structured form from rendered prompt text.

    A line starts a section when the text before its first ``:`` is a
    section name. Continuation lines (not starting a known section) are
    folded into the preceding section with ``\\n`` separators, and each
    section's content is stripped.
    """
    prompt = Prompt()
    current: Optional[str] = None
    buffer: List[str] = []
    for line in text.splitlines():
        head, colon, rest = line.partition(":")
        if colon and head in _SECTION_NAMES:
            if current is not None:
                prompt.fields.append((current, "\n".join(buffer).strip()))
            current = head
            buffer = [rest]
        else:
            buffer.append(line)
    if current is not None:
        prompt.fields.append((current, "\n".join(buffer).strip()))
    return prompt


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def ner_prompt(sentence: str, entity_types: Sequence[str],
               examples: Sequence[Tuple[str, Sequence[Tuple[str, str]]]] = (),
               definitions: Optional[Dict[str, str]] = None) -> str:
    """PromptNER-style prompt: type list, optional definitions, ICL examples.

    ``examples`` are (sentence, [(mention, type), ...]) pairs.
    """
    prompt = Prompt().add("Task", "entity extraction")
    prompt.add("Entity types", ", ".join(entity_types))
    if definitions:
        defs = "; ".join(f"{name}: {text}" for name, text in sorted(definitions.items()))
        prompt.add("Instructions", f"Type definitions — {defs}")
    if examples:
        rendered = []
        for text, entities in examples:
            tagged = "; ".join(f"{mention} [{etype}]" for mention, etype in entities)
            rendered.append(f"- {text} -> {tagged if tagged else 'none'}")
        prompt.add("Examples", "\n".join(rendered))
    prompt.add("Sentence", sentence)
    prompt.add("Answer format", "mention [Type]; mention [Type]; ... or 'none'")
    return prompt.render()


def parse_ner_response(text: str) -> List[Tuple[str, str]]:
    """Parse ``mention [Type]; ...`` into (mention, type) pairs."""
    text = text.strip()
    if not text or text.lower() == "none":
        return []
    out = []
    for chunk in text.split(";"):
        match = re.match(r"\s*(.+?)\s*\[([^\]]+)\]\s*$", chunk)
        if match:
            out.append((match.group(1).strip(), match.group(2).strip()))
    return out


def relation_extraction_prompt(
    sentence: str, relations: Sequence[str],
    examples: Sequence[Tuple[str, Sequence[Tuple[str, str, str]]]] = (),
    chain_of_thought: bool = False,
) -> str:
    """Relation-extraction prompt with optional ICL examples and CoT cue.

    ``examples`` are (sentence, [(subject, relation, object), ...]) pairs.
    """
    prompt = Prompt().add("Task", "relation extraction")
    prompt.add("Relations", ", ".join(relations))
    if chain_of_thought:
        prompt.add("Instructions", "Think step by step about which entities are "
                                    "connected before answering.")
    if examples:
        rendered = []
        for text, triples in examples:
            tagged = "; ".join(f"{s} | {r} | {o}" for s, r, o in triples)
            rendered.append(f"- {text} -> {tagged if tagged else 'none'}")
        prompt.add("Examples", "\n".join(rendered))
    prompt.add("Sentence", sentence)
    prompt.add("Answer format", "subject | relation | object; ... or 'none'")
    return prompt.render()


def parse_relation_response(text: str) -> List[Tuple[str, str, str]]:
    """Parse ``subject | relation | object; ...`` triples."""
    text = text.strip()
    if not text or text.lower() == "none":
        return []
    out = []
    for chunk in text.split(";"):
        parts = [p.strip() for p in chunk.split("|")]
        if len(parts) == 3 and all(parts):
            out.append((parts[0], parts[1], parts[2]))
    return out


def fact_check_prompt(statement: str, context: Optional[str] = None) -> str:
    """Triple-verbalization fact-checking prompt (RQ4); context optional."""
    prompt = Prompt().add("Task", "fact verification")
    if context:
        prompt.add("Context", context)
    prompt.add("Statement", statement)
    prompt.add("Answer format", "'true' or 'false', optionally followed by a reason")
    return prompt.render()


def parse_fact_check_response(text: str) -> Optional[bool]:
    """'true'/'false' (leading) → bool; anything else → None (abstain)."""
    head = text.strip().lower().split()
    if not head:
        return None
    if head[0].startswith("true"):
        return True
    if head[0].startswith("false"):
        return False
    return None


def qa_prompt(question: str, facts: Optional[Sequence[str]] = None,
              context: Optional[str] = None,
              examples: Sequence[Tuple[str, str]] = ()) -> str:
    """Question-answering prompt; ``facts`` are verbalized KG triples
    (KAPING-style), ``context`` is free text (RAG-style)."""
    prompt = Prompt().add("Task", "question answering")
    if context:
        prompt.add("Context", context)
    if facts:
        prompt.add("Facts", "\n".join(f"- {f}" for f in facts))
    if examples:
        prompt.add("Examples", "\n".join(f"- Q: {q} -> A: {a}" for q, a in examples))
    prompt.add("Question", question)
    prompt.add("Answer format", "a short answer, or 'unknown'")
    return prompt.render()


def parse_qa_response(text: str) -> str:
    """Normalize the model's answer line."""
    return text.strip().splitlines()[0].strip() if text.strip() else "unknown"


def kg2text_prompt(triples: Sequence[Tuple[str, str, str]],
                   examples: Sequence[Tuple[str, str]] = ()) -> str:
    """KG-to-text prompt over linearized triples (RQ1).

    ``examples`` are (linearized triples, reference text) pairs for the
    few-shot setting.
    """
    prompt = Prompt().add("Task", "graph verbalization")
    if examples:
        prompt.add("Examples", "\n".join(f"- {src} -> {tgt}" for src, tgt in examples))
    linearized = " ; ".join(f"{s} | {p} | {o}" for s, p, o in triples)
    prompt.add("Triples", linearized)
    prompt.add("Answer format", "fluent English sentences covering every triple")
    return prompt.render()


def sparql_prompt(question: str, schema: Optional[str] = None,
                  subgraph: Optional[str] = None,
                  example_query: Optional[str] = None) -> str:
    """Text-to-SPARQL prompt (RQ6).

    SPARQLGEN-style one-shot prompting passes all three optional sections:
    the schema, an RDF subgraph relevant to the question, and one example of
    a correct query for a *different* question.
    """
    prompt = Prompt().add("Task", "sparql generation")
    if schema:
        prompt.add("Schema", schema)
    if subgraph:
        prompt.add("Subgraph", subgraph)
    if example_query:
        prompt.add("Example query", example_query)
    prompt.add("Question", question)
    prompt.add("Answer format", "a single SPARQL SELECT or ASK query")
    return prompt.render()


def question_generation_prompt(path: Sequence[Tuple[str, str, str]],
                               answer: str, multi_hop: bool = True) -> str:
    """Multi-hop question-generation prompt from a KG path (KGEL-style)."""
    prompt = Prompt().add("Task", "question generation")
    rendered = " -> ".join(f"{s} | {r} | {o}" for s, r, o in path)
    prompt.add("Path", rendered)
    hops = "multi-hop (the question must traverse every edge)" if multi_hop else "single-hop"
    prompt.add("Instructions", f"Generate one {hops} question whose answer is: {answer}")
    prompt.add("Answer format", "a single question ending with '?'")
    return prompt.render()


def summarization_prompt(text: str, focus: Optional[str] = None) -> str:
    """Summarization prompt (GraphRAG community summaries, chat history)."""
    prompt = Prompt().add("Task", "summarization")
    if focus:
        prompt.add("Instructions", f"Focus on: {focus}")
    prompt.add("Text", text)
    prompt.add("Answer format", "a concise summary")
    return prompt.render()


def rule_mining_prompt(relations: Sequence[str],
                       sample_paths: Sequence[str] = ()) -> str:
    """ChatRule-style prompt: propose Horn rules over the KG's relations."""
    prompt = Prompt().add("Task", "rule mining")
    prompt.add("Relations", ", ".join(relations))
    if sample_paths:
        prompt.add("Facts", "\n".join(f"- {p}" for p in sample_paths))
    prompt.add("Answer format",
               "one rule per line: head(X,Y) :- body1(X,Z), body2(Z,Y)")
    return prompt.render()


def parse_rules_response(text: str) -> List[Tuple[str, List[str]]]:
    """Parse Horn rules into (head_relation, [body_relations]) pairs.

    Variable structure is validated by the consumer; here we extract the
    relation names in order.
    """
    rules = []
    for line in text.splitlines():
        line = line.strip().lstrip("-").strip()
        if ":-" not in line:
            continue
        head_text, body_text = line.split(":-", 1)
        head_match = re.match(r"\s*([A-Za-z_][\w]*)\s*\(", head_text)
        if head_match is None:
            continue
        body_relations = re.findall(r"([A-Za-z_][\w]*)\s*\(", body_text)
        if body_relations:
            rules.append((head_match.group(1), body_relations))
    return rules


def chat_prompt(user_message: str, history: Sequence[Tuple[str, str]] = (),
                facts: Optional[Sequence[str]] = None) -> str:
    """Chatbot turn prompt with dialogue history and optional KG facts."""
    prompt = Prompt().add("Task", "chat")
    if history:
        prompt.add("History", "\n".join(f"{role}: {text}" for role, text in history))
    if facts:
        prompt.add("Facts", "\n".join(f"- {f}" for f in facts))
    prompt.add("Question", user_message)
    return prompt.render()


def triple_classification_prompt(subject: str, relation: str, obj: str,
                                 context: Optional[str] = None) -> str:
    """KG-BERT-style triple plausibility prompt."""
    return fact_check_prompt(f"{subject} {relation} {obj}.", context=context)


def agent_step_prompt(question: str, tools: str,
                      scratchpad: Sequence[str] = ()) -> str:
    """One ReAct decision step over a typed graph-tool registry.

    ``tools`` is the registry's rendered catalogue (``name: description``
    per line); ``scratchpad`` is the episode transcript so far, one line
    per prior Thought/Action/Observation/Reflection event. The model
    answers with exactly one ``Thought:`` line followed by either an
    ``Action:`` line (tool name + JSON arguments) or a ``Final:`` line.
    """
    prompt = Prompt().add("Task", "agent step")
    prompt.add("Tools", tools)
    prompt.add("Question", question)
    if scratchpad:
        prompt.add("Scratchpad", "\n".join(scratchpad))
    prompt.add("Answer format",
               "Thought: ... then Action: <tool> <json args> "
               "or Final: <answer>")
    return prompt.render()


@dataclass
class AgentDecision:
    """A parsed agent step: either one tool call or a final answer.

    ``tool``/``args`` are set for action steps, ``final`` for answer
    steps; a response matching neither (e.g. a corrupted completion)
    parses to a decision with all three unset, which the loop records as
    a malformed step rather than crashing the episode.
    """

    thought: str = ""
    tool: Optional[str] = None
    args: Dict[str, object] = field(default_factory=dict)
    final: Optional[str] = None


def parse_agent_response(text: str) -> AgentDecision:
    """Parse ``Thought:``/``Action:``/``Final:`` lines into a decision."""
    import json

    decision = AgentDecision()
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("Thought:"):
            decision.thought = line[len("Thought:"):].strip()
        elif line.startswith("Final:") and decision.final is None:
            decision.final = line[len("Final:"):].strip()
        elif line.startswith("Action:") and decision.tool is None:
            body = line[len("Action:"):].strip()
            name, _, rest = body.partition(" ")
            args: Dict[str, object] = {}
            rest = rest.strip()
            if rest:
                try:
                    parsed = json.loads(rest)
                except ValueError:
                    # Garbled arguments degrade to a malformed step.
                    continue
                if not isinstance(parsed, dict):
                    continue
                args = parsed
            decision.tool = name or None
            decision.args = args
    return decision
