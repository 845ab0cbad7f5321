"""Unit tests for prompt builders and response parsers."""

import re
from typing import List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm import prompts as P

#: Every boundary ``str.splitlines`` cuts at, ``\r\n`` included.
LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
               "\x85", "\u2028", "\u2029"]
#: Whitespace ``\s`` and ``str.strip`` treat alike, some of it also a line
#: boundary, and one look-alike that is not whitespace at all.
SPACES = [" ", "\t", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000",
          "\u200b"]

_SECTION_RE = re.compile(
    r"^(" + "|".join(re.escape(s) for s in P.SECTIONS) + r"):\s*(.*)$")


def regex_parse_prompt(text: str) -> P.Prompt:
    """The regex parser ``parse_prompt`` replaced: the reference."""
    prompt = P.Prompt()
    current: Optional[str] = None
    buffer: List[str] = []
    for line in text.splitlines():
        match = _SECTION_RE.match(line)
        if match:
            if current is not None:
                prompt.fields.append((current, "\n".join(buffer).strip()))
            current = match.group(1)
            buffer = [match.group(2)]
        else:
            buffer.append(line)
    if current is not None:
        prompt.fields.append((current, "\n".join(buffer).strip()))
    return prompt


#: Pieces of prompt text: section names (some near misses), colons in and
#: out of place, words, whitespace and line breaks.
_PROMPT_PIECES = st.one_of(
    st.sampled_from(P.SECTIONS),
    st.sampled_from(["Example", "Examples query", "task", "Task ", " Task",
                     "Tools:Task", "Observation", "http", "x"]),
    st.sampled_from([":", "::", ": ", ":\t", "=", "|", ";"]),
    st.sampled_from(SPACES),
    st.sampled_from(LINE_BREAKS),
    st.text(max_size=4),
)


class TestParsePromptOracle:
    @settings(max_examples=500, deadline=None)
    @given(pieces=st.lists(_PROMPT_PIECES, max_size=30))
    def test_parse_prompt_equals_the_regex_parser(self, pieces):
        text = "".join(pieces)
        assert P.parse_prompt(text).fields == regex_parse_prompt(text).fields

    @pytest.mark.parametrize("space", SPACES)
    @pytest.mark.parametrize("brk", LINE_BREAKS)
    def test_every_boundary_and_space(self, brk, space):
        text = (f"Task:{space}agent step{brk}Tools: a: b{brk}{space}c"
                f"{brk}Question{space}: no{brk}Question:{space}{space}q?"
                f"{brk}Scratchpad:{brk}Observation: x|y{brk}")
        assert P.parse_prompt(text).fields == regex_parse_prompt(text).fields


class TestPromptStructure:
    def test_render_parse_roundtrip(self):
        prompt = (P.Prompt()
                  .add("Task", "question answering")
                  .add("Question", "Who directed X?"))
        parsed = P.parse_prompt(prompt.render())
        assert parsed.get("Task") == "question answering"
        assert parsed.get("Question") == "Who directed X?"

    def test_multiline_sections_fold(self):
        text = "Task: summarization\nText: line one\nline two\nAnswer format: x"
        parsed = P.parse_prompt(text)
        assert parsed.get("Text") == "line one\nline two"

    def test_unknown_section_rejected_on_build(self):
        with pytest.raises(ValueError):
            P.Prompt().add("Nonsense", "x")

    def test_get_all(self):
        prompt = P.Prompt().add("Facts", "a").add("Facts", "b")
        assert prompt.get_all("Facts") == ["a", "b"]


class TestNer:
    def test_prompt_contains_types_and_sentence(self):
        text = P.ner_prompt("Alice lives here.", ["Person", "City"])
        assert "Person, City" in text and "Alice lives here." in text

    def test_examples_rendered(self):
        text = P.ner_prompt("s", ["T"], examples=[("Bob sat.", [("Bob", "T")])])
        assert "Bob [T]" in text

    def test_parse_response(self):
        assert P.parse_ner_response("Alice [Person]; Paris [City]") == [
            ("Alice", "Person"), ("Paris", "City")]

    def test_parse_none(self):
        assert P.parse_ner_response("none") == []
        assert P.parse_ner_response("") == []

    def test_parse_skips_malformed_chunks(self):
        assert P.parse_ner_response("Alice [Person]; garbage") == [("Alice", "Person")]


class TestRelationExtraction:
    def test_prompt_sections(self):
        text = P.relation_extraction_prompt("s", ["born in"], chain_of_thought=True)
        assert "step by step" in text

    def test_parse_response(self):
        parsed = P.parse_relation_response("A | born in | B; C | knows | D")
        assert parsed == [("A", "born in", "B"), ("C", "knows", "D")]

    def test_parse_rejects_incomplete(self):
        assert P.parse_relation_response("A | born in") == []


class TestFactCheck:
    def test_context_included(self):
        text = P.fact_check_prompt("X is Y.", context="some context")
        assert "Context: some context" in text

    @pytest.mark.parametrize("resp,expected", [
        ("true", True), ("True (because...)", True),
        ("false", False), ("FALSE reason", False),
        ("unknown", None), ("", None),
    ])
    def test_parse(self, resp, expected):
        assert P.parse_fact_check_response(resp) is expected


class TestQa:
    def test_facts_rendered_as_bullets(self):
        text = P.qa_prompt("Q?", facts=["fact one.", "fact two."])
        assert "- fact one." in text

    def test_parse_takes_first_line(self):
        assert P.parse_qa_response("Paris\nextra") == "Paris"

    def test_parse_empty_is_unknown(self):
        assert P.parse_qa_response("  ") == "unknown"


class TestSparqlPrompt:
    def test_all_sections(self):
        text = P.sparql_prompt("Q?", schema="s", subgraph="g", example_query="e")
        for section in ("Schema", "Subgraph", "Example query", "Question"):
            assert f"{section}:" in text


class TestRules:
    def test_parse_rules(self):
        text = "ancestor_of(X,Z) :- parent_of(X,Y), ancestor_of(Y,Z)\nnoise"
        rules = P.parse_rules_response(text)
        assert rules == [("ancestor_of", ["parent_of", "ancestor_of"])]

    def test_parse_symmetry_rule(self):
        rules = P.parse_rules_response("knows(X,Y) :- knows(Y,X)")
        assert rules == [("knows", ["knows"])]

    def test_parse_ignores_headless(self):
        assert P.parse_rules_response(":- foo(X,Y)") == []


class TestOtherBuilders:
    def test_kg2text_linearization(self):
        text = P.kg2text_prompt([("A", "p", "B"), ("A", "q", "C")])
        assert "A | p | B ; A | q | C" in text

    def test_question_generation(self):
        text = P.question_generation_prompt([("A", "r", "B")], answer="B")
        assert "Path: A | r | B" in text

    def test_chat_history(self):
        text = P.chat_prompt("hi", history=[("user", "hello"), ("assistant", "hey")])
        assert "History:" in text

    def test_triple_classification_delegates_to_fact_check(self):
        text = P.triple_classification_prompt("A", "knows", "B")
        assert "Task: fact verification" in text
        assert "A knows B." in text
