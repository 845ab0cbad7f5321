"""Tests for the simulated LLM: determinism, grounding hierarchy, error
scaling, and every task handler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kg.datasets import SCHEMA, covid_kg, movie_kg
from repro.kg.triples import IRI, Triple
from repro.llm import LLMConfig, SimulatedLLM, load_model
from repro.llm import prompts as P
from repro.llm.model import _Mention, _span_tokens


@pytest.fixture(scope="module")
def ds():
    return movie_kg(seed=3)


@pytest.fixture(scope="module")
def llm(ds):
    return load_model("chatgpt", world=ds.kg, seed=7)


class TestConfig:
    def test_skill_increases_with_parameters(self):
        small = LLMConfig(n_parameters=1e8, instruction_tuned=False)
        large = LLMConfig(n_parameters=1e11, instruction_tuned=False)
        assert large.skill > small.skill

    def test_instruction_tuning_adds_skill(self):
        base = LLMConfig(n_parameters=1e9, instruction_tuned=False)
        tuned = LLMConfig(n_parameters=1e9, instruction_tuned=True)
        assert tuned.skill > base.skill

    def test_skill_bounded(self):
        assert 0.05 <= LLMConfig(n_parameters=1.0).skill <= 0.97
        assert 0.05 <= LLMConfig(n_parameters=1e15).skill <= 0.97


class TestRegistry:
    def test_known_profiles_load(self):
        for name in ("bert-base", "gpt-3", "chatgpt"):
            assert load_model(name).config.name == name

    def test_unknown_profile_raises(self):
        with pytest.raises(KeyError):
            load_model("gpt-99")

    def test_overrides_apply(self):
        model = load_model("chatgpt", hallucination_rate=0.0)
        assert model.config.hallucination_rate == 0.0


class TestKnowledgeAbsorption:
    def test_coverage_fraction_respected(self, ds):
        low = SimulatedLLM(LLMConfig(seed=1))
        high = SimulatedLLM(LLMConfig(seed=1))
        n_low = low.absorb_knowledge(ds.kg, coverage=0.3)
        n_high = high.absorb_knowledge(ds.kg, coverage=0.9)
        assert n_low < n_high

    def test_full_coverage_absorbs_everything(self, ds):
        model = SimulatedLLM(LLMConfig(seed=1))
        model.absorb_knowledge(ds.kg, coverage=1.0)
        for triple in list(ds.kg.store)[:50]:
            assert model.knows(triple)

    def test_labels_always_absorbed(self, ds):
        model = SimulatedLLM(LLMConfig(seed=1))
        model.absorb_knowledge(ds.kg, coverage=0.0)
        assert model.entity_lexicon  # can still name entities

    def test_lexicon_separates_entities_and_relations(self, llm):
        assert "the silent horizon" in llm.entity_lexicon
        assert "directed by" in llm.relation_lexicon


class TestDeterminism:
    def test_same_prompt_same_output(self, llm):
        prompt = P.qa_prompt("Who directed by The Silent Horizon?")
        assert llm.complete(prompt).text == llm.complete(prompt).text

    def test_different_seeds_can_differ(self, ds):
        prompt = P.ner_prompt("The Crimson Empire starring someone.",
                              ["Movie", "Actor"])
        outputs = set()
        for seed in range(6):
            model = load_model("bert-base", world=ds.kg, seed=seed)
            outputs.add(model.complete(prompt).text)
        assert len(outputs) >= 1  # (usually >1 for a weak model)

    def test_usage_accounting(self, ds):
        model = load_model("chatgpt", world=ds.kg, seed=0)
        before = model.usage["calls"]
        response = model.complete(P.qa_prompt("Who directed by The Silent Horizon?"))
        assert model.usage["calls"] == before + 1
        assert response.total_tokens == response.prompt_tokens + response.completion_tokens
        assert model.usage["total_tokens"] >= response.total_tokens


class TestMentionGrounding:
    def test_find_mentions_longest_match(self, llm):
        mentions = llm.find_mentions("I watched The Silent Horizon yesterday")
        assert any(m.label == "The Silent Horizon" for m in mentions)

    def test_find_relations_ordered_by_position(self, llm):
        found = llm.find_relations("the movie starring X was directed by Y")
        phrases = [f[0] for f in found]
        assert "starring" in phrases and "directed by" in phrases
        assert phrases.index("starring") < phrases.index("directed by")


def _scan_mentions(llm, text):
    """Reference: try every n-gram of up to 6 tokens, longest first."""
    tokens = _span_tokens(text)
    lowered = [t[0].lower() for t in tokens]
    mentions = []
    i = 0
    while i < len(tokens):
        for length in range(min(6, len(tokens) - i), 0, -1):
            candidate = " ".join(lowered[i:i + length])
            if candidate in llm.entity_lexicon:
                end = tokens[i + length - 1][2]
                mentions.append(_Mention(label=text[tokens[i][1]:end],
                                         iri=llm.entity_lexicon[candidate],
                                         start=tokens[i][1], end=end))
                i += length
                break
        else:
            i += 1
    return mentions


_WORDS = st.sampled_from(["the", "silent", "horizon", "a", "x-ray", "o'neil",
                          "b2"])
#: Lexicon keys: up to 8 words (keys over 6 are never matched), some with
#: punctuation or doubled spaces that no token sequence can spell.
_KEYS = st.one_of(
    st.lists(_WORDS, min_size=1, max_size=8).map(" ".join),
    st.text(alphabet="ab ,.-'", min_size=1, max_size=8),
)
_SEPARATORS = st.sampled_from([" ", " ", ", ", ". ", "  ", "-", "!"])


@st.composite
def _texts(draw, keys):
    """Texts mixing lexicon keys (in any letter case) with loose words."""
    pieces = st.one_of(_WORDS, st.sampled_from(keys)) if keys else _WORDS
    parts = draw(st.lists(st.tuples(pieces, _SEPARATORS,
                                    st.sampled_from([str.lower, str.upper,
                                                     str.title])),
                          max_size=16))
    return "".join(case(piece) + sep for piece, sep, case in parts)


class TestMentionIndex:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), first=st.lists(_KEYS, max_size=10),
           later=st.lists(_KEYS, min_size=1, max_size=6))
    def test_indexed_matches_equal_the_scan(self, data, first, later):
        llm = SimulatedLLM()
        for n, key in enumerate(first):
            llm.entity_lexicon[key] = IRI(f"http://ex.org/e{n}")
        texts = data.draw(st.lists(_texts(first + later), min_size=1,
                                   max_size=4))
        for text in texts:
            assert llm.find_mentions(text) == _scan_mentions(llm, text)
        for n, key in enumerate(later):
            llm.entity_lexicon[key] = IRI(f"http://ex.org/later{n}")
        for text in texts:
            assert llm.find_mentions(text) == _scan_mentions(llm, text)


class TestNerHandler:
    def test_extracts_known_entities(self, llm, ds):
        sentence = "The Silent Horizon directed by Liam Berger."
        out = llm.complete(P.ner_prompt(sentence, ["Movie", "Director"])).text
        parsed = dict(P.parse_ner_response(out))
        assert parsed.get("The Silent Horizon") == "Movie"

    def test_type_filter_respected(self, llm):
        sentence = "The Silent Horizon directed by Liam Berger."
        out = llm.complete(P.ner_prompt(sentence, ["Genre"])).text
        parsed = P.parse_ner_response(out)
        assert all(t == "Genre" for _, t in parsed)


class TestQaHandler:
    def test_answers_from_memory(self, ds):
        model = load_model("chatgpt", world=ds.kg, seed=0,
                           knowledge_coverage=1.0, hallucination_rate=0.0)
        movie = ds.kg.find_by_label("The Silent Horizon")[0]
        director = ds.kg.store.objects(movie, SCHEMA.directedBy)[0]
        answer = model.complete(
            P.qa_prompt("Who directed by The Silent Horizon?")).text
        assert answer == ds.kg.label(director)

    def test_facts_override_missing_memory(self, ds):
        model = load_model("chatgpt", world=ds.kg, seed=0,
                           knowledge_coverage=0.0, hallucination_rate=0.0)
        movie = ds.kg.find_by_label("The Silent Horizon")[0]
        facts = [ds.kg.verbalize_triple(t) for t in ds.kg.outgoing(movie)]
        closed_book = model.complete(
            P.qa_prompt("Who directed by The Silent Horizon?")).text
        grounded = model.complete(
            P.qa_prompt("Who directed by The Silent Horizon?", facts=facts)).text
        assert closed_book == "unknown"
        assert grounded != "unknown"

    def test_zero_hallucination_abstains(self, ds):
        model = load_model("chatgpt", world=ds.kg, seed=0,
                           knowledge_coverage=0.0, hallucination_rate=0.0)
        answer = model.complete(P.qa_prompt("Who directed by The Lost Empire?")).text
        assert answer == "unknown"

    def test_full_hallucination_fabricates(self, ds):
        model = load_model("chatgpt", world=ds.kg, seed=0,
                           knowledge_coverage=0.0, hallucination_rate=1.0)
        answer = model.complete(P.qa_prompt("Who directed by The Lost Empire?")).text
        assert answer != "unknown"


class TestFactCheckHandler:
    def test_known_fact_is_true(self, ds):
        model = load_model("chatgpt", world=ds.kg, seed=0, knowledge_coverage=1.0)
        triple = ds.kg.store.match(None, SCHEMA.directedBy, None)[0]
        statement = ds.kg.verbalize_triple(triple)
        verdict = P.parse_fact_check_response(
            model.complete(P.fact_check_prompt(statement)).text)
        assert verdict is True

    def test_conflicting_functional_value_is_false(self, ds):
        model = load_model("chatgpt", world=ds.kg, seed=0, knowledge_coverage=1.0)
        movie = ds.kg.find_by_label("The Silent Horizon")[0]
        wrong_director = "Act " + ds.kg.label(IRI(ds.metadata["actors"][0]))
        statement = f"The Silent Horizon directed by {ds.kg.label(IRI(ds.metadata['directors'][1]))}."
        true_director = ds.kg.store.objects(movie, SCHEMA.directedBy)[0]
        if ds.kg.label(true_director) in statement:
            statement = f"The Silent Horizon directed by {ds.kg.label(IRI(ds.metadata['directors'][2]))}."
        verdict = P.parse_fact_check_response(
            model.complete(P.fact_check_prompt(statement)).text)
        assert verdict is False

    def test_context_supports_statement(self, ds):
        model = load_model("chatgpt", world=ds.kg, seed=0, knowledge_coverage=0.0,
                           hallucination_rate=0.0)
        statement = "The Silent Horizon directed by Liam Berger."
        verdict = P.parse_fact_check_response(
            model.complete(P.fact_check_prompt(statement, context=statement)).text)
        assert verdict is True


class TestKg2TextHandler:
    def test_covers_triples(self, ds):
        model = load_model("chatgpt", world=ds.kg, seed=0)
        out = model.complete(P.kg2text_prompt(
            [("The Silent Horizon", "directedBy", "Liam Berger")])).text
        assert "Liam Berger" in out

    def test_groups_same_subject(self, ds):
        model = load_model("chatgpt", world=ds.kg, seed=0)
        out = model.complete(P.kg2text_prompt([
            ("X", "directedBy", "A"), ("X", "hasGenre", "Drama")])).text
        assert out.count("X ") <= 2


class TestSparqlHandler:
    def test_generates_parseable_query_with_example(self, ds):
        from repro.sparql import parse_query
        model = load_model("chatgpt", world=ds.kg, seed=0)
        out = model.complete(P.sparql_prompt(
            "Who directed by The Silent Horizon?",
            schema="directed by = <http://repro.dev/schema/directedBy>",
            example_query="SELECT ?x WHERE { ?s ?p ?x }")).text
        parse_query(out)  # must not raise


class TestFineTuning:
    def test_fine_tuning_reduces_error_rate(self, ds):
        model = load_model("bert-base", world=ds.kg, seed=0)
        before = model._error_rate("ner")
        model.fine_tune("ner", 1000)
        after = model._error_rate("ner")
        assert after < before

    def test_examples_reduce_error_rate(self, ds):
        model = load_model("bert-base", world=ds.kg, seed=0)
        assert model._error_rate("ner", n_examples=5) < model._error_rate("ner")


class TestChatHandler:
    def test_greeting(self, llm):
        out = llm.complete(P.chat_prompt("Hello there!")).text
        assert "Hello" in out

    def test_factual_turn_routes_to_qa(self, ds):
        model = load_model("chatgpt", world=ds.kg, seed=0,
                           knowledge_coverage=1.0, hallucination_rate=0.0)
        out = model.complete(P.chat_prompt("Who directed by The Silent Horizon?")).text
        assert out not in ("Could you tell me more?",)


class TestChatInterface:
    def test_chat_wraps_last_user_turn(self, llm):
        from repro.llm import ChatMessage
        response = llm.chat([
            ChatMessage("user", "Hello!"),
        ])
        assert response.text
