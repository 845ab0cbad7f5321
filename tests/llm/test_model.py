"""Tests for the simulated LLM: determinism, grounding hierarchy, error
scaling, and every task handler."""

import dataclasses
import sys
import threading
from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agent import GraphAgent
from repro.kg.datasets import SCHEMA, covid_kg, enterprise_kg, movie_kg
from repro.kg.graph import KnowledgeGraph
from repro.kg.triples import IRI, RDFS, Literal, Triple
from repro.llm import LLMConfig, SimulatedLLM, load_model
from repro.llm import prompts as P
from repro.llm.faults import FaultInjectingLLM, FaultProfile
from repro.llm.model import (_Mention, _parse_schema_map,
                             _scratchpad_observations, _span_tokens)
from repro.qa.multihop import generate_multihop_questions

from tests.llm.test_prompts import LINE_BREAKS, SPACES


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

    def test_same_size_change_is_seen(self):
        # Add, delete, add: the lexicon ends the size it had after the
        # first add, and the new key must still be found.
        llm = SimulatedLLM()
        a, b = IRI("http://ex.org/a"), IRI("http://ex.org/b")
        llm.entity_lexicon["alice smith"] = a
        assert [m.iri for m in llm.find_mentions("I met Alice Smith")] == [a]
        del llm.entity_lexicon["alice smith"]
        llm.entity_lexicon["bob jones"] = b
        assert [m.iri for m in llm.find_mentions("I met Bob Jones")] == [b]
        assert llm.find_mentions("I met Alice Smith") == []


def _scan_relations(llm, text, extra=None):
    """Reference: the merged relation lexicon, tried longest first at
    every position of the text, keeping matches that overlap no earlier
    one, in text order."""
    lexicon = dict(llm.relation_lexicon)
    lexicon.update(llm.learned_phrases)
    lexicon.update(extra or {})
    lowered = text.lower()
    found, taken = [], []
    for phrase in sorted(lexicon, key=len, reverse=True):
        for index in range(len(lowered)):
            if not lowered.startswith(phrase, index):
                continue
            end = index + len(phrase)
            if all(end <= s or e <= index for s, e in taken):
                found.append((phrase, lexicon[phrase], index))
                taken.append((index, end))
    return sorted(found, key=lambda hit: hit[2])


_PHRASES = st.sampled_from(["alpha", "beta", "alpha beta", "works for",
                            "works", "born in", "in", "gamma ray"])
_LEXICONS = st.sampled_from(["entity_lexicon", "relation_lexicon",
                             "learned_phrases"])
_VALUES = st.integers(0, 3).map(lambda n: IRI(f"http://ex.org/v{n}"))
_MAPPINGS = st.dictionaries(_PHRASES, _VALUES, max_size=3)
#: One lexicon mutation: every dict mutator, reassignment, fine-tuned
#: phrases and absorbing a small KG.
_MUTATIONS = st.one_of(
    st.tuples(st.just("setitem"), _LEXICONS, _PHRASES, _VALUES),
    st.tuples(st.just("delitem"), _LEXICONS, _PHRASES),
    st.tuples(st.just("update"), _LEXICONS, _MAPPINGS),
    st.tuples(st.just("ior"), _LEXICONS, _MAPPINGS),
    st.tuples(st.just("pop"), _LEXICONS, _PHRASES),
    st.tuples(st.just("popitem"), _LEXICONS),
    st.tuples(st.just("clear"), _LEXICONS),
    st.tuples(st.just("setdefault"), _LEXICONS, _PHRASES, _VALUES),
    st.tuples(st.just("assign"), _LEXICONS, _MAPPINGS),
    st.tuples(st.just("learn"), st.lists(st.tuples(_PHRASES, _PHRASES),
                                         max_size=3)),
    st.tuples(st.just("absorb"), _PHRASES, _PHRASES, _PHRASES),
)


def _mutate(llm, op):
    kind, args = op[0], op[1:]
    if kind == "learn":
        llm.learn_relation_phrases(args[0])
        return
    if kind == "absorb":
        # Two labelled entities linked by a labelled property.
        subject, obj, relation = args
        kg = KnowledgeGraph()
        s, o, p = (IRI(f"http://ex.org/{n}") for n in ("s", "o", "p"))
        kg.store.add(Triple(s, RDFS.label, Literal(subject)))
        kg.store.add(Triple(o, RDFS.label, Literal(obj)))
        kg.store.add(Triple(p, RDFS.label, Literal(relation)))
        kg.store.add(Triple(s, p, o))
        llm.absorb_knowledge(kg, coverage=1.0)
        return
    name = args[0]
    lexicon = getattr(llm, name)
    if kind == "setitem":
        lexicon[args[1]] = args[2]
    elif kind == "delitem":
        if args[1] in lexicon:
            del lexicon[args[1]]
    elif kind == "update":
        lexicon.update(args[1])
    elif kind == "ior":
        lexicon |= args[1]
    elif kind == "pop":
        lexicon.pop(args[1], None)
    elif kind == "popitem":
        if lexicon:
            lexicon.popitem()
    elif kind == "clear":
        lexicon.clear()
    elif kind == "setdefault":
        lexicon.setdefault(args[1], args[2])
    else:
        setattr(llm, name, dict(args[1]))


_MEMO_TEXTS = ["Alpha works for Beta", "alpha beta was born in gamma ray",
               "Works for alpha beta in Beta", "nothing here", ""]


class TestGroundingMemo:
    @settings(max_examples=300, deadline=None)
    @given(ops=st.lists(_MUTATIONS, min_size=1, max_size=12),
           extra=_MAPPINGS)
    def test_memo_agrees_with_the_unmemoised_scan(self, ops, extra):
        llm = SimulatedLLM()
        for op in [None] + ops:
            if op is not None:
                _mutate(llm, op)
            for text in _MEMO_TEXTS:
                mentions = llm.find_mentions(text)
                assert mentions == _scan_mentions(llm, text)
                relations = llm.find_relations(text)
                assert relations == _scan_relations(llm, text)
                assert llm.find_relations(text, extra_phrases=extra) == \
                    _scan_relations(llm, text, extra)
                # Each call returns its own list: editing one changes
                # nothing the next call returns.
                mentions.append(_Mention("x", None, 0, 1))
                relations.clear()
                assert llm.find_mentions(text) == _scan_mentions(llm, text)
                assert llm.find_relations(text) == \
                    _scan_relations(llm, text)

    def test_reader_between_any_two_lines_of_a_write_never_goes_stale(self):
        # A tracer grounds every text at each line a lexicon mutator runs:
        # the deterministic form of a reader thread preempting the writer
        # anywhere. A stamp that moved before the contents let that reader
        # remember the old grounding under the new stamp.
        from repro.llm import model as model_module
        llm = SimulatedLLM()
        busy = []

        def read_here(frame, event, arg):
            if event == "line" and not busy:
                busy.append(True)
                try:
                    for text in _MEMO_TEXTS:
                        llm.find_mentions(text)
                        llm.find_relations(text)
                finally:
                    busy.pop()
            return read_here

        def tracer(frame, event, arg):
            if busy or frame.f_code.co_filename != model_module.__file__:
                return None
            return read_here

        ops = [("setitem", "entity_lexicon", "alpha", IRI("http://ex.org/a")),
               ("setitem", "relation_lexicon", "works for",
                IRI("http://ex.org/w")),
               ("setitem", "entity_lexicon", "alpha", IRI("http://ex.org/b")),
               ("update", "learned_phrases", {"born in": IRI("http://ex.org/p")}),
               ("ior", "relation_lexicon", {"works": IRI("http://ex.org/x")}),
               ("setdefault", "entity_lexicon", "beta", IRI("http://ex.org/c")),
               ("pop", "relation_lexicon", "works for"),
               ("delitem", "entity_lexicon", "alpha"),
               ("popitem", "learned_phrases"),
               ("assign", "entity_lexicon", {"gamma ray": IRI("http://ex.org/g")}),
               ("clear", "relation_lexicon"),
               ("learn", [("works", "works")]),
               ("absorb", "alpha", "beta", "works for")]
        for op in ops:
            previous = sys.gettrace()
            sys.settrace(tracer)
            try:
                _mutate(llm, op)
            finally:
                sys.settrace(previous)
            for text in _MEMO_TEXTS:
                assert llm.find_mentions(text) == _scan_mentions(llm, text)
                assert llm.find_relations(text) == \
                    _scan_relations(llm, text)

    def test_threads_share_a_small_memo(self, monkeypatch):
        # Worker threads fill, hit and empty one model's memos at once (a
        # bound of 3 makes them empty it constantly); every result must
        # still be the one a lone caller gets.
        from repro.llm import model as model_module
        monkeypatch.setattr(model_module, "_GROUNDING_MEMO_SIZE", 3)
        llm = SimulatedLLM()
        for key in ("alpha", "beta", "alpha beta"):
            llm.entity_lexicon[key] = IRI(f"http://ex.org/{len(key)}")
        for key in ("works for", "born in", "in"):
            llm.relation_lexicon[key] = IRI(f"http://ex.org/r{len(key)}")
        texts = _MEMO_TEXTS + [f"{t} {n}" for t in _MEMO_TEXTS
                               for n in range(4)]
        expected = {t: (_scan_mentions(llm, t), _scan_relations(llm, t))
                    for t in texts}
        wrong = []

        def reader(offset):
            for round_ in range(40):
                for text in texts[offset:] + texts[:offset]:
                    got = (llm.find_mentions(text), llm.find_relations(text))
                    if got != expected[text]:
                        wrong.append(text)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(n,))
                       for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_mentions_are_frozen(self):
        llm = SimulatedLLM()
        llm.entity_lexicon["alpha"] = IRI("http://ex.org/a")
        mention = llm.find_mentions("alpha")[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            mention.label = "beta"

    def test_copies_and_pickles_take_a_new_stamp(self):
        import copy
        import pickle
        llm = SimulatedLLM()
        llm.entity_lexicon["alpha"] = IRI("http://ex.org/a")
        lexicon = llm.entity_lexicon
        for twin in (copy.copy(lexicon), copy.deepcopy(lexicon),
                     pickle.loads(pickle.dumps(lexicon))):
            assert twin == lexicon and type(twin) is type(lexicon)
            assert twin.version != lexicon.version


def line_loop_scratchpad(text: str):
    """The scratchpad parser before per-line memoisation: the reference,
    as (items, scalar) pairs."""
    out: List[Tuple[List[Tuple[str, str]], Optional[str]]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("Observation:"):
            continue
        body = line[len("Observation:"):].strip()
        items: List[Tuple[str, str]] = []
        scalar = None
        if body and body != "none" and not body.startswith("error"):
            if "|" not in body and "=" in body:
                scalar = body.split("=", 1)[1].strip()
            else:
                for chunk in body.split(";"):
                    ident, _, label = chunk.strip().partition("|")
                    if ident:
                        items.append((ident.strip(), label.strip()))
        out.append((items, scalar))
    return out


_SCRATCH_PIECES = st.one_of(
    st.sampled_from(["Observation:", "Observation", "Thought:", "Action:",
                     "none", "error: boom", "count=3", "a=b|c", "id|label",
                     "x|", "|y", ";", "; ", "=", "|"]),
    st.sampled_from(SPACES),
    st.sampled_from(LINE_BREAKS),
    st.text(max_size=3),
)


class TestScratchpadOracle:
    @settings(max_examples=500, deadline=None)
    @given(pieces=st.lists(_SCRATCH_PIECES, max_size=30))
    def test_parse_equals_the_line_loop(self, pieces):
        text = "".join(pieces)
        for _ in range(2):  # cold, then from the line memo
            got = [(list(o.items), o.scalar)
                   for o in _scratchpad_observations(text)]
            assert got == line_loop_scratchpad(text)


def line_loop_schema_map(schema: str) -> dict:
    """The Schema-section parser before memoisation: the reference."""
    import re
    out = {}
    for line in schema.splitlines():
        match = re.match(r"\s*(.+?)\s*=\s*<([^>]+)>", line)
        if match:
            out[match.group(1).strip().lower()] = match.group(2)
    return out


_SCHEMA_PIECES = st.one_of(
    st.sampled_from(["directed by", "Born In", " = ", "=", "<", ">", "<>",
                     "<http://repro.dev/schema/directedBy>", "a = <b>",
                     "x=<y>z", "==", "<<a>>", "label = <iri"]),
    st.sampled_from(SPACES),
    st.sampled_from(LINE_BREAKS),
    st.text(max_size=3),
)


class TestSchemaMapOracle:
    @settings(max_examples=500, deadline=None)
    @given(pieces=st.lists(_SCHEMA_PIECES, max_size=30))
    def test_parse_equals_the_line_loop(self, pieces):
        schema = "".join(pieces)
        for _ in range(2):  # cold, then from the memo
            parsed = _parse_schema_map(schema)
            assert dict(parsed) == line_loop_schema_map(schema)
            assert list(parsed) == list(line_loop_schema_map(schema))

    def test_result_is_read_only(self):
        parsed = _parse_schema_map("directed by = <http://x/directedBy>")
        with pytest.raises(TypeError):
            parsed["directed by"] = "http://x/other"  # type: ignore[index]
        with pytest.raises(TypeError):
            del parsed["directed by"]  # type: ignore[attr-defined]
        assert _parse_schema_map("directed by = <http://x/directedBy>") \
            == {"directed by": "http://x/directedBy"}


def _agent_questions():
    data = enterprise_kg(n_employees=60, seed=0)
    questions = sorted({q.text for q in generate_multihop_questions(
        data, n=200, hops=2, seed=0)})[:12]
    assert questions
    return data, questions


def _episodes(agent, questions):
    return [(step.prompt, step.response, step.observation, step.fault)
            for question in questions
            for step in agent.run(question).steps]


def _usage_delta(model, run):
    before = dict(model.usage)
    result = run()
    return result, {key: model.usage[key] - before[key]
                    for key in ("calls", "prompt_tokens",
                                "completion_tokens")}


class TestNotACompletionCache:
    """The memos skip re-deriving text structure, never a call: a warm
    model charges and faults exactly like a cold one."""

    def test_warm_model_charges_every_call(self):
        data, questions = _agent_questions()
        model = load_model("chatgpt", world=data.kg, seed=0)
        agent = GraphAgent(model, data.kg, max_steps=8)
        runs = [_usage_delta(model, lambda: _episodes(agent, questions))
                for _ in range(3)]
        assert questions[0] in model._mentions  # the memo is warm
        (cold, cold_usage), warm = runs[0], runs[1:]
        assert cold_usage["calls"] > 0
        for episodes, usage in warm:
            assert episodes == cold
            assert usage == cold_usage

    def test_warm_model_faults_at_the_same_steps(self):
        data, questions = _agent_questions()
        model = load_model("chatgpt", world=data.kg, seed=0)
        runs = []
        for _ in range(3):
            faulty = FaultInjectingLLM(model, FaultProfile.uniform(0.3,
                                                                   seed=5))
            agent = GraphAgent(faulty, data.kg, max_steps=8)
            episodes, usage = _usage_delta(
                model, lambda: _episodes(agent, questions))
            runs.append((episodes, usage, faulty.fault_log))
        assert any(kind != "ok" for _, kind in runs[0][2])
        assert any(fault is not None for *_, fault in runs[0][0])
        assert runs[1] == runs[0] and runs[2] == runs[0]


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
