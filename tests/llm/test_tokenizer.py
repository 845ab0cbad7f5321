"""Unit + property tests for the tokenizer."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm.streaming import stream_chunks
from repro.llm.tokenizer import (
    BOS, EOS, PAD, UNK, WordTokenizer, _TOKEN_RE, count_tokens, word_tokens,
)


class TestWordTokens:
    def test_words_and_punctuation(self):
        assert word_tokens("Hello, world!") == ["hello", ",", "world", "!"]

    def test_case_preserved_when_requested(self):
        assert word_tokens("Hello", lowercase=False) == ["Hello"]

    def test_hyphens_and_apostrophes_stay_in_word(self):
        assert word_tokens("it's state-of-the-art") == ["it's", "state-of-the-art"]

    def test_empty(self):
        assert word_tokens("") == []

    def test_count_tokens(self):
        assert count_tokens("one two three.") == 4

    def test_count_tokens_byte_classes(self):
        # "\x1c" separates like a space; "'" and "-" join words; "_" is a
        # word character, "." and "\x00" are one-character tokens.
        assert count_tokens("a\x1cb") == 2
        assert count_tokens("it's-a_b") == 1
        assert count_tokens(".\x00a.b") == 5
        assert count_tokens("") == 0
        assert count_tokens("caf\xe9 \xa0x") == 3


class TestVocabulary:
    def test_specials_reserved(self):
        tok = WordTokenizer()
        for special in (PAD, UNK, BOS, EOS):
            assert special in tok.token_to_id

    def test_fit_builds_vocab(self):
        tok = WordTokenizer().fit(["the cat sat", "the dog sat"])
        assert "cat" in tok.token_to_id
        assert tok.vocab_size >= 8

    def test_max_vocab_keeps_most_frequent(self):
        tok = WordTokenizer(max_vocab=5).fit(["a a a b b c"])
        assert tok.vocab_size == 5
        assert "a" in tok.token_to_id
        assert "c" not in tok.token_to_id

    def test_encode_decode_roundtrip(self):
        tok = WordTokenizer().fit(["the cat sat on the mat"])
        text = "the cat sat"
        assert tok.decode(tok.encode(text)) == text

    def test_unknown_tokens_map_to_unk(self):
        tok = WordTokenizer().fit(["known words"])
        ids = tok.encode("unknown stuff")
        assert all(i == tok.token_to_id[UNK] for i in ids)

    def test_bos_eos_added_and_stripped(self):
        tok = WordTokenizer().fit(["x"])
        ids = tok.encode("x", add_bos_eos=True)
        assert ids[0] == tok.token_to_id[BOS]
        assert ids[-1] == tok.token_to_id[EOS]
        assert tok.decode(ids) == "x"


@settings(max_examples=60, deadline=None)
@given(text=st.text(max_size=100))
def test_tokenization_never_crashes_and_counts_match(text):
    tokens = word_tokens(text)
    assert all(t == t.lower() for t in tokens)
    assert count_tokens(text) == len(word_tokens(text, lowercase=False))


#: Mostly ASCII, so the byte-class counter does the counting: every ASCII
#: character, with the class edges weighted up (``\\s`` matches
#: ``\\x1c``-``\\x1f``, ``\\x0b`` and ``\\x0c``; ``'``, ``-`` and ``_`` are word
#: characters), plus a few non-ASCII characters for the regex fallback.
ASCII_EDGES = "\x1c\x1d\x1e\x1f\x0b\x0c'-_"
ascii_texts = st.text(alphabet=st.one_of(
    st.characters(max_codepoint=0x7f), st.sampled_from(ASCII_EDGES)),
    max_size=60)
mostly_ascii_texts = st.text(alphabet=st.one_of(
    st.characters(max_codepoint=0x7f), st.sampled_from(ASCII_EDGES),
    st.sampled_from("\x85\xa0\xe9")), max_size=60)


@settings(max_examples=400, deadline=None)
@given(text=mostly_ascii_texts)
def test_count_tokens_equals_regex_count(text):
    assert count_tokens(text) == len(_TOKEN_RE.findall(text))


@settings(max_examples=200, deadline=None)
@given(text=ascii_texts)
def test_count_tokens_is_additive_over_stream_chunks(text):
    assert sum(count_tokens(chunk) for chunk in stream_chunks(text)) == \
        count_tokens(text)


@settings(max_examples=40, deadline=None)
@given(words=st.lists(st.sampled_from(["alpha", "beta", "gamma", "delta"]),
                      min_size=1, max_size=20))
def test_encode_decode_roundtrip_property(words):
    text = " ".join(words)
    tok = WordTokenizer().fit([text])
    assert tok.decode(tok.encode(text)) == text
