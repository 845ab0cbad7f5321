"""Unit tests for the SPARQL lexer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparql.lexer import _KEYWORDS, _MASTER, SparqlLexError, tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)]


class TestTokenize:
    def test_keywords_case_insensitive(self):
        assert kinds("select WHERE")[:2] == ["SELECT", "WHERE"]

    def test_variable(self):
        tokens = tokenize("?name $other")
        assert tokens[0].kind == "VAR" and tokens[0].text == "?name"
        assert tokens[1].kind == "VAR"

    def test_iriref(self):
        assert kinds("<http://x/a>")[0] == "IRIREF"

    def test_prefixed_name(self):
        assert kinds("foaf:name")[0] == "PNAME"

    def test_prefix_namespace(self):
        assert kinds("foaf:")[0] == "PNAME_NS"

    def test_string_with_escape(self):
        tokens = tokenize('"he said \\"hi\\""')
        assert tokens[0].kind == "STRING"

    def test_langtag(self):
        assert kinds('"x"@en')[:2] == ["STRING", "LANGTAG"]

    def test_datatype_marker(self):
        assert kinds('"1"^^<http://x/int>') == ["STRING", "DTYPE", "IRIREF", "EOF"]

    def test_numbers(self):
        tokens = tokenize("42 3.14 -7")
        assert all(t.kind == "NUMBER" for t in tokens[:-1])

    def test_operators(self):
        assert kinds("= != < <= > >= && || !")[:-1] == [
            "EQ", "NEQ", "LT", "LE", "GT", "GE", "ANDAND", "OROR", "BANG"]

    def test_punctuation(self):
        assert kinds("{ } ( ) . ; , *")[:-1] == [
            "LBRACE", "RBRACE", "LPAREN", "RPAREN", "DOT", "SEMICOLON",
            "COMMA", "STAR"]

    def test_comment_skipped(self):
        assert kinds("SELECT # comment here\n?x") == ["SELECT", "VAR", "EOF"]

    def test_a_keyword(self):
        assert kinds("a")[0] == "A"

    def test_positions_recorded(self):
        tokens = tokenize("SELECT ?x")
        assert tokens[0].position == 0
        assert tokens[1].position == 7

    def test_eof_always_present(self):
        assert tokenize("")[-1].kind == "EOF"


# ---------------------------------------------------------------------------
# Property: the single-scan tokenizer matches a per-position match loop
# ---------------------------------------------------------------------------

def _match_loop(text):
    """The reference tokenizer: one anchored ``_MASTER.match`` per token."""
    tokens = []
    position = 0
    while position < len(text):
        m = _MASTER.match(text, position)
        if m is None:
            raise SparqlLexError(
                f"unexpected character {text[position]!r} at offset {position}")
        kind = m.lastgroup or ""
        value = m.group()
        position = m.end()
        if kind in ("WS", "COMMENT"):
            continue
        if kind == "NAME" and value.upper() in _KEYWORDS:
            kind = value.upper()
        tokens.append((kind, value, m.start()))
    tokens.append(("EOF", "", len(text)))
    return tokens


# The SPARQL alphabet plus characters no token accepts ('%', '~', '`', '[',
# ']', '\'' and non-ASCII), so gaps land anywhere in the string.
_ALPHABET = ("SELCTWHRFIOPNAUDKBYmxyz_019?$:<>\"\\{}().;,*+-^/!=&|@#eE"
             " \t\n%~`[]'\u00e9\x00")
_FRAGMENTS = ["SELECT", "where", "?x", "$y", "<http://x/a>", "ex:name",
              "ex:", '"a\\"b"', "@en-GB", "^^", "-1.5e3", "&&", "||", "!=",
              "<=", ">=", "# note\n", "{", "}", "(", ")", ".", ";", " ", "\n",
              "%", "~", "<a b>", '"open']


@settings(max_examples=400, deadline=None)
@given(text=st.one_of(
    st.text(alphabet=_ALPHABET, max_size=40),
    st.lists(st.sampled_from(_FRAGMENTS), max_size=12).map("".join)))
def test_tokenize_matches_match_loop(text):
    try:
        expected = _match_loop(text)
    except SparqlLexError as exc:
        with pytest.raises(SparqlLexError) as raised:
            tokenize(text)
        assert str(raised.value) == str(exc)
    else:
        assert [(t.kind, t.text, t.position) for t in tokenize(text)] == expected
