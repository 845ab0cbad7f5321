"""Tokenizer for the SPARQL subset."""

from __future__ import annotations

import re
from typing import List, NamedTuple


class SparqlLexError(ValueError):
    """Raised on characters the lexer cannot tokenize."""


class Token(NamedTuple):
    """One lexical token with its source position (for error messages)."""

    kind: str
    text: str
    position: int


_KEYWORDS = {
    "SELECT", "ASK", "WHERE", "FILTER", "OPTIONAL", "UNION", "DISTINCT",
    "ORDER", "BY", "ASC", "DESC", "LIMIT", "OFFSET", "PREFIX", "AS",
    "COUNT", "GROUP", "NOT", "IN", "A",
}

_TOKEN_SPEC = [
    ("WS", r"[ \t\r\n]+"),
    ("COMMENT", r"#[^\n]*"),
    ("IRIREF", r"<[^<>\"{}|^`\\\x00-\x20]*>"),
    ("VAR", r"[?$][A-Za-z_][A-Za-z0-9_]*"),
    ("STRING", r'"(?:[^"\\]|\\.)*"'),
    ("LANGTAG", r"@[A-Za-z]+(?:-[A-Za-z0-9]+)*"),
    ("DTYPE", r"\^\^"),
    ("NUMBER", r"[+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"),
    ("PNAME", r"[A-Za-z_][A-Za-z0-9_-]*:[A-Za-z_][A-Za-z0-9_.-]*"),
    ("PNAME_NS", r"[A-Za-z_][A-Za-z0-9_-]*:"),
    ("NAME", r"[A-Za-z_][A-Za-z0-9_]*"),
    ("NEQ", r"!="),
    ("LE", r"<="),
    ("GE", r">="),
    ("ANDAND", r"&&"),
    ("OROR", r"\|\|"),
    ("EQ", r"="),
    ("LT", r"<"),
    ("GT", r">"),
    ("BANG", r"!"),
    ("LBRACE", r"\{"),
    ("RBRACE", r"\}"),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("DOT", r"\."),
    ("SEMICOLON", r";"),
    ("COMMA", r","),
    ("STAR", r"\*"),
    ("PLUS", r"\+"),
    ("CARET", r"\^"),
    ("SLASH", r"/"),
]

#: Builds a ``Token`` from its three fields without ``NamedTuple``'s
#: Python-level ``__new__``.
_token = tuple.__new__

_MASTER = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in _TOKEN_SPEC))


def tokenize(text: str) -> List[Token]:
    """Tokenize a query string; raises :class:`SparqlLexError` on junk.

    One ``finditer`` scan. No token pattern matches the empty string, so a
    match starting past where the previous one ended means the characters
    between them match no token.
    """
    tokens: List[Token] = []
    append = tokens.append
    position = 0
    for m in _MASTER.finditer(text):
        start = m.start()
        if start != position:
            break
        position = m.end()
        kind = m.lastgroup
        if kind in ("WS", "COMMENT"):
            continue
        value = m.group()
        if kind == "NAME" and value.upper() in _KEYWORDS:
            kind = value.upper()
        append(_token(Token, (kind, value, start)))
    if position != len(text):
        raise SparqlLexError(f"unexpected character {text[position]!r} at offset {position}")
    append(Token("EOF", "", len(text)))
    return tokens
