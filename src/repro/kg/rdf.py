"""N-Triples and Turtle-subset serialization.

Interchange so KGs built here can be inspected or diffed as text. We
implement N-Triples fully (it is line-oriented and regular) and a pragmatic
Turtle subset (prefixes + predicate lists) for compact human-readable dumps.

:func:`ntriples_lines` is the one N-Triples writer: documents, WAL records
and snapshots all use it. A literal escapes backslash, quote, line feed and
carriage return, so the line feed is the only line separator and the
readers split on it alone: ``str.splitlines`` would also break inside a
literal at a form feed, ``U+0085`` or ``U+2028``.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, Iterator, List, Optional, TextIO, Union

from repro.kg.store import TripleStore
from repro.kg.triples import IRI, Literal, Term, Triple


class RDFSyntaxError(ValueError):
    """Raised when a serialized RDF document cannot be parsed."""


_NT_IRI = r"<([^<>\"{}|^`\\\x00-\x20]*)>"
_NT_LITERAL = r'"((?:[^"\\]|\\.)*)"(?:\^\^<([^<>]*)>|@([A-Za-z][A-Za-z0-9-]*))?'
_NT_LINE = re.compile(
    rf"^\s*{_NT_IRI}\s+{_NT_IRI}\s+(?:{_NT_IRI}|{_NT_LITERAL})\s*\.\s*$"
)


_ECHAR = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
          '"': '"', "'": "'", "\\": "\\"}
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def _unescape(text: str) -> str:
    """Decode N-Triples escapes in one left-to-right pass.

    One pass, so the escaped backslash in ``\\\\n`` stays a backslash
    followed by ``n``. An unknown escape is kept as written.
    """
    if "\\" not in text:
        return text
    return _ESCAPE.sub(lambda m: _ECHAR.get(m.group(1), m.group(0)), text)


def ntriples_lines(triples: Iterable[Triple]) -> List[str]:
    """One N-Triples line per triple, without the newline.

    Each line equals ``triple.n3()``. The all-IRI triple, the bulk of
    what the WAL logs on the bulk-load path and the snapshot writes per
    compaction, is one f-string: terms are tuples of their fields, and
    indexing them is cheaper than their properties. A literal object is
    written by :meth:`Literal.n3`.
    """
    lines: List[str] = []
    append = lines.append
    for s, p, o in triples:
        if type(o) is IRI:
            append(f"<{s[0]}> <{p[0]}> <{o[0]}> .")
        else:
            append(f"<{s[0]}> <{p[0]}> {o.n3()} .")
    return lines


def parse_ntriples_line(line: str) -> Optional[Triple]:
    """Parse one N-Triples line; returns None for blank/comment lines."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    m = _NT_LINE.match(line)
    if m is None:
        raise RDFSyntaxError(f"malformed N-Triples line: {line!r}")
    subject_iri, predicate_iri, object_iri, lex, datatype, language = m.groups()
    subject = IRI(subject_iri)
    predicate = IRI(predicate_iri)
    obj: Term
    if object_iri is not None:
        obj = IRI(object_iri)
    else:
        obj = Literal(_unescape(lex), datatype=datatype, language=language)
    return Triple(subject, predicate, obj)


def loads_ntriples(text: str) -> List[Triple]:
    """Parse an N-Triples document from a string."""
    out = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        try:
            triple = parse_ntriples_line(line)
        except RDFSyntaxError as exc:
            raise RDFSyntaxError(f"line {lineno}: {exc}") from exc
        if triple is not None:
            out.append(triple)
    return out


def dumps_ntriples(triples: Iterable[Triple]) -> str:
    """Serialize triples to an N-Triples document string."""
    return "".join(line + "\n" for line in ntriples_lines(triples))


def load_ntriples(path_or_file: Union[str, TextIO]) -> TripleStore:
    """Read an N-Triples file into a fresh :class:`TripleStore`."""
    if isinstance(path_or_file, str):
        with open(path_or_file, "r", encoding="utf-8", newline="\n") as handle:
            return TripleStore(loads_ntriples(handle.read()))
    return TripleStore(loads_ntriples(path_or_file.read()))


def dump_ntriples(store: Iterable[Triple], path_or_file: Union[str, TextIO]) -> None:
    """Write triples to an N-Triples file."""
    text = dumps_ntriples(store)
    if isinstance(path_or_file, str):
        with open(path_or_file, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        path_or_file.write(text)


def dumps_turtle(store: Iterable[Triple], prefixes: Optional[Dict[str, str]] = None) -> str:
    """Serialize triples to a compact Turtle subset.

    Groups triples by subject and emits predicate lists. ``prefixes`` maps
    prefix labels to IRI prefixes, e.g. ``{"ex": "http://example.org/"}``.
    """
    prefixes = dict(prefixes or {})
    lines: List[str] = [f"@prefix {label}: <{iri}> ." for label, iri in sorted(prefixes.items())]
    if lines:
        lines.append("")

    def shorten(term: Term) -> str:
        if isinstance(term, Literal):
            return term.n3()
        for label, prefix in prefixes.items():
            if term.value.startswith(prefix):
                local = term.value[len(prefix):]
                if local and re.fullmatch(r"[A-Za-z_][\w.-]*", local):
                    return f"{label}:{local}"
        return term.n3()

    by_subject: Dict[IRI, List[Triple]] = {}
    for t in store:
        by_subject.setdefault(t.subject, []).append(t)
    for subject in sorted(by_subject, key=lambda s: s.value):
        group = sorted(by_subject[subject], key=lambda t: (t.predicate.value, t.object.n3()))
        parts = [f"{shorten(t.predicate)} {shorten(t.object)}" for t in group]
        lines.append(f"{shorten(subject)} " + " ;\n    ".join(parts) + " .")
    return "\n".join(lines) + "\n"


_TTL_PREFIX = re.compile(r"^@prefix\s+([A-Za-z][\w-]*):\s*<([^>]*)>\s*\.\s*$")


def loads_turtle(text: str) -> List[Triple]:
    """Parse the Turtle subset produced by :func:`dumps_turtle`.

    Supports ``@prefix`` declarations, prefixed names, IRIs in angle
    brackets, literals with datatype/language, and ``;`` predicate lists.
    Not a general Turtle parser — it round-trips our own output.
    """
    prefixes: Dict[str, str] = {}
    triples: List[Triple] = []
    # Re-join predicate-list continuations into single statements.
    statements: List[str] = []
    buffer = ""
    for raw_line in text.split("\n"):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        m = _TTL_PREFIX.match(line)
        if m:
            prefixes[m.group(1)] = m.group(2)
            continue
        buffer = f"{buffer} {line}".strip()
        if buffer.endswith("."):
            statements.append(buffer[:-1].strip())
            buffer = ""
    if buffer:
        raise RDFSyntaxError(f"unterminated statement: {buffer!r}")

    term_pattern = re.compile(
        rf"{_NT_IRI}|{_NT_LITERAL}|([A-Za-z][\w-]*):([\w.-]+)"
    )

    def parse_term(token: str) -> Term:
        m = term_pattern.fullmatch(token)
        if m is None:
            raise RDFSyntaxError(f"cannot parse term {token!r}")
        iri, lex, datatype, language, prefix, local = m.groups()
        if iri is not None:
            return IRI(iri)
        if prefix is not None:
            if prefix not in prefixes:
                raise RDFSyntaxError(f"undeclared prefix {prefix!r}")
            return IRI(prefixes[prefix] + local)
        return Literal(_unescape(lex), datatype=datatype, language=language)

    def split_terms(chunk: str) -> List[str]:
        tokens = []
        for m in term_pattern.finditer(chunk):
            tokens.append(m.group(0))
        return tokens

    for statement in statements:
        segments = [seg.strip() for seg in statement.split(";")]
        first_tokens = split_terms(segments[0])
        if len(first_tokens) != 3:
            raise RDFSyntaxError(f"expected subject predicate object in {segments[0]!r}")
        subject = parse_term(first_tokens[0])
        if not isinstance(subject, IRI):
            raise RDFSyntaxError("subject must be an IRI")
        predicate = parse_term(first_tokens[1])
        if not isinstance(predicate, IRI):
            raise RDFSyntaxError("predicate must be an IRI")
        triples.append(Triple(subject, predicate, parse_term(first_tokens[2])))
        for segment in segments[1:]:
            tokens = split_terms(segment)
            if len(tokens) != 2:
                raise RDFSyntaxError(f"expected predicate object in {segment!r}")
            predicate = parse_term(tokens[0])
            if not isinstance(predicate, IRI):
                raise RDFSyntaxError("predicate must be an IRI")
            triples.append(Triple(subject, predicate, parse_term(tokens[1])))
    return triples
