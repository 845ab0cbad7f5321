"""RDF-style terms and triples.

The survey's KG side is grounded in RDF-ish graphs (Freebase, Wikidata,
DBpedia). We model the three RDF term kinds we need — IRIs and literals
(blank nodes are represented as IRIs under the ``_:`` scheme) — and the
triple as immutable ``tuple`` subclasses, so the store's index probes hash
and compare them in C.

Each term is the tuple of its fields: ``IRI(value)``, ``Literal(lexical,
datatype, language)`` and ``Triple(subject, predicate, object)``. Its hash
is the hash of that tuple and its repr reads ``IRI(value='...')``; set and
dict orders and the golden digests depend on both. A term equals the plain
tuple of its fields and unpacks. Terms of different kinds never compare
equal, because their lengths or element types differ. The terms are not
``NamedTuple``s, because Hypothesis's ``st.builds`` treats every field of
one as required.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional, Tuple, Union


class IRI(tuple):
    """An IRI reference identifying an entity, class, or property.

    ``value`` is the full IRI string, e.g. ``"http://repro.dev/kg/Alice"``.
    """

    __slots__ = ()

    def __new__(cls, value: str) -> "IRI":
        if not value:
            raise ValueError("IRI value must be a non-empty string")
        return tuple.__new__(cls, (value,))

    value = property(itemgetter(0))

    def __getnewargs__(self) -> Tuple[str]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"IRI(value={self[0]!r})"

    @property
    def local_name(self) -> str:
        """The fragment after the last ``#`` or ``/`` — a human-ish label."""
        for sep in ("#", "/", ":"):
            if sep in self.value:
                tail = self.value.rsplit(sep, 1)[1]
                if tail:
                    return tail
        return self.value

    def n3(self) -> str:
        """N-Triples serialization of this term."""
        return f"<{self.value}>"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.value


class Literal(tuple):
    """An RDF literal: a lexical form plus optional datatype or language tag.

    An empty datatype or language tag is stored as ``None``, as :meth:`n3`
    already writes it, so such a literal survives a serialization round trip.
    """

    __slots__ = ()

    def __new__(cls, lexical: str, datatype: Optional[str] = None,
                language: Optional[str] = None) -> "Literal":
        if datatype is not None and language is not None:
            raise ValueError("a literal cannot carry both a datatype and a language tag")
        return tuple.__new__(cls, (lexical, datatype or None, language or None))

    lexical = property(itemgetter(0))
    datatype = property(itemgetter(1))
    language = property(itemgetter(2))

    def __getnewargs__(self) -> Tuple[str, Optional[str], Optional[str]]:
        return tuple(self)

    def __repr__(self) -> str:
        return (f"Literal(lexical={self[0]!r}, datatype={self[1]!r}, "
                f"language={self[2]!r})")

    @property
    def value(self) -> Union[str, int, float, bool]:
        """The Python value of the literal, decoded from its datatype."""
        if self.datatype == XSD.integer:
            return int(self.lexical)
        if self.datatype in (XSD.decimal, XSD.double, XSD.float):
            return float(self.lexical)
        if self.datatype == XSD.boolean:
            return self.lexical in ("true", "1")
        return self.lexical

    def n3(self) -> str:
        """N-Triples serialization of this term."""
        # N-Triples requires backslash, quote, line feed and carriage
        # return escaped; every other character is written as itself.
        escaped = (self.lexical.replace("\\", "\\\\").replace('"', '\\"')
                   .replace("\n", "\\n").replace("\r", "\\r"))
        if self.language:
            return f'"{escaped}"@{self.language}'
        if self.datatype:
            return f'"{escaped}"^^<{self.datatype}>'
        return f'"{escaped}"'

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.lexical


Term = Union[IRI, Literal]


def term_from_python(value: Union[str, int, float, bool, IRI, Literal]) -> Term:
    """Coerce a plain Python value into an RDF term.

    Strings become plain literals; use :class:`IRI` explicitly for IRIs.
    """
    if isinstance(value, (IRI, Literal)):
        return value
    if isinstance(value, bool):
        return Literal("true" if value else "false", datatype=XSD.boolean)
    if isinstance(value, int):
        return Literal(str(value), datatype=XSD.integer)
    if isinstance(value, float):
        return Literal(repr(value), datatype=XSD.double)
    if isinstance(value, str):
        return Literal(value)
    raise TypeError(f"cannot convert {type(value).__name__} to an RDF term")


class Triple(tuple):
    """A single (subject, predicate, object) statement.

    Subjects and predicates are IRIs; objects may be IRIs or literals.
    """

    __slots__ = ()

    def __new__(cls, subject: IRI, predicate: IRI, object: Term) -> "Triple":
        if not isinstance(subject, IRI):
            raise TypeError("triple subject must be an IRI")
        if not isinstance(predicate, IRI):
            raise TypeError("triple predicate must be an IRI")
        if not isinstance(object, (IRI, Literal)):
            raise TypeError("triple object must be an IRI or a Literal")
        return tuple.__new__(cls, (subject, predicate, object))

    subject = property(itemgetter(0))
    predicate = property(itemgetter(1))
    object = property(itemgetter(2))

    def __getnewargs__(self) -> Tuple[IRI, IRI, Term]:
        return tuple(self)

    def __repr__(self) -> str:
        return (f"Triple(subject={self[0]!r}, predicate={self[1]!r}, "
                f"object={self[2]!r})")

    def as_tuple(self) -> Tuple[IRI, IRI, Term]:
        """The triple as a plain 3-tuple (subject, predicate, object)."""
        return (self.subject, self.predicate, self.object)

    def n3(self) -> str:
        """One N-Triples line (without the trailing newline)."""
        return f"{self.subject.n3()} {self.predicate.n3()} {self.object.n3()} ."

    def replace(self, subject: Optional[IRI] = None, predicate: Optional[IRI] = None,
                object: Optional[Term] = None) -> "Triple":
        """A copy of this triple with the given positions substituted."""
        return Triple(
            subject if subject is not None else self.subject,
            predicate if predicate is not None else self.predicate,
            object if object is not None else self.object,
        )


class Namespace:
    """A convenience factory minting IRIs under a common prefix.

    >>> EX = Namespace("http://example.org/")
    >>> EX.Alice
    IRI(value='http://example.org/Alice')
    >>> EX["knows"]
    IRI(value='http://example.org/knows')
    """

    def __init__(self, prefix: str):
        if not prefix:
            raise ValueError("namespace prefix must be non-empty")
        self.prefix = prefix

    def __getattr__(self, name: str) -> IRI:
        if name.startswith("_"):
            raise AttributeError(name)
        return IRI(self.prefix + name)

    def __getitem__(self, name: str) -> IRI:
        return IRI(self.prefix + name)

    def term(self, name: str) -> IRI:
        """Mint an IRI for ``name`` under this namespace."""
        return IRI(self.prefix + name)

    def __contains__(self, term: Term) -> bool:
        return isinstance(term, IRI) and term.value.startswith(self.prefix)

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"Namespace({self.prefix!r})"


class _XSD:
    """The XML Schema datatypes used by :class:`Literal`."""

    integer = "http://www.w3.org/2001/XMLSchema#integer"
    decimal = "http://www.w3.org/2001/XMLSchema#decimal"
    double = "http://www.w3.org/2001/XMLSchema#double"
    float = "http://www.w3.org/2001/XMLSchema#float"
    boolean = "http://www.w3.org/2001/XMLSchema#boolean"
    string = "http://www.w3.org/2001/XMLSchema#string"
    date = "http://www.w3.org/2001/XMLSchema#date"
    gYear = "http://www.w3.org/2001/XMLSchema#gYear"


XSD = _XSD()

RDF = Namespace("http://www.w3.org/1999/02/22-rdf-syntax-ns#")
RDFS = Namespace("http://www.w3.org/2000/01/rdf-schema#")
OWL = Namespace("http://www.w3.org/2002/07/owl#")

#: The default namespace for entities minted by this toolkit.
REPRO = Namespace("http://repro.dev/kg/")
