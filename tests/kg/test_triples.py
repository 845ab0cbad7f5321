"""Unit tests for RDF terms and triples."""

import copy
import itertools
import operator
import pickle
from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kg.triples import (
    IRI, Literal, Namespace, Triple, XSD, term_from_python,
)


class TestIRI:
    def test_local_name_hash_separator(self):
        assert IRI("http://example.org/ns#Alice").local_name == "Alice"

    def test_local_name_slash_separator(self):
        assert IRI("http://example.org/Alice").local_name == "Alice"

    def test_empty_iri_rejected(self):
        with pytest.raises(ValueError):
            IRI("")

    def test_n3(self):
        assert IRI("http://x/a").n3() == "<http://x/a>"

    def test_equality_and_hash(self):
        assert IRI("http://x/a") == IRI("http://x/a")
        assert hash(IRI("http://x/a")) == hash(IRI("http://x/a"))
        assert IRI("http://x/a") != IRI("http://x/b")


class TestLiteral:
    def test_plain_literal_value(self):
        assert Literal("hello").value == "hello"

    def test_integer_value(self):
        assert Literal("42", datatype=XSD.integer).value == 42

    def test_double_value(self):
        assert Literal("3.5", datatype=XSD.double).value == 3.5

    def test_boolean_value(self):
        assert Literal("true", datatype=XSD.boolean).value is True
        assert Literal("false", datatype=XSD.boolean).value is False

    def test_datatype_and_language_mutually_exclusive(self):
        with pytest.raises(ValueError):
            Literal("x", datatype=XSD.string, language="en")

    def test_n3_plain(self):
        assert Literal("hi").n3() == '"hi"'

    def test_n3_language(self):
        assert Literal("hi", language="en").n3() == '"hi"@en'

    def test_n3_datatype(self):
        assert Literal("1", datatype=XSD.integer).n3() == \
            f'"1"^^<{XSD.integer}>'

    def test_n3_escaping(self):
        assert Literal('say "hi"\n').n3() == '"say \\"hi\\"\\n"'


class TestTermFromPython:
    def test_string_becomes_plain_literal(self):
        assert term_from_python("x") == Literal("x")

    def test_int(self):
        assert term_from_python(7) == Literal("7", datatype=XSD.integer)

    def test_bool_before_int(self):
        # bool is a subclass of int; must map to xsd:boolean, not integer.
        assert term_from_python(True) == Literal("true", datatype=XSD.boolean)

    def test_float(self):
        assert term_from_python(2.5).datatype == XSD.double

    def test_iri_passthrough(self):
        iri = IRI("http://x/a")
        assert term_from_python(iri) is iri

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            term_from_python(object())


class TestTriple:
    def test_requires_iri_subject(self):
        with pytest.raises(TypeError):
            Triple(Literal("x"), IRI("http://x/p"), Literal("y"))

    def test_requires_iri_predicate(self):
        with pytest.raises(TypeError):
            Triple(IRI("http://x/s"), Literal("p"), Literal("y"))

    def test_n3_line(self):
        t = Triple(IRI("http://x/s"), IRI("http://x/p"), Literal("o"))
        assert t.n3() == '<http://x/s> <http://x/p> "o" .'

    def test_replace(self):
        t = Triple(IRI("http://x/s"), IRI("http://x/p"), Literal("o"))
        replaced = t.replace(object=Literal("new"))
        assert replaced.subject == t.subject
        assert replaced.object == Literal("new")
        assert t.object == Literal("o")  # original untouched


class TestNamespace:
    def test_attribute_minting(self):
        ns = Namespace("http://example.org/")
        assert ns.Alice == IRI("http://example.org/Alice")

    def test_item_minting(self):
        ns = Namespace("http://example.org/")
        assert ns["born in"] == IRI("http://example.org/born in")

    def test_contains(self):
        ns = Namespace("http://example.org/")
        assert ns.Alice in ns
        assert IRI("http://other/Alice") not in ns

    def test_empty_prefix_rejected(self):
        with pytest.raises(ValueError):
            Namespace("")


# ---------------------------------------------------------------------------
# Property: the terms keep the contract of frozen, ordered dataclasses
# ---------------------------------------------------------------------------
#
# The three classes below define the terms as ``@dataclass(frozen=True,
# order=True)`` classes. They are the reference the tuple-based terms must
# match: repr, hash, equality, ordering within a kind, accessors and
# validation errors.

@dataclass(frozen=True, order=True)
class _RefIRI:
    value: str

    def __post_init__(self) -> None:
        if not self.value:
            raise ValueError("IRI value must be a non-empty string")

    @property
    def local_name(self) -> str:
        for sep in ("#", "/", ":"):
            if sep in self.value:
                tail = self.value.rsplit(sep, 1)[1]
                if tail:
                    return tail
        return self.value

    def n3(self) -> str:
        return f"<{self.value}>"


@dataclass(frozen=True, order=True)
class _RefLiteral:
    lexical: str
    datatype: Optional[str] = None
    language: Optional[str] = None

    def __post_init__(self) -> None:
        if self.datatype is not None and self.language is not None:
            raise ValueError("a literal cannot carry both a datatype and a language tag")

    @property
    def value(self):
        if self.datatype == XSD.integer:
            return int(self.lexical)
        if self.datatype in (XSD.decimal, XSD.double, XSD.float):
            return float(self.lexical)
        if self.datatype == XSD.boolean:
            return self.lexical in ("true", "1")
        return self.lexical

    def n3(self) -> str:
        escaped = (
            self.lexical.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        )
        if self.language:
            return f'"{escaped}"@{self.language}'
        if self.datatype:
            return f'"{escaped}"^^<{self.datatype}>'
        return f'"{escaped}"'


@dataclass(frozen=True, order=True)
class _RefTriple:
    subject: _RefIRI
    predicate: _RefIRI
    object: object

    def __post_init__(self) -> None:
        if not isinstance(self.subject, _RefIRI):
            raise TypeError("triple subject must be an IRI")
        if not isinstance(self.predicate, _RefIRI):
            raise TypeError("triple predicate must be an IRI")
        if not isinstance(self.object, (_RefIRI, _RefLiteral)):
            raise TypeError("triple object must be an IRI or a Literal")

    def as_tuple(self):
        return (self.subject, self.predicate, self.object)

    def n3(self) -> str:
        return f"{self.subject.n3()} {self.predicate.n3()} {self.object.n3()} ."


# The dataclass repr prints ``__qualname__``; name the references like the
# classes they stand for so the two reprs can be compared byte for byte.
_RefIRI.__qualname__ = "IRI"
_RefLiteral.__qualname__ = "Literal"
_RefTriple.__qualname__ = "Triple"

_NEW = {"iri": IRI, "lit": Literal, "triple": Triple}
_REF = {"iri": _RefIRI, "lit": _RefLiteral, "triple": _RefTriple}

# Small alphabets so equal and prefix-equal fields come up often.
_short = st.text(alphabet="ab/#:", max_size=3)
_tag = st.one_of(st.none(), st.text(alphabet="ab", min_size=1, max_size=2),
                 st.sampled_from([XSD.integer, XSD.double, XSD.boolean]))
_lexical = st.one_of(_short, st.sampled_from(["1", "2.5", "true", 'q"\n\\']))

_iri_spec = st.builds(lambda v: ("iri", v), _short.filter(bool))
_literal_spec = st.one_of(
    st.builds(lambda lex: ("lit", lex, None, None), _lexical),
    st.builds(lambda lex, dt: ("lit", lex, dt, None), _lexical, _tag),
    st.builds(lambda lex, lang: ("lit", lex, None, lang), _lexical, _tag),
)
_object_spec = st.one_of(_iri_spec, _literal_spec)
_triple_spec = st.builds(lambda s, p, o: ("triple", s, p, o),
                         _iri_spec, _iri_spec, _object_spec)
_term_spec = st.one_of(_iri_spec, _literal_spec, _triple_spec)


def _build(spec, classes):
    """Build the term ``spec`` describes from ``classes`` (new or reference)."""
    kind, *args = spec
    args = [_build(a, classes) if isinstance(a, tuple) else a for a in args]
    return classes[kind](*args)


def _outcome(fn, *args):
    """``fn(*args)``'s result, or the type and message of what it raised."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return ("raised", type(exc), str(exc))


def _accessors(term):
    kind = type(term).__qualname__
    if kind == "IRI":
        return (term.value, term.local_name, term.n3())
    if kind == "Literal":
        return (term.lexical, term.datatype, term.language, term.n3(),
                _outcome(lambda: term.value))
    return (repr(term.as_tuple()), term.n3(),
            repr((term.subject, term.predicate, term.object)))


class TestTermContractProperty:
    @settings(max_examples=300, deadline=None)
    @given(specs=st.lists(_term_spec, min_size=1, max_size=6))
    def test_matches_frozen_dataclass(self, specs):
        new = [_build(s, _NEW) for s in specs]
        ref = [_build(s, _REF) for s in specs]
        for term, twin in zip(new, ref):
            assert repr(term) == repr(twin)
            assert hash(term) == hash(twin)
            assert _accessors(term) == _accessors(twin)
        for (a, ra), (b, rb) in itertools.product(zip(new, ref), repeat=2):
            assert (a == b) == (ra == rb)
            assert (a != b) == (ra != rb)
            if type(a) is type(b):
                # Where the dataclass ordered two terms, the tuple orders them
                # the same way. Where it raised (an IRI object against a
                # literal one inside two triples) the tuple may order them.
                for op in (operator.lt, operator.le, operator.gt, operator.ge):
                    expected = _outcome(op, ra, rb)
                    if expected[0] == "ok":
                        assert _outcome(op, a, b) == expected
            else:
                assert a != b and not a == b

    @settings(max_examples=150, deadline=None)
    @given(spec=_term_spec)
    def test_pickle_copy_and_immutability(self, spec):
        term = _build(spec, _NEW)
        copies = [pickle.loads(pickle.dumps(term, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(term), copy.deepcopy(term)]
        for twin in copies:
            assert type(twin) is type(term)
            assert twin == term and hash(twin) == hash(term)
            assert repr(twin) == repr(term)
        for name in ("value", "lexical", "subject", "object", "fresh"):
            with pytest.raises(AttributeError):
                setattr(term, name, IRI("http://x/z"))

    _raw = st.one_of(st.none(), st.just(""), st.just("a"), st.just(7))

    @settings(max_examples=200, deadline=None)
    @given(value=_raw, lexical=_raw, datatype=_raw, language=_raw,
           positions=st.tuples(*[st.sampled_from(["iri", "lit", "str"])] * 3))
    def test_same_validation_errors(self, value, lexical, datatype, language,
                                    positions):
        def made(classes):
            return _outcome(lambda: repr(classes["iri"](value)))

        assert made(_NEW) == made(_REF)
        # Validation compares raw arguments, so an empty tag is still a tag
        # here even though a valid literal stores it as ``None``.
        new_lit = _outcome(Literal, lexical, datatype, language)
        ref_lit = _outcome(_RefLiteral, lexical, datatype, language)
        assert new_lit[0] == ref_lit[0]
        if new_lit[0] == "raised":
            assert new_lit == ref_lit

        def parts(classes):
            pick = {"iri": classes["iri"]("http://x/a"),
                    "lit": classes["lit"]("a"), "str": "http://x/a"}
            return [pick[p] for p in positions]

        assert _outcome(lambda: repr(Triple(*parts(_NEW)))) == \
            _outcome(lambda: repr(_RefTriple(*parts(_REF))))
