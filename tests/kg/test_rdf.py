"""Unit + property tests for N-Triples and Turtle serialization."""

import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kg import rdf
from repro.kg.store import TripleStore
from repro.kg.triples import IRI, Literal, Triple, XSD
from repro.kg.wal import (
    DurableTripleStore,
    WalRecord,
    decode_payload,
    encode_record,
    read_snapshot,
    recover,
    write_snapshot,
)


def t(s="s", p="p", o=None):
    obj = o if o is not None else IRI("http://x/o")
    return Triple(IRI(f"http://x/{s}"), IRI(f"http://x/{p}"), obj)


class TestNTriples:
    def test_roundtrip_iri_object(self):
        triples = [t()]
        assert rdf.loads_ntriples(rdf.dumps_ntriples(triples)) == triples

    def test_roundtrip_plain_literal(self):
        triples = [t(o=Literal("hello world"))]
        assert rdf.loads_ntriples(rdf.dumps_ntriples(triples)) == triples

    def test_roundtrip_typed_literal(self):
        triples = [t(o=Literal("42", datatype=XSD.integer))]
        assert rdf.loads_ntriples(rdf.dumps_ntriples(triples)) == triples

    def test_roundtrip_language_literal(self):
        triples = [t(o=Literal("bonjour", language="fr"))]
        assert rdf.loads_ntriples(rdf.dumps_ntriples(triples)) == triples

    def test_roundtrip_escaped_literal(self):
        triples = [t(o=Literal('line1\nsay "hi"'))]
        assert rdf.loads_ntriples(rdf.dumps_ntriples(triples)) == triples

    def test_blank_and_comment_lines_skipped(self):
        text = '# a comment\n\n<http://x/s> <http://x/p> "o" .\n'
        assert len(rdf.loads_ntriples(text)) == 1

    def test_malformed_line_raises_with_line_number(self):
        with pytest.raises(rdf.RDFSyntaxError, match="line 2"):
            rdf.loads_ntriples('<http://x/s> <http://x/p> "o" .\nnot a triple\n')

    def test_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "out.nt")
        store = TripleStore([t(), t(o=Literal("x"))])
        rdf.dump_ntriples(store, path)
        loaded = rdf.load_ntriples(path)
        assert set(loaded) == set(store)


class TestTurtle:
    PREFIXES = {"x": "http://x/"}

    def test_roundtrip_simple(self):
        triples = [t(), t(p="p2", o=Literal("v"))]
        text = rdf.dumps_turtle(triples, self.PREFIXES)
        assert set(rdf.loads_turtle(text)) == set(triples)

    def test_prefix_shortening_in_output(self):
        text = rdf.dumps_turtle([t()], self.PREFIXES)
        assert "x:s" in text
        assert "@prefix x:" in text

    def test_predicate_list_grouping(self):
        triples = [t(p="p1"), t(p="p2")]
        text = rdf.dumps_turtle(triples, self.PREFIXES)
        # One subject block with a ';' separated predicate list.
        assert text.count("x:s ") == 1
        assert ";" in text

    def test_roundtrip_typed_literal(self):
        triples = [t(o=Literal("7", datatype=XSD.integer))]
        text = rdf.dumps_turtle(triples, self.PREFIXES)
        assert set(rdf.loads_turtle(text)) == set(triples)

    def test_undeclared_prefix_raises(self):
        with pytest.raises(rdf.RDFSyntaxError):
            rdf.loads_turtle("y:s y:p y:o .")

    def test_no_prefixes_uses_full_iris(self):
        text = rdf.dumps_turtle([t()])
        assert "<http://x/s>" in text
        assert set(rdf.loads_turtle(text)) == {t()}


# ---------------------------------------------------------------------------
# Property: arbitrary safe triples survive the N-Triples roundtrip
# ---------------------------------------------------------------------------

_safe_text = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"),
                           whitelist_characters=" -_."),
    min_size=0, max_size=30,
)
# Lexical forms also draw the characters N-Triples escapes, the line
# breaks ``str.splitlines`` honours beyond ``\n``, and backslash-letter
# pairs that read like escapes once the backslash is doubled.
_lexical = st.lists(
    st.one_of(st.characters(whitelist_categories=("Lu", "Ll", "Nd"),
                            whitelist_characters=" -_."),
              st.sampled_from(["\\", '"', "\n", "\r", "\t", "\x0c",
                               "\x85", "\u2028", "\\n", "\\t", "\\r",
                               '\\"', "\\\\"])),
    max_size=12,
).map("".join)
_iri = st.builds(lambda s: IRI("http://x/" + (s.replace(" ", "_") or "n")), _safe_text)
# An empty datatype or language tag means "none": it must serialize and parse
# back as a plain literal.
_literal = st.one_of(
    st.builds(Literal, _lexical),
    st.builds(lambda s, dt: Literal(s, datatype=dt), _lexical,
              st.sampled_from([XSD.string, ""])),
    st.builds(lambda s, lang: Literal(s, language=lang), _lexical,
              st.sampled_from(["en", ""])),
)
_triple = st.builds(Triple, _iri, _iri, st.one_of(_iri, _literal))


@settings(max_examples=80, deadline=None)
@given(triples=st.lists(_triple, max_size=15))
def test_ntriples_roundtrip_property(triples):
    assert rdf.loads_ntriples(rdf.dumps_ntriples(triples)) == triples


@settings(max_examples=50, deadline=None)
@given(triples=st.lists(_triple, max_size=10))
def test_turtle_roundtrip_property(triples):
    text = rdf.dumps_turtle(triples, {"x": "http://x/"})
    assert set(rdf.loads_turtle(text)) == set(triples)


@settings(max_examples=80, deadline=None)
@given(triples=st.lists(_triple, max_size=15))
def test_ntriples_lines_match_n3_property(triples):
    assert rdf.ntriples_lines(triples) == [t.n3() for t in triples]


@settings(max_examples=80, deadline=None)
@given(triples=st.lists(_triple, max_size=15))
def test_wal_record_roundtrip_property(triples):
    record = WalRecord("add", 5, tuple(triples))
    assert decode_payload(encode_record(record)[8:]) == record


@settings(max_examples=40, deadline=None)
@given(triples=st.lists(_triple, max_size=15))
def test_snapshot_roundtrip_property(triples):
    directory = tempfile.mkdtemp(prefix="snapshot-")
    try:
        path = os.path.join(directory, "snapshot.nt")
        write_snapshot(triples, path, lsn=3)
        assert read_snapshot(path) == (triples, 3)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


@settings(max_examples=40, deadline=None)
@given(batches=st.lists(st.lists(_triple, min_size=1, max_size=5),
                        min_size=1, max_size=6),
       snapshot_every=st.sampled_from([None, 2]))
def test_durable_store_recovery_roundtrip_property(batches, snapshot_every):
    directory = tempfile.mkdtemp(prefix="durable-")
    try:
        store = DurableTripleStore(directory, snapshot_every=snapshot_every)
        for batch in batches:
            store.add_all(batch)
        store.close()
        recovered = recover(directory)
        assert list(recovered) == list(store)
        assert recovered.version == store.version
        assert recovered.last_recovery.truncated_bytes == 0
        recovered.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
