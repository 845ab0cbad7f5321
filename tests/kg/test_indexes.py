"""Unit tests for the secondary indexes (`repro.kg.indexes`).

The indexes are *access paths*, not truth: full-text candidates must be a
superset of the filter's matches in the exact order of the scan they
replace, numeric ranges must be exact, and both must rebuild only the
segments whose backing store actually changed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kg.indexes import (
    DEFAULT_TEXT_PREDICATES,
    FullTextIndex,
    NumericIndex,
    _text_of,
    indexable_needle,
    tokenize,
)
from repro.kg.sharding import ShardedTripleStore
from repro.kg.store import TripleStore, _term_key
from repro.kg.triples import IRI, RDFS, XSD, Literal, Triple

EX = lambda name: IRI(f"http://example.org/{name}")

LABELS = [
    "Alice Smith", "Bob Smith", "alice cooper", "The Smiths",
    "smith & wesson", "Granite", "Zoe", "Ada Lovelace",
]


def text_store(cls=TripleStore, **kwargs):
    store = cls(**kwargs) if kwargs else cls()
    for i, label in enumerate(LABELS):
        store.add(Triple(EX(f"e{i}"), RDFS.label, Literal(label)))
    store.add(Triple(EX("e0"), EX("nick"), Literal("Al")))  # uncovered pred
    return store


def numeric_store():
    store = TripleStore()
    for i, year in enumerate((1999, 2004, 2004, 2010, 2021)):
        store.add(Triple(EX(f"m{i}"), EX("year"),
                         Literal(str(year), datatype=XSD.gYear)))
    store.add(Triple(EX("m9"), EX("year"), Literal("not a year")))  # untyped
    store.add(Triple(EX("m8"), EX("score"),
                     Literal("7.5", datatype=XSD.decimal)))
    return store


class TestTokenization:
    def test_tokenize_lowercases_and_splits_on_non_alnum(self):
        assert tokenize("Alice Smith & co-worker 2") == \
            ["alice", "smith", "co", "worker", "2"]

    def test_indexable_needle_accepts_single_alnum_runs(self):
        assert indexable_needle("Smith") == "smith"
        assert indexable_needle("42") == "42"

    def test_indexable_needle_rejects_multi_token_needles(self):
        # "Alice S" can match across a token boundary the postings
        # cannot see; the index must refuse rather than miss results.
        assert indexable_needle("Alice S") is None
        assert indexable_needle("a-b") is None
        assert indexable_needle("") is None


class TestFullTextIndex:
    def test_candidates_cover_contains_matches_in_scan_order(self):
        store = text_store()
        index = FullTextIndex(store)
        candidates = index.candidates(RDFS.label, "Smith")
        # Soundness: every triple whose label case-sensitively contains
        # "Smith" is among the (case-insensitive) candidates.
        scan = [t for t in store.match(None, RDFS.label, None)
                if "Smith" in t.object.lexical]
        assert set(scan) <= set(candidates)
        # Order identity: candidates arrive in the scan's own order.
        expected = [t for t in store.match(None, RDFS.label, None)
                    if t in set(candidates)]
        assert candidates == expected

    def test_candidate_order_key_is_object_then_subject(self):
        index = FullTextIndex(text_store())
        candidates = index.candidates(RDFS.label, "a")
        keys = [(_term_key(t.object), _term_key(t.subject))
                for t in candidates]
        assert keys == sorted(keys)

    def test_uncovered_predicate_returns_none(self):
        index = FullTextIndex(text_store())
        assert index.candidates(EX("nick"), "Al") is None
        assert not index.covers(EX("nick"))
        assert index.covers(RDFS.label)

    def test_unsafe_needle_returns_none(self):
        index = FullTextIndex(text_store())
        assert index.candidates(RDFS.label, "Alice S") is None

    def test_missing_token_returns_empty_list(self):
        index = FullTextIndex(text_store())
        assert index.candidates(RDFS.label, "zzzz") == []

    def test_rebuild_is_lazy_and_version_keyed(self):
        store = text_store()
        index = FullTextIndex(store)
        assert index._segments.rebuilds == 0  # construction reads nothing
        index.candidates(RDFS.label, "smith")
        assert index.stats()["rebuilds"] == 1
        index.candidates(RDFS.label, "alice")
        assert index.stats()["rebuilds"] == 1  # same version: cache hit
        store.add(Triple(EX("n"), RDFS.label, Literal("Smithers")))
        candidates = index.candidates(RDFS.label, "smith")
        assert index.stats()["rebuilds"] == 2
        assert any(t.subject == EX("n") for t in candidates)

    def test_sharded_store_rebuilds_only_dirty_segments(self):
        store = text_store(ShardedTripleStore, shards=4)
        index = FullTextIndex(store)
        index.candidates(RDFS.label, "smith")
        assert index.stats()["rebuilds"] == 4  # one per shard
        store.add(Triple(EX("n"), RDFS.label, Literal("Smithers")))
        index.candidates(RDFS.label, "smith")
        # One write touches one shard: exactly one segment rebuilt.
        assert index.stats()["rebuilds"] == 5

    def test_sharded_candidates_match_unsharded(self):
        plain = FullTextIndex(text_store())
        sharded = FullTextIndex(text_store(ShardedTripleStore, shards=3))
        for needle in ("smith", "alice", "a", "zzzz"):
            assert sharded.candidates(RDFS.label, needle) == \
                plain.candidates(RDFS.label, needle)

    def test_custom_predicates(self):
        store = TripleStore([Triple(EX("e"), EX("bio"), Literal("a poet"))])
        index = FullTextIndex(store, predicates=(EX("bio"),))
        assert len(index.candidates(EX("bio"), "poet")) == 1
        assert index.candidates(RDFS.label, "poet") is None

    def test_stats_schema(self):
        index = FullTextIndex(text_store())
        index.candidates(RDFS.label, "smith")
        stats = index.stats()
        assert {"segments", "tokens", "entries", "predicates",
                "rebuilds", "hits"} <= set(stats)
        assert stats["predicates"] == len(DEFAULT_TEXT_PREDICATES)
        assert stats["tokens"] > 0


def reference_candidates(store, predicate, needle):
    """The scan the index replaces: every triple with a token containing
    the lower-cased needle, deduplicated and sorted by term key."""
    lowered = indexable_needle(needle)
    found = {}
    for triple in store.match(None, predicate, None):
        if any(lowered in token
               for token in tokenize(_text_of(triple.object))):
            key = (_term_key(triple.object), _term_key(triple.subject))
            found[key] = triple
    return [found[key] for key in sorted(found)]


WORDS = ["banana", "Ana", "Smith", "x1", "2024", "co-op", "O'Neil", "a",
         "zeta", "Zeta9"]
labels_strategy = st.lists(st.one_of(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(" ".join),
    st.text(alphabet="abnzAN0129 -'", max_size=12)), min_size=1, max_size=12)
needle_strategy = st.one_of(
    st.sampled_from(["ana", "banana", "a", "0", "2024", "zeta9", "zz"]),
    st.text(alphabet="abnz0129", min_size=1, max_size=4))


class TestFullTextCandidatesProperty:
    """``candidates`` equals the brute-force token scan on any store."""

    @settings(max_examples=60, deadline=None)
    @given(labels=labels_strategy, needles=st.lists(needle_strategy,
                                                    max_size=6),
           shards=st.sampled_from([0, 4]), extra=st.sampled_from(WORDS))
    def test_candidates_equal_token_scan(self, labels, needles, shards,
                                         extra):
        store = ShardedTripleStore(shards=shards) if shards else TripleStore()
        for i, label in enumerate(labels):
            store.add(Triple(EX(f"e{i}"), RDFS.label, Literal(label)))
        index = FullTextIndex(store)
        whole_tokens = sorted({token for label in labels
                               for token in tokenize(label)})
        for needle in needles + whole_tokens:
            assert index.candidates(RDFS.label, needle) == \
                reference_candidates(store, RDFS.label, needle)
        # A write dirties exactly one segment; the rebuilt one and the
        # untouched ones must still agree with the scan.
        rebuilds = index.stats()["rebuilds"]
        store.add(Triple(EX("new"), RDFS.label, Literal(extra)))
        for needle in needles + whole_tokens + tokenize(extra):
            assert index.candidates(RDFS.label, needle) == \
                reference_candidates(store, RDFS.label, needle)
        assert index.stats()["rebuilds"] == rebuilds + 1

    @pytest.mark.parametrize("shards", [0, 4])
    def test_first_and_last_token_of_each_segment(self, shards):
        store = text_store(ShardedTripleStore, shards=shards) if shards \
            else text_store()
        index = FullTextIndex(store)
        index.candidates(RDFS.label, "smith")
        edges = set()
        for segment in index.segments():
            tokens = segment.records[RDFS.label].text.split("\n")[1:]
            if tokens:
                edges.update((tokens[0], tokens[-1]))
        assert len(edges) >= 2
        for needle in sorted(edges):
            found = index.candidates(RDFS.label, needle)
            assert found and found == \
                reference_candidates(store, RDFS.label, needle)

    def test_needle_twice_in_one_token_is_one_hit(self):
        store = TripleStore([
            Triple(EX("b"), RDFS.label, Literal("banana bandana")),
            Triple(EX("c"), RDFS.label, Literal("Anagram")),
            Triple(EX("d"), RDFS.label, Literal("Cabana 2024"))])
        index = FullTextIndex(store)
        found = index.candidates(RDFS.label, "ana")
        assert found == reference_candidates(store, RDFS.label, "ana")
        assert [t.subject for t in found] == [EX("c"), EX("d"), EX("b")]
        assert index.candidates(RDFS.label, "02") == \
            [Triple(EX("d"), RDFS.label, Literal("Cabana 2024"))]


class TestNumericIndex:
    def test_range_is_exact(self):
        index = NumericIndex(numeric_store())
        triples = index.range_triples(EX("year"), 2000, 2010)
        years = sorted(t.object.lexical for t in triples)
        assert years == ["2004", "2004", "2010"]
        assert index.range_count(EX("year"), 2000, 2010) == 3

    def test_open_bounds_and_exclusivity(self):
        index = NumericIndex(numeric_store())
        assert index.range_count(EX("year"), low=2004) == 4
        assert index.range_count(EX("year"), low=2004,
                                 include_low=False) == 2
        assert index.range_count(EX("year"), high=2004,
                                 include_high=False) == 1
        assert index.range_count(EX("year")) == 5
        assert index.range_count(EX("year"), low=2004, high=2004) == 2

    def test_untyped_literals_are_excluded(self):
        index = NumericIndex(numeric_store())
        triples = index.range_triples(EX("year"))
        assert all(t.object.datatype == XSD.gYear for t in triples)

    def test_results_ordered_like_the_scan(self):
        index = NumericIndex(numeric_store())
        triples = index.range_triples(EX("year"), 1990, 2030)
        keys = [(_term_key(t.object), _term_key(t.subject)) for t in triples]
        assert keys == sorted(keys)

    def test_unknown_predicate_is_empty(self):
        index = NumericIndex(numeric_store())
        assert index.range_triples(EX("nope"), 0, 10) == []
        assert index.range_count(EX("nope")) == 0

    def test_version_keyed_rebuild(self):
        store = numeric_store()
        index = NumericIndex(store)
        index.range_count(EX("year"))
        assert index.stats()["rebuilds"] == 1
        index.range_count(EX("score"))
        assert index.stats()["rebuilds"] == 1
        store.add(Triple(EX("m7"), EX("year"),
                         Literal("1988", datatype=XSD.gYear)))
        assert index.range_count(EX("year"), high=1990) == 1
        assert index.stats()["rebuilds"] == 2

    def test_sharded_matches_unsharded(self):
        plain = NumericIndex(numeric_store())
        sharded = NumericIndex(
            ShardedTripleStore(list(numeric_store()), shards=3))
        for low, high in ((None, None), (2000, 2010), (2004, 2004)):
            assert sharded.range_triples(EX("year"), low, high) == \
                plain.range_triples(EX("year"), low, high)

    def test_contradictory_ranges_are_empty(self):
        index = NumericIndex(numeric_store())
        assert index.range_count(EX("year"), low=2010, high=2004) == 0
        assert index.range_triples(EX("year"), low=2010, high=2004) == []
        assert index.range_count(EX("year"), low=2004, high=2004,
                                 include_high=False) == 0

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.integers(0, 120), min_size=1, max_size=30),
           width=st.sampled_from([0, 3]),
           bounds=st.tuples(st.integers(-5, 125), st.integers(-5, 125)))
    def test_ranges_equal_the_sorted_scan(self, values, width, bounds):
        """Whether or not a predicate's lexical order is its numeric order
        (``width`` 3 pads every value), on one segment or on three, a
        range is exactly the term-key-sorted scan filtered to it."""
        low, high = bounds
        triples = [Triple(EX(f"s{i % 7}"), EX("n"),
                          Literal(str(value).zfill(width),
                                  datatype=XSD.integer))
                   for i, value in enumerate(values)]
        for store in (TripleStore(triples),
                      ShardedTripleStore(triples, shards=3)):
            index = NumericIndex(store)
            expected = sorted(
                (t for t in store.match(None, EX("n"), None)
                 if low <= int(t.object.lexical) <= high),
                key=lambda t: (_term_key(t.object), _term_key(t.subject)))
            assert index.range_triples(EX("n"), low, high) == expected
        padded = NumericIndex(TripleStore(triples)).segments()[0]
        assert (EX("n") in padded.key_ordered) == (
            width == 3 or sorted(values) == sorted(values, key=str))

    def test_nan_values_are_not_indexed(self):
        # NaN satisfies no range comparison, and would break the sort
        # order the bisects rely on.
        store = numeric_store()
        store.add(Triple(EX("m6"), EX("year"),
                         Literal("NaN", datatype=XSD.double)))
        index = NumericIndex(store)
        assert index.range_count(EX("year")) == 5
        assert index.range_count(EX("year"), 2000, 2010) == 3


class TestRebuildRace:
    """A write that lands while a segment is being built, after its scan
    read the store, must show on the next lookup: the built segment is
    returned to the racing lookup but not kept."""

    def test_fulltext_segment_built_during_a_write_is_rebuilt(self):
        store = text_store()
        index = FullTextIndex(store)
        scan = store.match
        raced = []

        def racing_match(*args, **kwargs):
            found = scan(*args, **kwargs)
            if not raced:  # a writer lands after the scan, before the stamp
                raced.append(True)
                store.add(Triple(EX("late"), RDFS.label,
                                 Literal("alphabet")))
            return found

        store.match = racing_match
        index.candidates(RDFS.label, "alpha")
        found = index.candidates(RDFS.label, "alpha")
        assert Triple(EX("late"), RDFS.label, Literal("alphabet")) in found
        assert found == reference_candidates(store, RDFS.label, "alpha")

    def test_numeric_segment_built_during_a_write_is_rebuilt(self):
        late = Triple(EX("late"), EX("year"),
                      Literal("1901", datatype=XSD.gYear))

        class RacingStore(TripleStore):
            raced = False

            def __iter__(self):
                found = list(super().__iter__())
                if not self.raced:
                    self.raced = True
                    self.add(late)
                return iter(found)

        store = RacingStore(list(numeric_store()))
        index = NumericIndex(store)
        assert index.range_triples(EX("year"), high=1950) == []
        assert index.range_triples(EX("year"), high=1950) == [late]
