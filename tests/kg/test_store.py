"""Unit + property tests for the triple store and its indexes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kg.store import TripleStore
from repro.kg.triples import IRI, Literal, Triple

S = IRI("http://x/s")
P = IRI("http://x/p")
P2 = IRI("http://x/p2")
O = IRI("http://x/o")


def t(s="s", p="p", o="o"):
    return Triple(IRI(f"http://x/{s}"), IRI(f"http://x/{p}"), IRI(f"http://x/{o}"))


class TestMutation:
    def test_add_returns_true_then_false(self):
        store = TripleStore()
        assert store.add(t()) is True
        assert store.add(t()) is False
        assert len(store) == 1

    def test_remove(self):
        store = TripleStore([t()])
        assert store.remove(t()) is True
        assert store.remove(t()) is False
        assert len(store) == 0

    def test_remove_cleans_indexes(self):
        store = TripleStore([t(), t(o="o2")])
        store.remove(t(o="o2"))
        assert store.match(subject=t().subject) == [t()]
        assert store.match_count(object=t(o="o2").object) == 0

    def test_clear(self):
        store = TripleStore([t(), t(o="o2")])
        store.clear()
        assert len(store) == 0
        assert store.match() == []

    def test_add_all_counts_new_only(self):
        store = TripleStore([t()])
        assert store.add_all([t(), t(o="o2"), t(o="o3")]) == 2


class TestMatch:
    @pytest.fixture
    def store(self):
        return TripleStore([
            t("a", "p", "b"), t("a", "p", "c"), t("a", "q", "b"),
            t("b", "p", "c"), t("c", "q", "a"),
        ])

    def test_fully_bound(self, store):
        assert store.match(t("a", "p", "b").subject, t("a", "p", "b").predicate,
                           t("a", "p", "b").object) == [t("a", "p", "b")]

    def test_sp_bound(self, store):
        result = store.match(IRI("http://x/a"), IRI("http://x/p"), None)
        assert set(result) == {t("a", "p", "b"), t("a", "p", "c")}

    def test_po_bound(self, store):
        result = store.match(None, IRI("http://x/p"), IRI("http://x/c"))
        assert set(result) == {t("a", "p", "c"), t("b", "p", "c")}

    def test_so_bound(self, store):
        result = store.match(IRI("http://x/a"), None, IRI("http://x/b"))
        assert set(result) == {t("a", "p", "b"), t("a", "q", "b")}

    def test_s_only(self, store):
        assert len(store.match(IRI("http://x/a"))) == 3

    def test_p_only(self, store):
        assert len(store.match(predicate=IRI("http://x/q"))) == 2

    def test_o_only(self, store):
        assert len(store.match(object=IRI("http://x/c"))) == 2

    def test_unbound_returns_all(self, store):
        assert len(store.match()) == 5

    def test_no_match_returns_empty(self, store):
        assert store.match(IRI("http://x/zz")) == []

    def test_scan_match_equals_indexed_match(self, store):
        for s, p, o in [(None, None, None), (IRI("http://x/a"), None, None),
                        (None, IRI("http://x/p"), None),
                        (None, None, IRI("http://x/c")),
                        (IRI("http://x/a"), IRI("http://x/p"), None)]:
            assert set(store.scan_match(s, p, o)) == set(store.match(s, p, o))

    def test_match_count_agrees_with_match(self, store):
        patterns = [(None, None, None), (IRI("http://x/a"), None, None),
                    (None, IRI("http://x/p"), None), (None, None, IRI("http://x/b")),
                    (IRI("http://x/a"), IRI("http://x/p"), None),
                    (IRI("http://x/a"), None, IRI("http://x/b")),
                    (None, IRI("http://x/p"), IRI("http://x/c"))]
        for s, p, o in patterns:
            assert store.match_count(s, p, o) == len(store.match(s, p, o))

    @pytest.mark.parametrize("shards", (0, 2))
    def test_membership_probe_tolerates_any_subject(self, store, shards):
        from repro.kg.sharding import ShardedTripleStore
        if shards:
            store = ShardedTripleStore(list(store), shards=shards)
        a, p, b = t("a", "p", "b").as_tuple()
        assert store.contains(a, p, b)
        assert not store.contains(b, p, a)
        assert not store.contains(Literal("a"), p, b)
        assert store.match_count(Literal("a"), p, b) == 0
        assert store.match_count(a, p, b) == 1


class TestAccessors:
    def test_value_unique(self):
        store = TripleStore([t("a", "p", "b")])
        assert store.value(IRI("http://x/a"), IRI("http://x/p")) == IRI("http://x/b")

    def test_value_missing_is_none(self):
        store = TripleStore()
        assert store.value(S, P) is None

    def test_value_ambiguous_raises(self):
        store = TripleStore([t("a", "p", "b"), t("a", "p", "c")])
        with pytest.raises(ValueError):
            store.value(IRI("http://x/a"), IRI("http://x/p"))

    def test_entities_includes_objects(self):
        store = TripleStore([Triple(S, P, O), Triple(S, P2, Literal("x"))])
        assert set(store.entities()) == {S, O}

    def test_relations(self):
        store = TripleStore([Triple(S, P, O), Triple(S, P2, O)])
        assert set(store.relations()) == {P, P2}

    def test_stats(self):
        store = TripleStore([Triple(S, P, O), Triple(S, P2, Literal("x"))])
        stats = store.stats()
        assert stats == {"triples": 2, "entities": 2, "relations": 2, "literals": 1}


class TestSetOperations:
    def test_copy_is_independent(self):
        store = TripleStore([t()])
        fork = store.copy()
        fork.add(t(o="o2"))
        assert len(store) == 1
        assert len(fork) == 2

    def test_union(self):
        a = TripleStore([t("a")])
        b = TripleStore([t("b")])
        assert len(a.union(b)) == 2

    def test_difference(self):
        a = TripleStore([t("a"), t("b")])
        b = TripleStore([t("b")])
        assert set(a.difference(b)) == {t("a")}


# ---------------------------------------------------------------------------
# Property tests: index coherence under arbitrary add/remove sequences
# ---------------------------------------------------------------------------

_iri = st.sampled_from([IRI(f"http://x/{c}") for c in "abcdef"])
_term = st.one_of(_iri, st.sampled_from([Literal("1"), Literal("2")]))
_triple = st.builds(Triple, _iri, _iri, _term)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(st.tuples(st.booleans(), _triple), max_size=40))
def test_indexes_consistent_with_scan(ops):
    """After any add/remove sequence, every indexed pattern equals a scan."""
    store = TripleStore()
    for is_add, triple in ops:
        if is_add:
            store.add(triple)
        else:
            store.remove(triple)
    probe = Triple(IRI("http://x/a"), IRI("http://x/b"), IRI("http://x/c"))
    for s in (None, probe.subject):
        for p in (None, probe.predicate):
            for o in (None, probe.object):
                assert set(store.match(s, p, o)) == set(store.scan_match(s, p, o))
                assert store.match_count(s, p, o) == len(store.scan_match(s, p, o))


@settings(max_examples=60, deadline=None)
@given(triples=st.lists(_triple, max_size=30))
def test_add_remove_roundtrip_leaves_store_empty(triples):
    store = TripleStore()
    store.add_all(triples)
    store.remove_all(list(store))
    assert len(store) == 0
    assert store.match() == []
    assert store.entities() == []


class TestBatchVersioning:
    """add_all/remove_all bump the store version once per effective batch,
    so version-keyed caches (labels, reverse indexes) invalidate once per
    bulk load instead of once per triple."""

    def test_add_all_bumps_version_once(self):
        store = TripleStore()
        v0 = store.version
        assert store.add_all([t(o=f"o{i}") for i in range(50)]) == 50
        assert store.version == v0 + 1

    def test_add_all_of_duplicates_does_not_bump(self):
        store = TripleStore([t()])
        v0 = store.version
        assert store.add_all([t(), t()]) == 0
        assert store.version == v0

    def test_remove_all_bumps_version_once(self):
        triples = [t(o=f"o{i}") for i in range(20)]
        store = TripleStore(triples)
        v0 = store.version
        assert store.remove_all(triples[:10]) == 10
        assert store.version == v0 + 1

    def test_remove_all_of_absent_does_not_bump(self):
        store = TripleStore([t()])
        v0 = store.version
        assert store.remove_all([t(o="missing")]) == 0
        assert store.version == v0

    def test_single_add_still_bumps_per_call(self):
        store = TripleStore()
        v0 = store.version
        store.add(t())
        store.add(t(o="o2"))
        assert store.version == v0 + 2

    def test_batch_and_single_adds_build_identical_stores(self):
        triples = [t(s=f"s{i % 5}", p=f"p{i % 3}", o=f"o{i}")
                   for i in range(30)]
        a, b = TripleStore(), TripleStore()
        for triple in triples:
            a.add(triple)
        b.add_all(triples)
        assert a.match() == b.match()
        assert a.stats() == b.stats()


class TestAccessorIndexEquivalence:
    """subjects()/predicates()/objects() now read distinct keys straight off
    the SPO/POS/OSP indexes; they must stay equivalent to the legacy
    match-then-dedup scans."""

    def _store(self):
        triples = [t(s=f"s{i % 4}", p=f"p{i % 3}", o=f"o{i % 6}")
                   for i in range(24)]
        store = TripleStore(triples)
        # Removals exercise index cleanup ahead of the key reads.
        store.remove(t(s="s1", p="p1", o="o1"))
        store.remove_all([t(s="s2", p="p2", o="o2")])
        return store

    @staticmethod
    def _legacy_distinct(items):
        seen, out = set(), []
        for item in items:
            if item not in seen:
                seen.add(item)
                out.append(item)
        return out

    def test_subjects_equivalent_to_match_scan(self):
        store = self._store()
        predicates = [None] + store.relations()
        objects = [None] + store.objects()
        for p in predicates:
            for o in objects:
                legacy = self._legacy_distinct(
                    tr.subject for tr in store.match(None, p, o))
                assert sorted(store.subjects(p, o), key=str) == \
                    sorted(legacy, key=str), (p, o)

    def test_predicates_equivalent_to_match_scan(self):
        store = self._store()
        subjects = [None] + store.subjects()
        objects = [None] + store.objects()
        for s in subjects:
            for o in objects:
                legacy = self._legacy_distinct(
                    tr.predicate for tr in store.match(s, None, o))
                assert sorted(store.predicates(s, o), key=str) == \
                    sorted(legacy, key=str), (s, o)

    def test_objects_equivalent_to_match_scan(self):
        store = self._store()
        subjects = [None] + store.subjects()
        predicates = [None] + store.relations()
        for s in subjects:
            for p in predicates:
                legacy = self._legacy_distinct(
                    tr.object for tr in store.match(s, p, None))
                assert sorted(store.objects(s, p), key=str) == \
                    sorted(legacy, key=str), (s, p)

    def test_accessors_after_full_removal_of_a_key(self):
        store = TripleStore([t("a", "p", "b"), t("a", "q", "c")])
        store.remove(t("a", "p", "b"))
        assert store.subjects(IRI("http://x/p"), None) == []
        assert store.predicates(IRI("http://x/a"), None) == \
            [IRI("http://x/q")]
        assert store.objects(None, IRI("http://x/p")) == []


# ---------------------------------------------------------------------------
# Property: every accessor's order is the _term_key order of a scan
# ---------------------------------------------------------------------------

_ORDER_IRIS = [IRI(f"http://x/{name}") for name in ("a", "b", "B", "a1", "z")]
_ORDER_LITERALS = [
    Literal(""), Literal("a"), Literal("http://x/a"), Literal("1"),
    Literal("1", datatype="http://www.w3.org/2001/XMLSchema#integer"),
    Literal("1", datatype="http://www.w3.org/2001/XMLSchema#decimal"),
    Literal("a", language="en"), Literal("a", language="de"),
]
_ORDER_TRIPLE = st.builds(Triple, st.sampled_from(_ORDER_IRIS),
                          st.sampled_from(_ORDER_IRIS[:3]),
                          st.sampled_from(_ORDER_IRIS + _ORDER_LITERALS))

#: For each (s, p, o) bound mask with one or two free positions, the free
#: positions in the order ``match`` sorts on: the SPO, POS and OSP nesting.
_SORTED_ON = {
    (True, True, False): (2,), (False, True, True): (0,),
    (True, False, True): (1,), (True, False, False): (1, 2),
    (False, True, False): (2, 0), (False, False, True): (0, 1),
}


def _reference_match(triples, s, p, o):
    """``match`` rebuilt from the store's insertion-ordered triples."""
    from repro.kg.store import _term_key

    pattern = (s, p, o)
    rows = [tr for tr in triples
            if all(want is None or want == have
                   for want, have in zip(pattern, tr))]
    positions = _SORTED_ON.get(tuple(want is not None for want in pattern))
    if positions is not None:
        rows.sort(key=lambda tr: tuple(_term_key(tr[i]) for i in positions))
    return rows


def _distinct(items):
    return list(dict.fromkeys(items))


class TestAccessorOrderProperty:
    """Property: on random stores mixing IRIs and literals (flat, 2 and
    4 shards), ``match``, ``subjects``, ``objects`` and ``predicates``
    return, for every bound/free pattern, exactly the ``_term_key``-sorted
    reference built from ``list(store)``: the same terms in the same
    order, with ``match`` giving real ``Triple``s. Probes include terms
    the store does not hold."""

    @settings(max_examples=60, deadline=None)
    @given(triples=st.lists(_ORDER_TRIPLE, max_size=40),
           removed=st.lists(_ORDER_TRIPLE, max_size=6),
           shards=st.sampled_from([0, 2, 4]))
    def test_accessors_equal_sorted_reference(self, triples, removed,
                                              shards):
        from repro.kg.sharding import ShardedTripleStore

        store = ShardedTripleStore(triples, shards=shards) if shards \
            else TripleStore(triples)
        store.remove_all(removed)
        held = list(store)
        absent = IRI("http://x/absent")
        subjects = [None, absent] + _distinct(tr.subject for tr in held)
        predicates = [None, absent] + _distinct(tr.predicate for tr in held)
        objects = [None, absent, Literal("absent")] + \
            _distinct(tr.object for tr in held)
        for s in subjects:
            for p in predicates:
                for o in objects:
                    got = store.match(s, p, o)
                    assert got == _reference_match(held, s, p, o), (s, p, o)
                    assert all(type(tr) is Triple for tr in got)
        for p in predicates:
            for o in objects:
                assert store.subjects(p, o) == _distinct(
                    tr.subject for tr in _reference_match(held, None, p, o))
        for s in subjects:
            for o in objects:
                assert store.predicates(s, o) == _distinct(
                    tr.predicate for tr in _reference_match(held, s, None, o))
        for s in subjects:
            for p in predicates:
                assert store.objects(s, p) == _distinct(
                    tr.object for tr in _reference_match(held, s, p, None))
