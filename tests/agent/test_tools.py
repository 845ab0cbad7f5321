"""Unit tests for the typed graph-tool registry."""

import pytest

from repro.agent.tools import (Observation, Tool, ToolRegistry,
                               UnknownToolError, default_registry)
from repro.core.executor import ParallelExecutor
from repro.kg.datasets import family_kg, movie_kg
from repro.kg.triples import IRI


@pytest.fixture(scope="module")
def movie():
    return movie_kg(seed=0)


@pytest.fixture(scope="module")
def registry(movie):
    return default_registry(movie.kg)


class TestObservation:
    def test_items_render_as_id_label_pairs(self):
        obs = Observation(items=[("a", "A"), ("b", "B")])
        assert obs.render() == "a|A; b|B"
        assert not obs.empty

    def test_empty_renders_none(self):
        obs = Observation()
        assert obs.render() == "none"
        assert obs.empty

    def test_text_overrides_and_counts_as_evidence(self):
        assert Observation(text="count=3").render() == "count=3"
        assert not Observation(text="count=3").empty

    def test_error_text_is_empty_evidence(self):
        assert Observation(text="error: boom").empty


class TestToolRegistry:
    def test_unknown_tool_is_typed(self, registry):
        with pytest.raises(UnknownToolError) as excinfo:
            registry.get("bogus")
        assert "bogus" in str(excinfo.value)
        assert "entity_search" in str(excinfo.value)

    def test_subset_preserves_order_and_validates(self, registry):
        sub = registry.subset(["sparql", "entity_search"])
        assert sub.names() == ["sparql", "entity_search"]
        with pytest.raises(UnknownToolError):
            registry.subset(["entity_search", "bogus"])

    def test_describe_lists_every_tool(self, registry):
        catalogue = registry.describe()
        for name in registry.names():
            assert f"{name}:" in catalogue

    def test_contains_and_len(self, registry):
        assert "neighbors" in registry
        assert "bogus" not in registry
        assert len(registry) == 5


class TestDefaultTools:
    def test_entity_search_exact_match_first(self, movie, registry):
        title = movie.kg.label(sorted(movie.kg.store.subjects(),
                                      key=lambda e: e.value)[0])
        obs = registry.get("entity_search").fn(query=title)
        assert obs.items
        assert obs.items[0][1] == title

    def test_entity_search_misses_cleanly(self, registry):
        obs = registry.get("entity_search").fn(query="zzz-nonexistent")
        assert obs.empty

    def test_neighbors_validates_direction(self, registry):
        with pytest.raises(ValueError):
            registry.get("neighbors").fn(entities=["x"], direction="up")

    def test_aggregate_count_dedupes(self, registry):
        obs = registry.get("aggregate").fn(values=["a", "b", "a"],
                                           op="count")
        assert obs.render() == "count=2"

    def test_aggregate_unknown_op_raises(self, registry):
        with pytest.raises(ValueError):
            registry.get("aggregate").fn(values=["a"], op="median")

    def test_sparql_tool_runs_select(self, movie, registry):
        obs = registry.get("sparql").fn(
            query="SELECT ?s WHERE { ?s ?p ?o } LIMIT 3")
        assert obs.items

    def test_results_identical_across_worker_counts(self, movie):
        family = family_kg(seed=0)
        queries = [("entity_search", {"query": "the hidden"}),
                   ("neighbors", {"entities": [
                       s.value for s in sorted(family.kg.store.subjects(),
                                               key=lambda e: e.value)[:6]],
                       "direction": "both"})]
        rendered = []
        for workers in (1, 4):
            reg = default_registry(
                family.kg, executor=ParallelExecutor(max_workers=workers))
            rendered.append([reg.get(name).fn(**kwargs).render()
                             for name, kwargs in queries])
        assert rendered[0] == rendered[1]


class TestLabelsOnlyKeptEntities:
    def _counting_labels(self, kg, monkeypatch):
        labelled = []
        label = kg.label

        def counting(term):
            labelled.append(term)
            return label(term)

        monkeypatch.setattr(kg, "label", counting)
        return labelled

    @staticmethod
    def _first_distinct(kg, entities, cap):
        pairs = [(e.value, kg.label(e)) for e in entities]
        return list(dict.fromkeys(pairs))[:cap]

    def test_entity_search_labels_at_most_the_cap(self, monkeypatch):
        from repro.agent.tools import MAX_SEARCH_RESULTS
        from repro.kg.indexes import FullTextIndex
        from repro.kg.triples import RDFS

        kg = movie_kg(seed=0).kg
        fulltext = FullTextIndex(kg.store)
        hits = [t.subject for t in fulltext.candidates(RDFS.label, "the")]
        expected = self._first_distinct(
            kg, kg.find_by_label("the") + hits, MAX_SEARCH_RESULTS)
        assert len(hits) > MAX_SEARCH_RESULTS
        labelled = self._counting_labels(kg, monkeypatch)
        obs = default_registry(kg, fulltext=fulltext).get(
            "entity_search").fn(query="the")
        assert obs.items == expected
        assert len(labelled) == len(expected)

    def test_neighbors_labels_at_most_the_cap(self, monkeypatch):
        from repro.agent.tools import MAX_NEIGHBOUR_RESULTS

        kg = movie_kg(seed=0).kg
        frontier = sorted(kg.store.subjects(), key=lambda e: e.value)[:40]
        reached = [term for entity in frontier
                   for _, term, _ in kg.neighbours(entity, None, "both")
                   if isinstance(term, IRI)]
        expected = self._first_distinct(kg, reached, MAX_NEIGHBOUR_RESULTS)
        assert len(set(reached)) > MAX_NEIGHBOUR_RESULTS
        labelled = self._counting_labels(kg, monkeypatch)
        obs = default_registry(kg).get("neighbors").fn(
            entities=[e.value for e in frontier], direction="both")
        assert obs.items == expected
        assert len(labelled) == len(expected)
