"""GraphRAG's community detection against networkx, its reference.

``_greedy_modularity`` is an in-tree Clauset–Newman–Moore routine that
must give networkx's ``greedy_modularity_communities`` result exactly:
the same partition in the same order, so community ids, reports and
every answer built on them stay the same. networkx is a test-only
dependency; the library itself must not load it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.enhanced import GraphRAG
from repro.enhanced.graph_rag import _greedy_modularity
from repro.kg.datasets import enterprise_kg
from repro.kg.triples import IRI
from repro.llm import load_model

SRC = str(Path(__file__).resolve().parents[2] / "src")


def networkx_communities(adjacency):
    graph = nx.Graph()
    graph.add_nodes_from(adjacency)
    for node, neighbours in adjacency.items():
        for neighbour in neighbours:
            graph.add_edge(node, neighbour)
    assert list(graph) == list(adjacency)
    return nx.algorithms.community.greedy_modularity_communities(graph)


@st.composite
def graphs(draw):
    """Unit-weight graphs with IRI nodes whose sorted order differs from
    their insertion order: dense ties, self-loops, several components,
    isolated nodes and no edges at all."""
    values = draw(st.lists(st.text("abcz", min_size=1, max_size=3),
                           max_size=24, unique=True))
    nodes = [IRI(f"http://example.org/{value}") for value in values]
    adjacency = {node: set() for node in nodes}
    if nodes:
        pairs = draw(st.lists(st.tuples(st.sampled_from(nodes),
                                        st.sampled_from(nodes)),
                              max_size=3 * len(nodes)))
        for u, v in pairs:
            adjacency[u].add(v)
            adjacency[v].add(u)
    return adjacency


A, B = IRI("http://example.org/a"), IRI("http://example.org/b")


class TestNetworkxOracle:
    @settings(max_examples=300, deadline=None)
    @given(graphs())
    @example({B: set(), A: set()})       # no edges: singletons, node order
    @example({B: {B}, A: {A}})           # self-loops alone never merge
    def test_partition_and_order_equal_networkx(self, adjacency):
        ours = [set(members) for members in _greedy_modularity(adjacency)]
        assert ours == [set(c) for c in networkx_communities(adjacency)]

    def test_serving_build_equals_networkx(self):
        """The serving dataset's communities: ids, entities and reports
        are what the networkx partition gives."""
        ds = enterprise_kg(seed=0, n_employees=600)
        model = load_model("chatgpt", world=ds.kg, seed=0)
        rag = GraphRAG(model, ds.kg)
        rag.build()
        reference = GraphRAG(model, ds.kg)
        expected = [sorted(members, key=lambda e: e.value) for members in
                    networkx_communities(reference._entity_graph())]
        assert len(expected) > 10
        assert [c.community_id for c in rag.communities] == \
            list(range(len(expected)))
        assert [c.entities for c in rag.communities] == expected
        assert [c.summary for c in rag.communities] == \
            [reference._summarize(entities) for entities in expected]


HIERARCHY_SCRIPT = """
import json
from repro.enhanced import GraphRAG
from repro.kg.datasets import enterprise_kg
from repro.llm import load_model

def tree(community):
    return [community.community_id, [e.value for e in community.entities],
            [tree(child) for child in community.children]]

ds = enterprise_kg(seed=0, n_employees=600)
rag = GraphRAG(load_model("chatgpt", world=ds.kg, seed=0), ds.kg)
rag.build(levels=2)
print(json.dumps([tree(c) for c in rag.communities]))
"""


def hierarchy_under(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, "-c", HIERARCHY_SCRIPT],
                            env=env, capture_output=True, text=True,
                            check=True)
    return json.loads(result.stdout)


class TestHashSeedIndependence:
    def test_two_level_hierarchy_is_the_same_under_any_hash_seed(self):
        """Children ids, entities and order must not follow set order: a
        community's sub-graph keeps its parent's node order."""
        first, second = hierarchy_under(0), hierarchy_under(3)
        assert any(children for _, _, children in first)
        assert first == second


class TestNoNetworkxImport:
    def test_library_imports_load_no_networkx(self):
        code = ("import sys, repro.serve, repro.enhanced; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'networkx'))")
        env = dict(os.environ, PYTHONPATH=SRC)
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"
