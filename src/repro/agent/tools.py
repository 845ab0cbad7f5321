"""The typed graph-tool registry the agent loop acts over.

Each tool is a named, described callable from JSON-able keyword
arguments to an :class:`Observation` — the "environment" half of the
ReAct loop. Tools are *pure reads* of the knowledge graph (the agent
never mutates state), which is what makes fanning their per-entity work
out through :class:`~repro.core.executor.ParallelExecutor` safe: results
are merged in input order, so an episode is byte-identical at any worker
count. The catalogue rendered by :meth:`ToolRegistry.describe` is the
exact text the agent-step prompt shows the model, keeping the registry
and the simulator's router on one contract.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.core.executor import ParallelExecutor
from repro.kg.graph import KnowledgeGraph
from repro.kg.indexes import FullTextIndex, indexable_needle, tokenize
from repro.kg.replication import ReplicationError
from repro.kg.triples import IRI, RDFS
from repro.sparql import SparqlEngine


class UnknownToolError(KeyError):
    """An action named a tool the registry does not provide."""

    def __init__(self, name: str, available: Sequence[str] = ()):
        super().__init__(name)
        self.name = name
        self.available = tuple(available)

    def __str__(self) -> str:
        hint = f"; available: {', '.join(self.available)}" \
            if self.available else ""
        return f"unknown tool {self.name!r}{hint}"


@dataclass
class Observation:
    """What one tool call produced.

    ``items`` are ``(identifier, label)`` entity pairs for chaining into
    the next action; ``text`` overrides the rendered line for scalar
    results (aggregates, ASK verdicts, error notices). The rendering is
    the scratchpad surface the simulated model parses back, so its
    format (``id|label`` joined by ``"; "``, ``none`` when empty) is
    part of the prompt contract.
    """

    items: List[Tuple[str, str]] = field(default_factory=list)
    text: str = ""

    def render(self) -> str:
        """The single scratchpad line for this observation."""
        if self.text:
            return self.text
        if not self.items:
            return "none"
        return "; ".join(f"{ident}|{label}" for ident, label in self.items)

    @property
    def empty(self) -> bool:
        """Whether the observation carries no evidence (reflection cue)."""
        if self.items:
            return False
        return not self.text or self.text == "none" or \
            self.text.startswith("error")


@dataclass(frozen=True)
class Tool:
    """One registered tool: a name, a one-line description, a callable."""

    name: str
    description: str
    fn: Callable[..., Observation]


class ToolRegistry:
    """Ordered name → :class:`Tool` map with a rendered catalogue."""

    def __init__(self, tools: Iterable[Tool] = ()):
        self._tools: "OrderedDict[str, Tool]" = OrderedDict()
        for tool in tools:
            self.register(tool)

    def register(self, tool: Tool) -> Tool:
        """Add (or replace) a tool under its name."""
        self._tools[tool.name] = tool
        return tool

    def get(self, name: str) -> Tool:
        """The tool registered under ``name``; typed error otherwise."""
        tool = self._tools.get(name)
        if tool is None:
            raise UnknownToolError(name, self.names())
        return tool

    def names(self) -> List[str]:
        """Registered tool names in registration order."""
        return list(self._tools)

    def subset(self, names: Sequence[str]) -> "ToolRegistry":
        """A registry restricted to ``names`` (validated, order kept)."""
        return ToolRegistry(self.get(name) for name in names)

    def describe(self) -> str:
        """The ``name: description`` catalogue shown to the model."""
        return "\n".join(f"{tool.name}: {tool.description}"
                         for tool in self._tools.values())

    def __len__(self) -> int:
        return len(self._tools)

    def __contains__(self, name: str) -> bool:
        return name in self._tools


#: Caps keeping observations (and therefore prompts) bounded.
MAX_SEARCH_RESULTS = 16
MAX_NEIGHBOUR_RESULTS = 48
MAX_SPARQL_RESULTS = 48


def default_registry(kg: KnowledgeGraph,
                     executor: Optional[ParallelExecutor] = None,
                     fulltext: Optional[FullTextIndex] = None,
                     engine: Optional[SparqlEngine] = None) -> ToolRegistry:
    """The standard five-tool registry over one knowledge graph.

    ``executor`` fans per-token / per-entity reads out (pure work only —
    nothing ordering-sensitive runs in workers); ``fulltext`` and
    ``engine`` default to a token-postings index and a cost-planned
    SPARQL engine over the graph's store, and may be shared with other
    components over the same store.
    """
    executor = executor or ParallelExecutor(max_workers=1)
    fulltext = fulltext or FullTextIndex(kg.store)
    engine = engine or SparqlEngine(kg.store, fulltext=fulltext)

    def _items(entities: Iterable[IRI], cap: int) -> List[Tuple[str, str]]:
        """``(iri, label)`` pairs of the first ``cap`` distinct entities;
        only the kept entities are labelled."""
        kept: List[IRI] = list(dict.fromkeys(entities))[:cap]
        return [(entity.value, kg.label(entity)) for entity in kept]

    def entity_search(query: str = "") -> Observation:
        """Label token-postings lookup; exact label matches first."""
        exact = kg.find_by_label(str(query))
        needles = [n for n in
                   (indexable_needle(t) for t in tokenize(str(query))) if n]

        def lookup(needle: str) -> List[IRI]:
            triples = fulltext.candidates(RDFS.label, needle) or []
            return [t.subject for t in triples]

        fuzzy = [entity for row in executor.map(needles, lookup)
                 for entity in row]
        return Observation(items=_items(exact + fuzzy, MAX_SEARCH_RESULTS))

    def neighbors(entities: Sequence[str] = (), relation: str = "",
                  direction: str = "out") -> Observation:
        """Expand a frontier one hop; IRI neighbours only."""
        if direction not in ("out", "in", "both"):
            raise ValueError(f"direction must be out/in/both, "
                             f"got {direction!r}")
        rel = IRI(str(relation)) if relation else None
        frontier = [str(e) for e in entities]

        def expand(ident: str) -> List[IRI]:
            steps = kg.neighbours(IRI(ident), rel, direction)
            return [term for _, term, _ in steps if isinstance(term, IRI)]

        merged = [entity for row in executor.map(frontier, expand)
                  for entity in row]
        return Observation(items=_items(merged, MAX_NEIGHBOUR_RESULTS))

    def find_path(source: str = "", target: str = "",
                  max_hops: int = 3) -> Observation:
        """Connecting entities strictly between source and target."""
        paths = kg.paths(IRI(str(source)), IRI(str(target)),
                         max_hops=int(max_hops))
        middles = [term for path in paths for _, term, _ in path[:-1]
                   if isinstance(term, IRI)]
        if not middles and paths:
            return Observation(text="directly connected")
        return Observation(items=_items(middles, MAX_NEIGHBOUR_RESULTS))

    def aggregate(values: Sequence[str] = (),
                  op: str = "count") -> Observation:
        """Pure aggregation over observed values (no graph access)."""
        items = [str(v) for v in values]
        if op == "count":
            return Observation(text=f"count={len(set(items))}")
        if op in ("min", "max"):
            if not items:
                return Observation(text=f"{op}=none")
            pick = min(sorted(items)) if op == "min" else max(sorted(items))
            return Observation(text=f"{op}={pick}")
        raise ValueError(f"unknown aggregate op {op!r}")

    def sparql(query: str = "") -> Observation:
        """Execute a drafted query through the cost-based planner."""
        result = engine.execute(str(query))
        if isinstance(result, bool):
            return Observation(text=f"ask={str(result).lower()}")
        entities = [row[var] for row in result for var in sorted(row)
                    if isinstance(row[var], IRI)]
        return Observation(items=_items(entities, MAX_SPARQL_RESULTS))

    def _partition_tolerant(fn: Callable[..., Observation]
                            ) -> Callable[..., Observation]:
        """Degrade replication failures to error observations.

        When the graph sits on replicated shards, a partition can
        surface mid-episode as a :class:`ReplicationError`. The agent
        should treat "that shard is unreachable right now" as an empty
        observation (triggering its reflection step) rather than
        aborting the whole episode — the next action may well route to
        healthy shards.
        """
        def guarded(**kwargs) -> Observation:
            try:
                return fn(**kwargs)
            except ReplicationError as exc:
                return Observation(
                    text=f"error: graph shard unavailable "
                         f"({type(exc).__name__}: {exc})")
        return guarded

    return ToolRegistry([
        Tool("entity_search", "find entities whose label matches a query "
                              "string", _partition_tolerant(entity_search)),
        Tool("neighbors", "expand a list of entity IRIs one hop along an "
                          "optional relation IRI (direction out/in/both)",
             _partition_tolerant(neighbors)),
        Tool("find_path", "list the entities connecting a source IRI to a "
                          "target IRI within max_hops",
             _partition_tolerant(find_path)),
        Tool("aggregate", "aggregate observed values (op: count/min/max)",
             aggregate),
        Tool("sparql", "draft-and-execute a SPARQL SELECT or ASK query "
                       "via the cost-based planner",
             _partition_tolerant(sparql)),
    ])
