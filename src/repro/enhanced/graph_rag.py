"""GraphRAG (Edge et al. 2024): query-focused summarization over a KG.

Naive RAG fails "global" questions ("what are the main points of the
dataset?") because no k chunks cover the whole corpus. GraphRAG's answer,
reproduced here: build/take a knowledge graph over the corpus, partition it
into **communities** (graph clustering), write an LLM **summary per
community**, and answer global questions map-reduce style over the community
summaries so every region of the corpus contributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.core.durability import fast_forward_faults, fault_schedule_cursor
from repro.core.executor import ParallelExecutor, chunked
from repro.core.observability import resolve_obs
from repro.core.resilience import RetryPolicy
from repro.kg.graph import KnowledgeGraph
from repro.kg.triples import IRI, OWL, RDF, RDFS
from repro.llm import prompts as P
from repro.llm.batch import resilient_complete_all
from repro.llm.caching import maybe_cached
from repro.llm.faults import LLMTransientError
from repro.llm.model import SimulatedLLM


#: Sentinel answer returned when retrieval produced *no* context at all.
#: Distinct from ``"unknown"`` (the model saw context but could not
#: answer): downstream callers can branch on it without string-guessing.
INSUFFICIENT_CONTEXT = "insufficient context"


class GraphRAGEmptyContextError(ValueError):
    """Strict-mode signal that retrieval produced no context to answer
    from — zero entity mentions resolved and no community matched (local
    search), or the index holds no summarized communities (global
    search). It is a *caller-input/corpus* condition, not a transient
    backend fault, so it deliberately does **not** subclass
    :class:`LLMTransientError`: retrying will not conjure context."""

    def __init__(self, question: str, mode: str = "local"):
        super().__init__(
            f"no retrieval context for {mode} question {question!r}")
        self.question = question
        self.mode = mode


class GraphRAGUnhealthyError(LLMTransientError):
    """A strict global answer could not be produced at full fidelity.

    Raised by :meth:`GraphRAG.answer_global_strict` whenever the
    map-reduce ran degraded (faulted communities or a failed reduce).
    It subclasses :class:`LLMTransientError` so existing retry policies,
    breakers, and fallback chains treat it like any other transient
    backend fault — the serving gateway uses it to fail over from the
    full-GraphRAG tier to cheaper tiers instead of returning a silently
    degraded answer as if it were healthy.
    """

    def __init__(self, message: str, faulted_communities: int = 0):
        super().__init__(message)
        self.faulted_communities = faulted_communities


@dataclass
class Community:
    """One graph community with its report and optional sub-communities.

    GraphRAG builds a *hierarchy* of communities; ``children`` holds the
    next level down (empty at the leaves or when built with one level).
    """

    community_id: int
    entities: List[IRI]
    summary: str = ""
    level: int = 0
    children: List["Community"] = field(default_factory=list)


def _greedy_modularity(adjacency: Dict[Hashable, Set[Hashable]]
                       ) -> List[List[Hashable]]:
    """Clauset–Newman–Moore greedy modularity communities.

    Every node starts alone; the adjacent pair whose merge raises the
    modularity most is merged, until the best merge would lower it. The
    result is the one networkx's ``greedy_modularity_communities`` gives
    on the same unweighted graph: the same ΔQ formulas in the same float
    operation order, ties broken on the sorted order of the pair (its
    ``(-ΔQ, (u, v))`` heap elements), ``u`` merged into ``v``, and the
    survivors listed in node order, stable-sorted by size, largest first.

    ``adjacency`` maps each node, in node order, to the set of its
    neighbours; a self-loop counts twice towards its node's degree but
    never merges.
    """
    # Work on ranks in sorted node order: a heap tuple (-ΔQ, u, v) then
    # ties exactly as a (-ΔQ, (u, v)) pair of nodes would.
    order = sorted(adjacency)
    rank = {node: r for r, node in enumerate(order)}
    degrees = [len(adjacency[node]) + (node in adjacency[node])
               for node in order]
    edges = sum(degrees) // 2
    if not edges:
        return [[node] for node in adjacency]
    q0 = 1 / edges
    a = [degree * q0 * 0.5 for degree in degrees]
    dq: List[Optional[Dict[int, float]]] = [
        {rank[w]: 0.0 for w in adjacency[node] if w != node}
        for node in order]
    for u, row in enumerate(dq):
        for v in row:
            row[v] = q0 - (a[u] * a[v] + a[u] * a[v])
    heap = [(-value, u, v) for u, row in enumerate(dq)
            for v, value in row.items() if u < v]
    heapify(heap)
    members = [[node] for node in order]
    while heap:
        negdq, u, v = heappop(heap)
        du = dq[u]
        if du is None or du.get(v) != -negdq:
            continue  # a merged-away row or a superseded ΔQ
        if negdq > 0:
            break
        # Merge u into v: the ΔQ of v with each neighbour w of either.
        dv = dq[v]
        dq[u] = None
        del du[v], dv[u]
        au, av = a[u], a[v]
        for w, value in dv.items():
            if w not in du:
                value = value - (au * a[w] + a[w] * au)
                dv[w] = dq[w][v] = value
                heappush(heap, (-value, v, w) if v < w else (-value, w, v))
        for w, value in du.items():
            dw = dq[w]
            del dw[u]
            if w in dv:
                value = dv[w] + value
            else:
                value = value - (av * a[w] + a[w] * av)
            dv[w] = dw[v] = value
            heappush(heap, (-value, v, w) if v < w else (-value, w, v))
        a[v] += au
        members[v] += members[u]
    survivors = [members[rank[node]] for node in adjacency
                 if dq[rank[node]] is not None]
    return sorted(survivors, key=len, reverse=True)


class GraphRAG:
    """Community-summary RAG over a knowledge graph."""

    def __init__(self, llm: SimulatedLLM, kg: KnowledgeGraph,
                 max_facts_per_summary: int = 150,
                 retry: Optional[RetryPolicy] = None, cache=False, obs=None):
        # ``cache`` memoizes the map/reduce summarization calls — repeated
        # global questions over an unchanged community hierarchy re-issue
        # identical prompts, which a CachingLLM serves without recompute.
        self.llm = maybe_cached(llm, cache)
        # ``obs`` attaches an observability recorder (no-op by default):
        # build/map/reduce phases open spans, and the LLM stack and KG
        # caches are bound as pull sources for ``repro obs report``.
        self.obs = resolve_obs(obs)
        self.kg = kg
        if self.obs.enabled:
            self.obs.bind_llm(self.llm)
            self.obs.bind_kg(kg)
        self.max_facts_per_summary = max_facts_per_summary
        self.retry = retry or RetryPolicy(max_attempts=3,
                                          retry_on=(LLMTransientError,))
        self.communities: List[Community] = []
        self._next_id = 0
        self._built = False
        # Resilience accounting for the most recent answer_* call.
        self.last_degraded = False
        self.last_faulted_communities = 0
        self.last_empty_context = False

    # ------------------------------------------------------------------
    # Index construction
    # ------------------------------------------------------------------
    def build(self, levels: int = 1) -> List[Community]:
        """Detect communities (hierarchically for ``levels`` > 1) and
        generate their reports. Returns the top-level communities."""
        with self.obs.span("graphrag:build", levels=levels):
            self._built = True
            graph = self._entity_graph()
            if not graph:
                self.communities = []
                return self.communities
            self._next_id = 0
            self.communities = self._partition(graph, level=0,
                                               remaining_levels=levels)
            self.obs.gauge("graphrag.communities", len(self.communities))
            return self.communities

    def _ensure_built(self) -> None:
        # Guarded by ``_built``, not ``self.communities``: an empty KG
        # legitimately yields zero communities, and the old truthiness
        # check re-ran the whole build on every answer_* call.
        if not self._built:
            self.build()

    def _partition(self, graph: Dict[IRI, Set[IRI]], level: int,
                   remaining_levels: int) -> List[Community]:
        out: List[Community] = []
        for members in _greedy_modularity(graph):
            entities = sorted(members, key=lambda e: e.value)
            community = Community(
                community_id=self._next_id, entities=entities,
                summary=self._summarize(entities), level=level)
            self._next_id += 1
            if remaining_levels > 1 and len(entities) > 6:
                # The induced sub-adjacency keeps the parent's node order,
                # so the children's order (and ids) never depend on hashing.
                member_set = set(entities)
                subgraph = {node: neighbours & member_set
                            for node, neighbours in graph.items()
                            if node in member_set}
                children = self._partition(subgraph, level=level + 1,
                                           remaining_levels=remaining_levels - 1)
                if len(children) > 1:
                    community.children = children
            out.append(community)
        return out

    def leaves(self) -> List[Community]:
        """The finest-granularity communities of the hierarchy."""
        out: List[Community] = []

        def walk(community: Community) -> None:
            if community.children:
                for child in community.children:
                    walk(child)
            else:
                out.append(community)

        for community in self.communities:
            walk(community)
        return out

    def _entity_graph(self) -> Dict[IRI, Set[IRI]]:
        """Undirected entity adjacency, nodes in first-seen order (a node
        with a self-loop lists itself as a neighbour)."""
        graph: Dict[IRI, Set[IRI]] = {}
        for triple in self.kg.store:
            if triple.predicate in (RDFS.label, RDFS.comment, RDF.type):
                continue
            if triple.predicate.value.startswith(RDFS.prefix) or \
                    triple.predicate.value.startswith(OWL.prefix):
                continue
            if not isinstance(triple.object, IRI):
                continue
            graph.setdefault(triple.subject, set()).add(triple.object)
            graph.setdefault(triple.object, set()).add(triple.subject)
        return graph

    def _summarize(self, entities: Sequence[IRI]) -> str:
        facts: List[str] = []
        entity_set: Set[IRI] = set(entities)
        for entity in entities:
            for triple in self.kg.outgoing(entity):
                if triple.predicate in (RDFS.label, RDFS.comment, RDF.type):
                    continue
                if isinstance(triple.object, IRI) and triple.object not in entity_set:
                    continue
                facts.append(self.kg.verbalize_triple(triple))
                if len(facts) >= self.max_facts_per_summary:
                    break
            if len(facts) >= self.max_facts_per_summary:
                break
        # The community summary is a detailed report (the GraphRAG paper's
        # community reports run to pages); query-time map steps condense it
        # with the question as focus, so no information is lost up front.
        return " ".join(facts)

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def answer_global(self, question: str, granularity: str = "top") -> str:
        """Map-reduce a global question over community reports.

        ``granularity``: ``"top"`` uses the top-level communities,
        ``"leaf"`` the finest level of the hierarchy. With no summarized
        communities to map over (empty corpus), returns
        :data:`INSUFFICIENT_CONTEXT` without issuing any LLM call and
        sets ``last_empty_context``.
        """
        self._ensure_built()
        self.last_degraded = False
        self.last_faulted_communities = 0
        self.last_empty_context = False
        communities = self.communities if granularity == "top" else self.leaves()
        if not any(community.summary for community in communities):
            self.last_empty_context = True
            self.obs.count("graphrag.empty_context", mode="global")
            return INSUFFICIENT_CONTEXT
        with self.obs.span("graphrag:answer_global", granularity=granularity):
            partials: List[str] = []
            with self.obs.span("stage:map", communities=len(communities)):
                for community in communities:
                    if not community.summary:
                        continue
                    outcome = self.retry.run(
                        lambda: self.llm.complete(P.summarization_prompt(
                            community.summary, focus=question)),
                        key=f"map:{community.community_id}")
                    if outcome.error is not None:
                        # Map-reduce degrades gracefully: a faulting
                        # community drops out of the reduce instead of
                        # failing the whole answer.
                        self.last_faulted_communities += 1
                        self.last_degraded = True
                        continue
                    if outcome.value.text:
                        partials.append(outcome.value.text)
            if not partials:
                return "unknown"
            # Reduce: merge the partial answers into one focused summary.
            with self.obs.span("stage:reduce", partials=len(partials)):
                outcome = self.retry.run(
                    lambda: self.llm.complete(P.summarization_prompt(
                        " ".join(partials), focus=question)),
                    key="reduce")
            if outcome.error is not None:
                self.last_degraded = True
                return " ".join(partials)
            return outcome.value.text or " ".join(partials)

    def answer_global_strict(self, question: str,
                             granularity: str = "top") -> str:
        """Like :meth:`answer_global`, but degraded results *raise*.

        ``answer_global`` never raises — it absorbs faults and records
        them in ``last_degraded``. A serving front-end needs the opposite
        contract: a tier that cannot deliver full fidelity should fail
        fast so admission control can route the request to a cheaper
        tier. Raises :class:`GraphRAGEmptyContextError` when there was
        no context to map over, and :class:`GraphRAGUnhealthyError` when
        the map-reduce degraded in any way.
        """
        answer = self.answer_global(question, granularity=granularity)
        if self.last_empty_context:
            raise GraphRAGEmptyContextError(question, mode="global")
        if self.last_degraded:
            raise GraphRAGUnhealthyError(
                f"global answer degraded "
                f"({self.last_faulted_communities} faulted communities)",
                faulted_communities=self.last_faulted_communities)
        return answer

    def answer_global_batch(self, questions: Sequence[str],
                            granularity: str = "top",
                            batch_size: Optional[int] = None,
                            executor: Optional[ParallelExecutor] = None,
                            checkpoint=None) -> List[str]:
        """Map-reduce many global questions through the batch fast path.

        Fault-free, result-identical to ``[answer_global(q, granularity)
        for q in questions]``: per chunk, every question's map prompts go
        through one batched completion (identical community×question
        prompts — e.g. repeated questions — complete once), then all
        reduce prompts go through a second. Faulting map calls drop their
        community from that question's reduce, exactly as the sequential
        path degrades. After the call, ``last_degraded`` /
        ``last_faulted_communities`` aggregate over the whole batch.
        All completions run on the calling thread in deterministic batch
        order; ``executor`` fans out only pure prompt construction.

        With a ``checkpoint``, each chunk journals its answers plus its
        fault accounting (as the commit's ``extra``), so a resumed run
        restores both the answers *and* the aggregated
        ``last_faulted_communities``/``last_degraded`` values.
        """
        self._ensure_built()
        executor = executor or ParallelExecutor(obs=self.obs)
        self.last_degraded = False
        self.last_faulted_communities = 0
        self.last_empty_context = False
        communities = [c for c in
                       (self.communities if granularity == "top"
                        else self.leaves())
                       if c.summary]
        questions = list(questions)
        if not communities:
            # Result-identical to the sequential path: no context means
            # no LLM calls, no checkpoint chunks, and the sentinel for
            # every question.
            self.last_empty_context = True
            self.obs.count("graphrag.empty_context", mode="global")
            return [INSUFFICIENT_CONTEXT] * len(questions)
        answers: List[str] = []
        if checkpoint is not None:
            checkpoint.ensure_meta("graphrag:answer_global_batch")
            resume = checkpoint.resume_prefix()
            answers.extend(resume.values[:len(questions)])
            for extra in resume.extras:
                self.last_faulted_communities += extra.get("faulted", 0)
                self.last_degraded = self.last_degraded or extra.get(
                    "degraded", False)
            fast_forward_faults(self.llm, resume.llm_calls)
        for chunk in chunked(questions[len(answers):], batch_size):
            chunk_answers, faulted, degraded = self._answer_global_chunk(
                chunk, communities, executor)
            self.last_faulted_communities += faulted
            self.last_degraded = self.last_degraded or degraded
            answers.extend(chunk_answers)
            if checkpoint is not None:
                checkpoint.record_chunk(
                    chunk_answers,
                    llm_calls=fault_schedule_cursor(self.llm),
                    extra={"faulted": faulted, "degraded": degraded})
        return answers

    def _answer_global_chunk(self, questions: Sequence[str],
                             communities: List[Community],
                             executor: ParallelExecutor
                             ) -> Tuple[List[str], int, bool]:
        """One chunk's map-reduce; returns (answers, faulted, degraded).

        Fault accounting is returned rather than accumulated on ``self``
        so the caller can journal it per chunk and restore it on resume.
        """
        faulted = 0
        degraded = False
        # Map step: one flat batch of (question × community) prompts.
        with self.obs.span("stage:map", questions=len(questions),
                           communities=len(communities)):
            map_prompts = executor.map(
                [(q, c) for q in questions for c in communities],
                lambda pair: P.summarization_prompt(pair[1].summary,
                                                    focus=pair[0]))
            map_outcomes = resilient_complete_all(self.llm, map_prompts,
                                                  retry=self.retry)
        partials_per_question: List[List[str]] = []
        for i in range(len(questions)):
            partials: List[str] = []
            for outcome in map_outcomes[i * len(communities):
                                        (i + 1) * len(communities)]:
                if not outcome.ok:
                    # A faulting community drops out of this question's
                    # reduce instead of failing the whole answer.
                    faulted += 1
                    degraded = True
                    continue
                if outcome.response.text:
                    partials.append(outcome.response.text)
            partials_per_question.append(partials)
        # Reduce step: one batch over the questions that have partials.
        reduce_rows = [i for i, partials in enumerate(partials_per_question)
                       if partials]
        reduce_prompts = [P.summarization_prompt(
            " ".join(partials_per_question[i]), focus=questions[i])
            for i in reduce_rows]
        with self.obs.span("stage:reduce", questions=len(reduce_rows)):
            reduce_outcomes = resilient_complete_all(self.llm, reduce_prompts,
                                                     retry=self.retry)
        answers = ["unknown"] * len(questions)
        for i, outcome in zip(reduce_rows, reduce_outcomes):
            merged = " ".join(partials_per_question[i])
            if not outcome.ok:
                degraded = True
                answers[i] = merged
            else:
                answers[i] = outcome.response.text or merged
        return answers, faulted, degraded

    def answer_local(self, question: str, strict: bool = False) -> str:
        """Local questions: entity-level retrieval plus the entity's
        community report (GraphRAG's local search combines both).

        When no mention resolves to an entity and no community matches,
        there is nothing to ground an answer in: rather than prompting
        the model context-free (and inviting a hallucinated reply), the
        call returns :data:`INSUFFICIENT_CONTEXT` without any LLM call —
        or raises :class:`GraphRAGEmptyContextError` with ``strict``.
        """
        self._ensure_built()
        mentions = self.llm.find_mentions(question)
        seeds = {m.iri for m in mentions if m.iri is not None}
        context_parts: List[str] = []
        if seeds:
            neighbourhood = self.kg.subgraph_triples(
                sorted(seeds, key=lambda e: e.value), hops=1, max_triples=40)
            for triple in neighbourhood:
                if triple.predicate in (RDFS.label, RDFS.comment, RDF.type):
                    continue
                context_parts.append(self.kg.verbalize_triple(triple))
        for community in self.communities:
            if seeds & set(community.entities):
                context_parts.append(community.summary)
                break
        self.last_degraded = False
        self.last_faulted_communities = 0
        self.last_empty_context = False
        if not context_parts:
            self.last_empty_context = True
            self.obs.count("graphrag.empty_context", mode="local")
            if strict:
                raise GraphRAGEmptyContextError(question, mode="local")
            return INSUFFICIENT_CONTEXT
        prompt = P.qa_prompt(question, context=" ".join(context_parts))
        outcome = self.retry.run(lambda: self.llm.complete(prompt),
                                 key=f"local:{question}")
        if outcome.error is not None:
            self.last_degraded = True
            return "unknown"
        return P.parse_qa_response(outcome.value.text)

    def coverage_of(self, key_facts: Sequence[str], answer: str) -> float:
        """Fraction of gold key phrases present in a global answer —
        the comprehensiveness metric of the GraphRAG paper."""
        if not key_facts:
            return 1.0
        lowered = answer.lower()
        return sum(1 for fact in key_facts if fact.lower() in lowered) / len(key_facts)
