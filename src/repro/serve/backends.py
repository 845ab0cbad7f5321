"""Tier ladders wiring the QA pipelines into the serving gateway.

Each request kind gets an ordered degradation ladder of
:class:`~repro.serve.gateway.TierStep` handlers over *shared* pipeline
instances (one GraphRAG index, one RAG index, one text2sparql system,
one bounded session store — the point of a gateway is multiplexing many
clients over them):

========  =======================  ====================  =============
kind      tier 0 (full fidelity)   tier 1 (degraded)     tier 2 (busy)
========  =======================  ====================  =============
graphrag  strict global map-reduce RAG over documents    static notice
rag       retrieval + generation   closed-book answer    static notice
sparql    draft → repair → execute KG path reasoning     static notice
chat      stateful dialogue        stateless closed-book static notice
agent     multi-step ReAct episode single-shot local RAG static notice
========  =======================  ====================  =============

Tier-0 handlers are *strict*: a degraded result raises a transient
error instead of passing itself off as healthy, so the gateway's
breaker sees real failures and pressure-based tier selection composes
with fault-driven fallthrough. The terminal tier never fails.

Simulated service costs per tier are the base seconds the gateway
charges (jittered per request); they are deliberately ordered
``tier 0 > tier 1 >> busy`` so degradation actually buys capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.agent.loop import GraphAgent
from repro.core.observability import resolve_obs
from repro.enhanced.graph_rag import GraphRAG
from repro.enhanced.rag import NaiveRAG
from repro.kg.datasets import DATASET_BUILDERS, Dataset
from repro.kg.triples import IRI
from repro.llm.faults import LLMTransientError
from repro.llm.model import SimulatedLLM
from repro.llm.registry import load_model
from repro.qa.chatbot import KGChatbot
from repro.qa.multihop import generate_multihop_questions
from repro.qa.text2sparql import (ResilientText2SparqlQA, SparqlGenText2Sparql,
                                  Text2SparqlTask)
from repro.serve.gateway import Request, TierStep
from repro.serve.session import SessionStore

#: What the terminal tier returns — an answer in the protocol sense only.
BUSY_MESSAGE = ("The system is experiencing heavy load. Your request was "
                "not fully processed - please retry in a moment.")

#: Base simulated service seconds per (kind, tier).
TIER_COSTS: Dict[str, Sequence[float]] = {
    "graphrag": (0.8, 0.3, 0.02),
    "rag": (0.35, 0.12, 0.02),
    "sparql": (0.45, 0.2, 0.02),
    "chat": (0.3, 0.12, 0.02),
    # Multi-step episodes are the most expensive full-fidelity tier in
    # the ladder — several LLM decisions plus tool fan-out per request.
    "agent": (1.2, 0.35, 0.02),
}

#: Live chat sessions one gateway keeps, and the dialogue turns each
#: session retains.
SESSION_CAPACITY = 32
MAX_HISTORY = 8

#: One-hop factual questions in each load-generation pool.
N_FACTUAL = 12

#: Global questions for the graphrag workload (query-focused map-reduce).
GLOBAL_QUESTIONS = (
    "What are the main themes of this dataset?",
    "Summarize the most connected entities and how they relate.",
    "What are the dominant relationships in the knowledge graph?",
    "Which communities of entities stand out, and why?",
)

#: Conversational filler for the chat workload's non-factual turns.
CHAT_SMALLTALK = (
    "hello there",
    "thanks for the help",
    "tell me something interesting",
    "good morning",
)


@dataclass
class ServingBackends:
    """The shared pipeline fleet behind one gateway."""

    dataset: Dataset
    llm: SimulatedLLM
    rag: NaiveRAG
    graph_rag: GraphRAG
    sparql_qa: ResilientText2SparqlQA
    sessions: SessionStore
    agent: Optional[GraphAgent] = None
    handlers: Dict[str, List[TierStep]] = field(default_factory=dict)
    #: The ReplicatedShardedTripleStore when ``replicas > 0`` (else None);
    #: benches and the CLI reach through this for partition control and
    #: replication stats.
    replicated: Optional[object] = None


def _labels(dataset: Dataset, answers) -> str:
    """Render an IRI answer set as a reply string."""
    entities = sorted(a for a in answers if isinstance(a, IRI))
    if not entities:
        return "no results found in the knowledge graph"
    return ", ".join(dataset.kg.label(e) for e in entities)


def build_backends(dataset: str = "enterprise", seed: int = 0,
                   llm: Optional[SimulatedLLM] = None,
                   obs=None, shards: int = 0, replicas: int = 0,
                   transport_profile=None) -> ServingBackends:
    """Build the shared pipelines and their tier ladders for one gateway.

    ``llm`` defaults to a chatgpt-profile model absorbed on the dataset's
    KG; pass a :class:`~repro.llm.faults.FaultInjectingLLM` wrapper to
    run the same ladders under chaos. Indexes (RAG chunks, GraphRAG
    communities) are built up front so serving-time costs are pure
    query-path costs. ``shards > 0`` re-homes the dataset's triples onto
    a hash-sharded store *before* any index builds — byte-identical
    semantics (the sharded façade preserves the full store contract),
    but reads invalidate per shard and the chaos suite exercises the
    fan-out paths. ``replicas > 0`` instead re-homes onto a
    :class:`~repro.kg.replication.ReplicatedShardedTripleStore`
    (``shards`` or the default shard count × ``replicas``) behind the
    simulated shard transport: tier-0 handlers then run under *strict*
    read consistency (a stale or unavailable shard raises and falls
    through the ladder) while degraded tiers tolerate stale reads —
    partition-tolerant serving instead of partition-blind serving.
    """
    obs = resolve_obs(obs)
    data = DATASET_BUILDERS[dataset](seed=seed)
    replicated = None
    if replicas > 0:
        from repro.kg.replication import ReplicatedShardedTripleStore
        from repro.kg.sharding import DEFAULT_SHARDS
        replicated = ReplicatedShardedTripleStore(
            data.kg.store, shards=shards or DEFAULT_SHARDS,
            replicas=replicas, profile=transport_profile, obs=obs)
        data.kg.store = replicated
    elif shards > 0:
        from repro.kg.sharding import ShardedTripleStore
        data.kg.store = ShardedTripleStore(data.kg.store, shards=shards)

    def consistency(mode):
        """Run a tier handler under one read-consistency mode (no-op
        without a replicated store)."""
        def wrap(fn):
            if replicated is None:
                return fn
            def handler(request: Request):
                with replicated.reads_consistency(mode):
                    return fn(request)
            return handler
        return wrap

    strict_reads = consistency("strict")
    stale_ok_reads = consistency("stale_ok")
    model = llm if llm is not None else load_model("chatgpt", world=data.kg,
                                                   seed=seed)
    rag = NaiveRAG(model, cache=True, obs=obs)
    rag.index_documents(data.metadata.get("documents", []))
    graph = GraphRAG(model, data.kg, cache=True, obs=obs)
    graph.build()
    task = Text2SparqlTask(data, n=8, seed=seed)
    sparql_qa = ResilientText2SparqlQA(SparqlGenText2Sparql(model, task),
                                       task, model)
    sessions = SessionStore(
        lambda tenant, session_id: KGChatbot(model, data.kg, sparql_qa,
                                             max_history=MAX_HISTORY),
        max_sessions=SESSION_CAPACITY)
    if obs.enabled:
        obs.register_source("serve.sessions", sessions.cache_stats)

    def graphrag_full(request: Request):
        return graph.answer_global_strict(request.question)

    def graphrag_degraded(request: Request):
        return rag.answer(request.question)

    def rag_full(request: Request):
        answer, report = rag.answer_with_report(request.question)
        if report.degraded:
            raise LLMTransientError("rag pipeline degraded")
        return answer

    def rag_degraded(request: Request):
        return rag.closed_book_answer(request.question)

    def sparql_full(request: Request):
        answers, route = sparql_qa.answer_with_route(request.question)
        if route != "sparql":
            raise LLMTransientError(f"structured querying degraded "
                                    f"to {route}")
        return _labels(data, answers)

    def sparql_degraded(request: Request):
        try:
            return _labels(data, sparql_qa.path_fallback.answer(
                request.question))
        except LLMTransientError:
            return "no results found in the knowledge graph"

    agent = GraphAgent(model, data.kg, max_steps=8, obs=obs)

    def agent_full(request: Request):
        # The session is pinned for the whole episode: the LRU must not
        # evict (and thereby reset) a dialogue that an in-flight
        # multi-step episode is appending observations to.
        with sessions.pin(request.tenant,
                          request.session_id or "default") as session:
            trace = agent.run(request.question)
            for step in trace.steps:
                if step.observation is not None:
                    session.record_observation(
                        f"[{step.tool or 'agent'}] {step.observation}")
            if trace.degraded:
                raise LLMTransientError(
                    "agent episode degraded "
                    f"({sum(1 for s in trace.steps if s.fault)} faulted "
                    "steps)")
            return trace.final_answer

    def agent_degraded(request: Request):
        return graph.answer_local(request.question)

    def chat_full(request: Request):
        session = sessions.get(request.tenant,
                               request.session_id or "default")
        turn = session.chat(request.question)
        if turn.degraded:
            raise LLMTransientError("dialogue turn degraded")
        return turn.reply

    def chat_stateless(request: Request):
        return rag.closed_book_answer(request.question)

    def busy(request: Request) -> str:
        return BUSY_MESSAGE

    costs = TIER_COSTS
    # Tier 0 runs strict (a stale/unavailable shard is a *failure* the
    # breaker and ladder should see); degraded tiers tolerate stale reads
    # — serving a slightly old answer beats the busy message. The busy
    # tier reads nothing.
    handlers = {
        "graphrag": [
            TierStep("graphrag", costs["graphrag"][0],
                     strict_reads(graphrag_full)),
            TierStep("rag", costs["graphrag"][1],
                     stale_ok_reads(graphrag_degraded)),
            TierStep("busy", costs["graphrag"][2], busy),
        ],
        "rag": [
            TierStep("rag", costs["rag"][0], strict_reads(rag_full)),
            TierStep("closed-book", costs["rag"][1],
                     stale_ok_reads(rag_degraded)),
            TierStep("busy", costs["rag"][2], busy),
        ],
        "sparql": [
            TierStep("sparql", costs["sparql"][0],
                     strict_reads(sparql_full)),
            TierStep("path", costs["sparql"][1],
                     stale_ok_reads(sparql_degraded)),
            TierStep("busy", costs["sparql"][2], busy),
        ],
        "chat": [
            TierStep("chat", costs["chat"][0], strict_reads(chat_full)),
            TierStep("stateless", costs["chat"][1],
                     stale_ok_reads(chat_stateless)),
            TierStep("busy", costs["chat"][2], busy),
        ],
        "agent": [
            TierStep("agent", costs["agent"][0], strict_reads(agent_full)),
            TierStep("single-shot", costs["agent"][1],
                     stale_ok_reads(agent_degraded)),
            TierStep("busy", costs["agent"][2], busy),
        ],
    }
    return ServingBackends(dataset=data, llm=model, rag=rag, graph_rag=graph,
                           sparql_qa=sparql_qa, sessions=sessions,
                           agent=agent, handlers=handlers,
                           replicated=replicated)


def question_pool(dataset: Dataset, seed: int = 0) -> Dict[str, List[str]]:
    """Deterministic per-kind question lists for load generation."""
    factual = [q.text for q in generate_multihop_questions(
        dataset, n=N_FACTUAL, hops=1, seed=seed)]
    if not factual:  # tiny KGs: keep every kind non-empty
        factual = ["What is in the knowledge graph?"]
    chat: List[str] = []
    for index, question in enumerate(factual):
        chat.append(CHAT_SMALLTALK[index % len(CHAT_SMALLTALK)])
        chat.append(question)
    multihop = [q.text for q in generate_multihop_questions(
        dataset, n=max(4, N_FACTUAL // 2), hops=2, seed=seed)]
    return {
        "graphrag": list(GLOBAL_QUESTIONS),
        "rag": list(factual),
        "sparql": list(factual),
        "chat": chat,
        "agent": multihop or list(factual),
    }
