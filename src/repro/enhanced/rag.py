"""Retrieval-Augmented Generation: Naive, Advanced, Modular (survey §3).

Naive RAG is the survey's three-step pipeline verbatim — **indexing**
(chunk + embed), **retrieval** (query embedding, top-k by similarity),
**generation** (query + chunks → LLM). Advanced RAG adds pre-retrieval query
expansion and post-retrieval reranking/dedup. Modular RAG adds pluggable
retrieval modules, including a KG retriever — the "retrieve pertinent
information from knowledge graphs" capability the survey attributes to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.durability import fast_forward_faults, fault_schedule_cursor
from repro.core.executor import ParallelExecutor, chunked
from repro.core.observability import resolve_obs
from repro.core.pipeline import (Pipeline, PipelineContext, PipelineReport,
                                 StageReport)
from repro.core.resilience import RetryPolicy
from repro.kg.graph import KnowledgeGraph
from repro.kg.triples import RDF, RDFS
from repro.llm import prompts as P
from repro.llm.batch import resilient_complete_all
from repro.llm.caching import maybe_cached
from repro.llm.embedding import TextEncoder
from repro.llm.faults import LLMTransientError
from repro.llm.model import SimulatedLLM
from repro.llm.tokenizer import word_tokens
from repro.text import split_sentences
from repro.vector import VectorIndex


@dataclass(frozen=True)
class Chunk:
    """One indexed text segment."""

    chunk_id: str
    text: str
    document_id: str


class DocumentChunker:
    """Sentence-window chunking with overlap."""

    def __init__(self, sentences_per_chunk: int = 3, overlap: int = 1):
        if overlap >= sentences_per_chunk:
            raise ValueError("overlap must be smaller than the chunk size")
        self.sentences_per_chunk = sentences_per_chunk
        self.overlap = overlap

    def chunk(self, document_id: str, text: str) -> List[Chunk]:
        """Split a document into overlapping sentence windows."""
        sentences = split_sentences(text)
        if not sentences:
            return []
        step = self.sentences_per_chunk - self.overlap
        chunks = []
        for start in range(0, len(sentences), step):
            window = sentences[start:start + self.sentences_per_chunk]
            chunks.append(Chunk(
                chunk_id=f"{document_id}#{start}",
                text=" ".join(window),
                document_id=document_id,
            ))
            if start + self.sentences_per_chunk >= len(sentences):
                break
        return chunks


class NaiveRAG:
    """Indexing → retrieval → generation.

    Resilience: retrieval failures degrade to an empty context (closed-book
    prompting), and transient LLM faults on the augmented generation call
    are retried, then degrade to a closed-book answer — the run never
    raises for operational faults, and ``context.report.degraded`` records
    that quality was sacrificed.
    """

    def __init__(self, llm: SimulatedLLM, encoder: Optional[TextEncoder] = None,
                 chunker: Optional[DocumentChunker] = None, top_k: int = 4,
                 retry: Optional[RetryPolicy] = None, cache=False, obs=None):
        # ``cache`` enables a memoizing CachingLLM in front of the model
        # (True for the default size, an int for an explicit size); repeated
        # questions then skip the generation call entirely.
        self.llm = maybe_cached(llm, cache)
        # ``obs`` attaches an observability recorder (no-op by default):
        # the pipeline's spans and stage timings land on its clock, and the
        # LLM stack / embedder cache / vector index are bound as metric
        # sources.
        self.obs = resolve_obs(obs)
        self.encoder = encoder or TextEncoder(dim=96)
        self.chunker = chunker or DocumentChunker()
        self.top_k = top_k
        self.retry = retry or RetryPolicy(max_attempts=3,
                                          retry_on=(LLMTransientError,))
        self.index = VectorIndex(dim=self.encoder.dim)
        self.chunks: Dict[str, Chunk] = {}
        if self.obs.enabled:
            self.obs.bind_llm(self.llm)
            self.obs.bind_cache("encoder.cache", self.encoder.embedder)
            self.obs.bind_index("rag.index", self.index)
        self.pipeline = (
            Pipeline("naive-rag", obs=self.obs)
            .add("retrieval", self._retrieve,
                 on_error="fallback", fallback=self._retrieve_nothing)
            .add("generation", self._generate, retry=self.retry,
                 on_error="fallback", fallback=self._generate_closed_book,
                 catch=(LLMTransientError,))
        )

    # -- indexing -----------------------------------------------------------
    def index_documents(self, documents: Sequence[Tuple[str, str]]) -> int:
        """Chunk and embed (doc_id, text) pairs; returns chunk count."""
        added = 0
        for document_id, text in documents:
            for chunk in self.chunker.chunk(document_id, text):
                self.chunks[chunk.chunk_id] = chunk
                self.index.add(chunk.chunk_id, self.encoder.encode(chunk.text),
                               payload=chunk)
                added += 1
        return added

    # -- query --------------------------------------------------------------
    def answer(self, question: str) -> str:
        """Retrieve context and generate an answer."""
        context = self.pipeline.execute(question=question)
        return context["answer"]

    def answer_with_report(self, question: str) -> Tuple[str, PipelineReport]:
        """Like :meth:`answer`, plus the run's resilience report."""
        context = self.pipeline.execute(question=question)
        assert context.report is not None
        return context["answer"], context.report

    def answer_batch(self, questions: Sequence[str],
                     batch_size: Optional[int] = None,
                     executor: Optional[ParallelExecutor] = None,
                     checkpoint=None) -> List[str]:
        """Answer a corpus of questions through the batch fast path.

        Fault-free, this is result-identical to ``[answer(q) for q in
        questions]`` — but retrieval fans out across the executor and all
        generation calls for a chunk go through one batched completion
        (dedup + a single cache pass). Defaults (no executor, no batch
        size) behave like today's sequential path, one chunk, inline.
        ``checkpoint`` journals finished chunks so a killed run resumes
        with byte-identical answers and reports.
        """
        return [answer for answer, _ in self.answer_batch_with_reports(
            questions, batch_size=batch_size, executor=executor,
            checkpoint=checkpoint)]

    def answer_batch_with_reports(
            self, questions: Sequence[str],
            batch_size: Optional[int] = None,
            executor: Optional[ParallelExecutor] = None,
            checkpoint=None
    ) -> List[Tuple[str, PipelineReport]]:
        """Like :meth:`answer_batch`, plus one report per question.

        Reports mirror the sequential pipeline's stage statuses,
        degradation flags and notes (stage ``elapsed`` is 0.0 — batch
        stages are not individually timed). All LLM traffic flows through
        ``resilient_complete_all`` on the calling thread in batch order,
        so outputs and fault schedules are independent of the executor's
        worker count.

        With a ``checkpoint``, every finished chunk's (answer, report)
        pairs are journaled together with the LLM fault cursor; resuming
        restores the committed prefix (reports rebuilt via
        ``PipelineReport.from_dict``), fast-forwards the fault schedule,
        and recomputes only unfinished chunks.
        """
        executor = executor or ParallelExecutor(obs=self.obs)
        questions = list(questions)
        results: List[Tuple[str, PipelineReport]] = []
        if checkpoint is not None:
            checkpoint.ensure_meta(f"rag:{self.pipeline.name}")
            resume = checkpoint.resume_prefix()
            restored = resume.values[:len(questions)]
            results.extend(
                (value["answer"], PipelineReport.from_dict(value["report"]))
                for value in restored)
            fast_forward_faults(self.llm, resume.llm_calls)
        for chunk in chunked(questions[len(results):], batch_size):
            chunk_results = self._answer_chunk(chunk, executor)
            results.extend(chunk_results)
            if checkpoint is not None:
                checkpoint.record_chunk(
                    [{"answer": a, "report": r.to_dict()}
                     for a, r in chunk_results],
                    llm_calls=fault_schedule_cursor(self.llm))
        return results

    def _answer_chunk(self, questions: Sequence[str],
                      executor: ParallelExecutor
                      ) -> List[Tuple[str, PipelineReport]]:
        reports = [PipelineReport(pipeline=self.pipeline.name)
                   for _ in questions]
        # Retrieval is pure per question (no completion calls), so it both
        # fans out across the executor and dedups: a repeated question is
        # retrieved once and its outcome shared by every occurrence. A
        # failing retrieval falls back to closed-book context, exactly as
        # the sequential stage policy does (purity makes the failure
        # deterministic per question, so sharing it preserves sequential
        # behaviour).
        first_row: Dict[str, int] = {}
        row_of = [first_row.setdefault(q, len(first_row)) for q in questions]
        distinct_outcomes = executor.map_outcomes(list(first_row),
                                                  self.retrieve)
        chunk_lists: List[List[Chunk]] = []
        for row, report in zip(row_of, reports):
            outcome = distinct_outcomes[row]
            if outcome.ok:
                chunk_lists.append(outcome.value)
                report.stages.append(StageReport("retrieval", "ok", 1, 0.0))
            else:
                chunk_lists.append([])
                report.stages.append(StageReport(
                    "retrieval", "fell_back", 1, 0.0,
                    error=repr(outcome.error)))
                report.degraded = True
                report.notes.append(
                    f"retrieval: used fallback after {outcome.error!r}")
        # Prompt building runs on the calling thread: ModularRAG's extra
        # retrieval modules may themselves call the LLM, and coordinating
        # them here keeps the completion order deterministic.
        prompts = [self._build_prompt(q, chunks, report)
                   for q, chunks, report in zip(questions, chunk_lists,
                                                reports)]
        outcomes = resilient_complete_all(self.llm, prompts,
                                          retry=self.retry)
        results: List[Tuple[str, PipelineReport]] = []
        for question, outcome, report in zip(questions, outcomes, reports):
            if outcome.ok:
                answer = P.parse_qa_response(outcome.response.text)
                status = "retried" if outcome.attempts > 1 else "ok"
                report.stages.append(StageReport(
                    "generation", status, outcome.attempts, 0.0))
            else:
                answer = self._closed_book_answer(question)
                report.stages.append(StageReport(
                    "generation", "fell_back", max(outcome.attempts, 1),
                    0.0, error=repr(outcome.error)))
                report.degraded = True
                report.notes.append(
                    f"generation: used fallback after {outcome.error!r}")
            results.append((answer, report))
        return results

    def _build_prompt(self, question: str, chunks: List[Chunk],
                      report: PipelineReport) -> str:
        """The augmented prompt for one question (batch path)."""
        return P.qa_prompt(question,
                           context=" ".join(c.text for c in chunks) or None)

    def closed_book_answer(self, question: str) -> str:
        """Answer without retrieval: bare question → parametric memory.

        The cheapest degraded tier — no index traffic, a single
        completion; a transient fault abstains with ``"unknown"`` rather
        than raise. The batch path and the serving gateway's degraded
        tiers both use it.
        """
        try:
            response = self.llm.complete(P.qa_prompt(question))
            return P.parse_qa_response(response.text)
        except LLMTransientError:
            return "unknown"

    # Backwards-compatible alias for the batch path's original private name.
    _closed_book_answer = closed_book_answer

    def retrieve(self, question: str) -> List[Chunk]:
        """The chunks the generator would see for this question."""
        hits = self.index.search(self._query_vector(question), k=self.top_k)
        return [hit.payload for hit in hits]

    def _query_vector(self, question: str):
        return self.encoder.encode(question)

    def _retrieve(self, context: PipelineContext) -> None:
        context["chunks"] = self.retrieve(context["question"])

    def _retrieve_nothing(self, context: PipelineContext) -> None:
        """Retrieval fallback: proceed closed-book with no chunks."""
        context["chunks"] = []

    def _generate(self, context: PipelineContext) -> None:
        chunks: List[Chunk] = context["chunks"]
        prompt = P.qa_prompt(context["question"],
                             context=" ".join(c.text for c in chunks) or None)
        context["answer"] = P.parse_qa_response(self.llm.complete(prompt).text)

    def _generate_closed_book(self, context: PipelineContext) -> None:
        """Generation fallback: drop the retrieved context (the augmented
        prompt kept faulting) and answer from parametric memory; if even
        the bare call faults, abstain rather than crash."""
        try:
            response = self.llm.complete(P.qa_prompt(context["question"]))
            context["answer"] = P.parse_qa_response(response.text)
        except LLMTransientError:
            context["answer"] = "unknown"


class AdvancedRAG(NaiveRAG):
    """Naive RAG + query expansion, wider retrieval, reranking, dedup."""

    def __init__(self, llm: SimulatedLLM, encoder: Optional[TextEncoder] = None,
                 chunker: Optional[DocumentChunker] = None, top_k: int = 4,
                 retrieve_factor: int = 3, retry: Optional[RetryPolicy] = None,
                 cache=False, obs=None):
        super().__init__(llm, encoder=encoder, chunker=chunker, top_k=top_k,
                         retry=retry, cache=cache, obs=obs)
        self.retrieve_factor = retrieve_factor
        self.pipeline.name = "advanced-rag"

    def _expand_query(self, question: str) -> str:
        """Pre-retrieval: expand the query with recognized entity labels
        (a cheap HyDE/rewrite analogue grounded in the mention lexicon)."""
        expansions = [m.label for m in self.llm.find_mentions(question)]
        return question + " " + " ".join(expansions) if expansions else question

    def retrieve(self, question: str) -> List[Chunk]:
        expanded = self._expand_query(question)
        hits = self.index.search(self.encoder.encode(expanded),
                                 k=self.top_k * self.retrieve_factor)
        # Post-retrieval rerank: lexical overlap with the question, which a
        # cross-encoder would compute; then near-duplicate removal.
        question_tokens = set(word_tokens(question))
        scored = []
        for hit in hits:
            chunk: Chunk = hit.payload
            overlap = len(question_tokens & set(word_tokens(chunk.text)))
            scored.append((overlap + hit.score, chunk))
        scored.sort(key=lambda pair: (-pair[0], pair[1].chunk_id))
        selected: List[Chunk] = []
        seen_texts: List[set] = []
        for _, chunk in scored:
            tokens = set(word_tokens(chunk.text))
            if any(len(tokens & prior) / (len(tokens | prior) or 1) > 0.8
                   for prior in seen_texts):
                continue  # near-duplicate of an already selected chunk
            selected.append(chunk)
            seen_texts.append(tokens)
            if len(selected) >= self.top_k:
                break
        return selected


class ModularRAG(AdvancedRAG):
    """Advanced RAG + pluggable retrieval modules (notably a KG retriever)."""

    def __init__(self, llm: SimulatedLLM, encoder: Optional[TextEncoder] = None,
                 chunker: Optional[DocumentChunker] = None, top_k: int = 4,
                 kg: Optional[KnowledgeGraph] = None, kg_facts: int = 6,
                 retry: Optional[RetryPolicy] = None, cache=False, obs=None):
        super().__init__(llm, encoder=encoder, chunker=chunker, top_k=top_k,
                         retry=retry, cache=cache, obs=obs)
        self.kg = kg
        if kg is not None and self.obs.enabled:
            self.obs.bind_kg(kg)
        self.kg_facts = kg_facts
        self.pipeline.name = "modular-rag"
        self.extra_retrievers: List[Callable[[str], List[str]]] = []
        if kg is not None:
            self.extra_retrievers.append(self._kg_retriever)

    def add_retriever(self, retriever: Callable[[str], List[str]]) -> None:
        """Register an extra retrieval module (question → fact strings)."""
        self.extra_retrievers.append(retriever)

    def _kg_retriever(self, question: str) -> List[str]:
        assert self.kg is not None
        mentions = self.llm.find_mentions(question)
        seeds = [m.iri for m in mentions if m.iri is not None]
        facts: List[str] = []
        if seeds:
            subgraph = self.kg.subgraph_triples(seeds, hops=1,
                                               max_triples=self.kg_facts * 2)
            for triple in subgraph:
                if triple.predicate in (RDFS.label, RDFS.comment, RDF.type):
                    continue
                facts.append(self.kg.verbalize_triple(triple))
                if len(facts) >= self.kg_facts:
                    break
        return facts

    def _collect_facts(self, question: str,
                       report: Optional[PipelineReport] = None) -> List[str]:
        """Run every extra retrieval module; a faulting module degrades
        the context (recorded on ``report`` when given), not the answer."""
        facts: List[str] = []
        for retriever in self.extra_retrievers:
            try:
                facts.extend(retriever(question))
            except LLMTransientError:
                if report is not None:
                    report.degraded = True
                    report.notes.append(
                        "modular-rag: retrieval module faulted")
        return facts

    def _generate(self, context: PipelineContext) -> None:
        chunks: List[Chunk] = context["chunks"]
        question = context["question"]
        facts: List[str] = []
        for retriever in self.extra_retrievers:
            try:
                facts.extend(retriever(question))
            except LLMTransientError:
                # A faulting module degrades the context, not the answer path.
                context.mark_degraded("modular-rag: retrieval module faulted")
        context["facts"] = facts
        prompt = P.qa_prompt(
            question,
            context=" ".join(c.text for c in chunks) or None,
            facts=facts or None,
        )
        context["answer"] = P.parse_qa_response(self.llm.complete(prompt).text)

    def _build_prompt(self, question: str, chunks: List[Chunk],
                      report: PipelineReport) -> str:
        facts = self._collect_facts(question, report)
        return P.qa_prompt(
            question,
            context=" ".join(c.text for c in chunks) or None,
            facts=facts or None,
        )
