"""The four end-to-end workloads: inputs, system under test, grading.

Each workload is built in three timed phases — ``dataset`` (the flat
copy the inputs and gold answers come from), ``backends`` (the system
under test, built through the system's own public constructors) and
``inputs`` (the seeded request schedule) — and then driven one
operation at a time by ``run.py``. Inputs come from ``--seed`` and the
flat copy only, never through the system under test: generating
questions through a lossy replicated store can itself fail.

The datasets and the system's own seed are a fixed fixture
(:data:`FIXTURE_SEED`); ``--seed`` draws everything request-level: the
request schedule, the SPARQL constants, the ingest order and updates
and the shard transport's fault schedule. With the dataset drawn per
seed too, which questions happened to be slow spread ``serve_mixed``'s
median latency by 5% (inter-quartile) between seeds, against under 1%
between runs of one seed.

Load is a closed loop with one client and no think time. The gateway
runs handlers under its lock, so the real server is one synchronous
worker; each request's simulated arrival is the previous request's
simulated finish, which keeps the modelled queue empty so queue pressure
never picks a degraded tier.
"""

from __future__ import annotations

import functools
import importlib
import os
import random
import shutil
import statistics
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Sequence, Tuple


@dataclass
class Outcome:
    """What grading one operation found (all outside the timed region)."""

    error: bool = False        # raised, failed, rejected or shed
    degraded: bool = False     # answered below tier 0
    wrong: bool = False        # an exact answer missing a gold label
    graded: bool = False       # counted in answer_accuracy
    right: bool = False        # graded and contains every gold label


@dataclass
class Workload:
    """One built workload: the system, its inputs and how to grade it."""

    run: Callable[[int], Any]
    grade: Callable[[int, Any], Outcome]
    #: One untimed-by-the-loop pass that fills caches; returns the outputs
    #: that ``answer_accuracy`` is graded on (every distinct question once,
    #: so the score does not depend on how many operations a run fits).
    warmup: Callable[[], List[Any]]
    #: Cumulative public counters (read at chunk boundaries).
    counters: Callable[[], Dict[str, float]] = lambda: {}
    #: End-of-run one-shot phases, timed with the given phase timer, and
    #: checks: returns ({metric: (reference s, raw s)}, wrong outputs).
    finish: Callable[[Callable], Tuple[Dict[str, Tuple[float, float]], int]] \
        = lambda timer: ({}, 0)
    close: Callable[[], None] = lambda: None
    phases: Dict[str, float] = field(default_factory=dict)


#: Modules each workload family imports; timed as the ``import`` phase.
IMPORTS = {
    "serve": ("repro.serve", "repro.kg.replication", "repro.qa.multihop"),
    "sparql": ("repro.kg.datasets", "repro.sparql"),
    "ingest": ("repro.kg.datasets", "repro.kg.graph", "repro.kg.wal"),
}


def _family(name: str) -> str:
    if name.startswith("serve_"):
        return "serve"
    if name == "sparql_analytics":
        return "sparql"
    if name == "kg_ingest":
        return "ingest"
    raise KeyError(f"unknown workload {name!r}")


def import_modules(name: str) -> None:
    """Import everything workload ``name`` uses."""
    for module in IMPORTS[_family(name)]:
        importlib.import_module(module)


#: Seed of every dataset and of the system under test.
FIXTURE_SEED = 0


def _params(spec: Dict[str, Any], quick: bool) -> Dict[str, Any]:
    """A workload's settings; ``--quick`` divides every size by 20 (smoke
    runs only, never measurement)."""
    sizes = {key: max(2, value // 20) if quick else value
             for key, value in spec["sizes"].items()}
    return {**spec["config"], **sizes}


def _gold(kg, questions) -> Dict[str, List[str]]:
    """Question text -> gold answer labels, read from the flat copy."""
    return {q.text: sorted(kg.label(a) for a in q.answers)
            for q in questions}


def _contains_all(answer: Any, labels: Sequence[str]) -> bool:
    text = str(answer)
    return all(label in text for label in labels)


# ----------------------------------------------------------------------
# serve_mixed / serve_agent
# ----------------------------------------------------------------------
#: Request kinds whose answer is an exact entity set: a missing gold
#: label there is a wrong output, not a quality score.
EXACT_KINDS = ("sparql", "chat", "agent")


def _serving(params: Dict[str, Any], seed: int) -> Workload:
    from repro.core.resilience import CircuitBreaker
    from repro.kg import datasets
    from repro.qa.multihop import generate_multihop_questions
    from repro.serve import BUSY_MESSAGE, Gateway, build_backends
    from repro.serve.backends import GLOBAL_QUESTIONS

    phases = {}
    start = perf_counter()
    make_dataset = functools.partial(datasets.enterprise_kg,
                                     seed=FIXTURE_SEED,
                                     n_employees=params["n_employees"])
    flat = make_dataset()
    phases["dataset"] = perf_counter() - start

    start = perf_counter()
    # The system builds its own copy of the dataset through its registry.
    datasets.DATASET_BUILDERS["enterprise-e2e"] = lambda seed: make_dataset()
    options = {}
    if params.get("shards"):
        from repro.kg.replication import TransportProfile
        options = dict(shards=params["shards"], replicas=params["replicas"],
                       transport_profile=TransportProfile(
                           seed=seed, tail_rate=params["tail_rate"]))
    backends = build_backends("enterprise-e2e", seed=FIXTURE_SEED, **options)
    gateway = Gateway(backends.handlers, capacity=1,
                      breaker=CircuitBreaker(failure_threshold=5, cooldown=8,
                                             name="serve-tier0"),
                      seed=FIXTURE_SEED)
    phases["backends"] = perf_counter() - start

    start = perf_counter()
    rng = random.Random(seed)
    questions = generate_multihop_questions(
        flat, n=params["questions"], hops=params["hops"], seed=FIXTURE_SEED)
    gold = _gold(flat.kg, questions)
    texts = sorted(gold)
    kinds = list(params["kinds"])
    weights = [params["kinds"][k] for k in kinds]
    tenants = [f"tenant-{chr(ord('a') + t)}" for t in range(params["tenants"])]
    schedule: List[Tuple[str, str, str, str]] = []
    for _ in range(params["requests"]):
        kind = rng.choices(kinds, weights)[0]
        tenant = rng.choice(tenants)
        pool = GLOBAL_QUESTIONS if kind == "graphrag" else texts
        schedule.append((tenant, kind, rng.choice(pool),
                         f"{tenant}:s{rng.randrange(params['sessions'])}"))
    first: Dict[Tuple[str, str], Tuple[str, str, str, str]] = {}
    for request in schedule:
        first.setdefault(request[1:3], request)
    phases["inputs"] = perf_counter() - start

    clock = {"now": 0.0}

    def offer(request: Tuple[str, str, str, str]):
        tenant, kind, question, session = request
        result = gateway.offer(tenant, kind, question, clock["now"],
                               session_id=session)
        clock["now"] = max(clock["now"], result.finish)
        return result

    def run(index: int):
        return offer(schedule[index % len(schedule)])

    def warmup() -> List[Any]:
        # Every distinct (kind, question) once, so the LLM and label
        # caches hold what the measured loop will repeat.
        return [offer(request) for request in first.values()]

    def grade(index: int, result) -> Outcome:
        kind, question = result.request.kind, result.request.question
        if result.status != "completed":
            return Outcome(error=True)
        if result.tier_index > 0:
            return Outcome(degraded=True)
        labels = gold.get(question)
        if labels is None:  # a GraphRAG global question: no gold set
            ok = bool(result.answer) and result.answer != BUSY_MESSAGE
            return Outcome(wrong=not ok)
        right = _contains_all(result.answer, labels)
        return Outcome(graded=True, right=right,
                       wrong=kind in EXACT_KINDS and not right)

    replicated = backends.replicated
    totals = {"hedges": 0, "failovers": 0}

    def counters() -> Dict[str, float]:
        if replicated is not None:
            # Harvest then reset: the store keeps every read latency, which
            # would otherwise grow memory with the number of operations.
            stats = replicated.replication_stats()
            totals["hedges"] += stats["hedges_fired"]
            totals["failovers"] += stats["failovers"]
            replicated.reset_read_stats()
        return dict(totals)

    return Workload(run=run, grade=grade, warmup=warmup,
                    counters=counters, phases=phases)


# ----------------------------------------------------------------------
# sparql_analytics
# ----------------------------------------------------------------------
SCHEMA = "http://repro.dev/schema/"

#: The five query shapes; constants are drawn per query from the seed.
TEMPLATES: Tuple[Callable[[random.Random, Dict[str, List[str]]], str], ...] = (
    # 2-way join
    lambda r, m: (f"SELECT ?p ?co WHERE {{ ?p <{SCHEMA}bornIn> "
                  f"<{r.choice(m['cities'])}> . ?p <{SCHEMA}worksFor> ?co }}"),
    # FILTER range
    lambda r, m: (lambda y: (
        f"SELECT ?p ?y WHERE {{ ?p <{SCHEMA}citizenOf> "
        f"<{r.choice(m['countries'])}> . ?p <{SCHEMA}birthYear> ?y "
        f"FILTER (?y >= {y} && ?y < {y + 5}) }}"))(r.randrange(1940, 2000)),
    # OPTIONAL
    lambda r, m: (f"SELECT ?p ?u WHERE {{ ?p <{SCHEMA}worksFor> "
                  f"<{r.choice(m['companies'])}> OPTIONAL {{ "
                  f"?p <{SCHEMA}educatedAt> ?u }} }}"),
    # COUNT
    lambda r, m: (f"SELECT ?co (COUNT(?p) AS ?n) WHERE {{ ?p <{SCHEMA}bornIn> "
                  f"<{r.choice(m['cities'])}> . ?p <{SCHEMA}worksFor> ?co }} "
                  f"GROUP BY ?co"),
    # UNION
    lambda r, m: (f"SELECT ?p WHERE {{ {{ ?p <{SCHEMA}bornIn> "
                  f"<{r.choice(m['cities'])}> }} UNION {{ ?p "
                  f"<{SCHEMA}educatedAt> "
                  f"<{r.choice(m['universities'])}> }} }}"),
)


def _encyclopedia(params: Dict[str, Any]):
    from repro.kg.datasets import encyclopedia_kg
    return encyclopedia_kg(seed=FIXTURE_SEED, n_people=params["n_people"],
                           n_cities=params["n_cities"],
                           n_companies=params["n_companies"],
                           n_universities=params["n_universities"])


def _rows(solutions) -> Counter:
    """A result set as a multiset of rows (order-free comparison)."""
    return Counter(tuple(sorted((var, repr(term))
                                for var, term in row.items()))
                   for row in solutions)


def _sparql(params: Dict[str, Any], seed: int) -> Workload:
    from repro.sparql import SparqlEngine

    phases = {}
    start = perf_counter()
    flat = _encyclopedia(params)
    phases["dataset"] = perf_counter() - start

    start = perf_counter()
    engine = SparqlEngine(flat.kg.store)
    oracle = SparqlEngine(flat.kg.store, planner="parse")
    phases["backends"] = perf_counter() - start

    start = perf_counter()
    rng = random.Random(seed)
    meta = flat.metadata
    queries = [TEMPLATES[rng.randrange(len(TEMPLATES))](rng, meta)
               for _ in range(params["queries"])]
    phases["inputs"] = perf_counter() - start

    def run(index: int):
        return engine.select(queries[index % len(queries)])

    def warmup() -> List[Any]:
        for template in TEMPLATES:
            engine.select(template(random.Random(seed), meta))
        return []

    def grade(index: int, rows) -> Outcome:
        if index % params["check_every"]:
            return Outcome()
        expected = oracle.select(queries[index % len(queries)])
        return Outcome(wrong=_rows(rows) != _rows(expected))

    return Workload(run=run, grade=grade, warmup=warmup, phases=phases)


# ----------------------------------------------------------------------
# kg_ingest
# ----------------------------------------------------------------------
def _ingest(params: Dict[str, Any], seed: int, workdir: str) -> Workload:
    import repro.kg.wal as wal
    from repro.kg.graph import KnowledgeGraph
    from repro.kg.triples import IRI, Triple

    phases = {}
    start = perf_counter()
    flat = _encyclopedia(params)
    phases["dataset"] = perf_counter() - start

    start = perf_counter()
    rng = random.Random(seed)
    triples = list(flat.kg.store)
    rng.shuffle(triples)
    directory = os.path.join(workdir, "store")
    shutil.rmtree(directory, ignore_errors=True)
    kg = KnowledgeGraph.durable(directory,
                                snapshot_every=params["snapshot_every"])
    batch = params["batch"]
    for offset in range(0, len(triples), batch):
        kg.store.add_all(triples[offset:offset + batch])
    phases["backends"] = perf_counter() - start

    start = perf_counter()
    works_for = IRI(SCHEMA + "worksFor")
    people = [IRI(p) for p in flat.metadata["people"]]
    companies = [IRI(c) for c in flat.metadata["companies"]]
    pairs = [(rng.choice(people), rng.choice(companies),
              tuple(rng.choice(people) for _ in range(params["lookups"])))
             for _ in range(params["pairs"])]
    phases["inputs"] = perf_counter() - start

    store = kg.store

    def run(index: int):
        person, company, subjects = pairs[index % len(pairs)]
        # Update: move one person to another employer.
        store.remove_all(store.match(person, works_for, None))
        store.add_all([Triple(person, works_for, company)])
        # Lookup: each subject's facts, verbalised through the label cache.
        return [[kg.label(t.object) for t in store.match(subject)]
                for subject in subjects]

    def warmup() -> List[Any]:
        for subject in people[:params["lookups"]]:
            [kg.label(t.object) for t in store.match(subject)]
        return []

    def grade(index: int, lookups) -> Outcome:
        person, company, subjects = pairs[index % len(pairs)]
        ok = (store.objects(person, works_for) == [company]
              and len(lookups) == len(subjects)
              and all(len(labels) == store.match_count(subject)
                      for labels, subject in zip(lookups, subjects)))
        return Outcome(wrong=not ok)

    def finish(timer) -> Tuple[Dict[str, Tuple[float, float]], int]:
        store.close()
        live = set(store)
        runs, wrong = [], 0
        for _ in range(params["recoveries"]):
            norm, raw, recovered = timer(lambda: wal.recover(directory))
            recovered.close()
            # The recovered store must equal the live final triple set.
            wrong += set(recovered) != live
            runs.append((norm, raw))
        return {"recover_s": (statistics.median(r[0] for r in runs),
                              statistics.median(r[1] for r in runs))}, wrong

    def close() -> None:
        store.close()
        shutil.rmtree(directory, ignore_errors=True)

    return Workload(run=run, grade=grade, warmup=warmup,
                    finish=finish, close=close, phases=phases)


def build(name: str, spec: Dict[str, Any], seed: int, quick: bool,
          workdir: str) -> Workload:
    """Build workload ``name`` from its entry in ``spec.json``."""
    params = _params(spec, quick)
    family = _family(name)
    if family == "serve":
        return _serving(params, seed)
    if family == "sparql":
        return _sparql(params, seed)
    return _ingest(params, seed, workdir)
