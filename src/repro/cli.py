"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``stats <dataset>``              dataset statistics
``query <dataset> <sparql>``     run a SPARQL query
``cypher <dataset> <query>``     run a Cypher query
``ask <dataset> <question>``     KGQA via the path-reasoning system
``check <dataset> <statement>``  fact-check a statement against the KG
``validate <dataset>``           consistency-check the KG
``chat <dataset>``               interactive chatbot (reads stdin)
``table1`` / ``figure2``         print the paper's artifacts
``datasets``                     list available datasets
``obs trace <dataset>``          run a traced GraphRAG workload, export JSONL
``obs report <path>``            summarize a JSONL observability export
``kg snapshot <dataset> <dir>``  persist a dataset KG into a durable store
``kg recover <dir>``             recover a durable store, print the report
``kg stats <dataset>``           per-shard triple counts, index + cache stats
``kg replicas <dataset>``        replicated-shard reads: breakers, hedging,
                                 partition / heal / byte-identical verify
``sparql explain <dataset> <q>`` cost-based plan with est/actual cardinalities
``run <dataset> --journal <p>``  checkpointed GraphRAG QA run (resumable)
``run --resume <journal>``       resume a killed run from its journal
``serve bench <dataset>``        overload benchmark through the gateway
``serve bench --stream``         continuous batching vs run-to-completion
``serve bench --partition``      availability over replicated shards under a
                                 mid-run one-replica-per-shard partition
``serve replay <dataset>``       closed-loop traffic replay (chaos-ready)
``serve replay --stream``        open-loop token-streaming replay (TTFT/TPOT)
``serve replay --schedule <f>``  replay an archived transport fault schedule
``agent run <dataset> <q>``      one ReAct episode over the graph tools
``agent eval <dataset>``         agent vs single-shot on the multi-hop set
``agent show <trace.jsonl>``     pretty-print a saved episode trace

Datasets are the seeded generators of :mod:`repro.kg.datasets`
(``encyclopedia``, ``family``, ``movie``, ``covid``, ``enterprise``);
``--seed`` selects the generation seed.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.kg.datasets import DATASET_BUILDERS, Dataset


def _build_dataset(name: str, seed: int) -> Dataset:
    try:
        builder = DATASET_BUILDERS[name]
    except KeyError:
        raise SystemExit(
            f"unknown dataset {name!r}; available: "
            f"{', '.join(sorted(DATASET_BUILDERS))}")
    return builder(seed=seed)


def _render_rows(rows, dataset: Dataset) -> str:
    if isinstance(rows, bool):
        return "yes" if rows else "no"
    if not rows:
        return "(no results)"
    lines = []
    for row in rows:
        cells = []
        for name, value in sorted(row.items()):
            label = dataset.kg.label(value)
            cells.append(f"?{name}={label}")
        lines.append("  " + "  ".join(cells))
    return "\n".join(lines)


def cmd_datasets(args) -> int:
    for name in sorted(DATASET_BUILDERS):
        print(name)
    return 0


def cmd_stats(args) -> int:
    ds = _build_dataset(args.dataset, args.seed)
    stats = ds.stats()
    print(f"dataset: {ds.name} (seed={ds.seed})")
    for key, value in stats.items():
        print(f"  {key}: {value}")
    print(f"  classes: {len(ds.ontology.classes)}")
    print(f"  properties: {len(ds.ontology.properties)}")
    return 0


def cmd_query(args) -> int:
    from repro.sparql import SparqlEngine, SparqlParseError
    ds = _build_dataset(args.dataset, args.seed)
    engine = SparqlEngine(ds.kg.store)
    try:
        rows = engine.execute(args.query)
    except SparqlParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    print(_render_rows(rows, ds))
    return 0


def cmd_cypher(args) -> int:
    from repro.sparql import CypherEngine, SparqlParseError
    from repro.sparql.cypher import CypherParseError
    ds = _build_dataset(args.dataset, args.seed)
    try:
        rows = CypherEngine(ds.kg.store).execute(args.query)
    except (CypherParseError, SparqlParseError) as exc:
        # SparqlParseError covers queries that pass the Cypher front-end but
        # translate to unparseable SPARQL (e.g. escaped quotes in labels).
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    print(_render_rows(rows, ds))
    return 0


def cmd_ask(args) -> int:
    from repro.llm import load_model
    from repro.qa.multihop import ReLMKGQA
    ds = _build_dataset(args.dataset, args.seed)
    llm = load_model(args.model, world=ds.kg, seed=args.seed)
    answers = ReLMKGQA(llm, ds.kg).answer(args.question)
    if answers:
        print(", ".join(sorted(ds.kg.label(a) for a in answers)))
    else:
        print("(no answer found)")
    return 0


def cmd_check(args) -> int:
    from repro.llm import load_model
    from repro.validation import ToolAugmentedFactChecker
    ds = _build_dataset(args.dataset, args.seed)
    llm = load_model(args.model, world=ds.kg, seed=args.seed)
    verdict = ToolAugmentedFactChecker(llm, ds.kg).check(args.statement)
    print({True: "true", False: "false", None: "unknown"}[verdict])
    return 0


def cmd_validate(args) -> int:
    from repro.validation import ConstraintChecker
    ds = _build_dataset(args.dataset, args.seed)
    violations = ConstraintChecker(ds.ontology).check(ds.kg)
    if not violations:
        print("consistent: no violations found")
        return 0
    for violation in violations:
        print(f"[{violation.kind}] {violation.detail}")
        for triple in violation.triples:
            print(f"    {triple.n3()}")
    return 1


def cmd_chat(args) -> int:
    from repro.llm import load_model
    from repro.qa import KGChatbot
    from repro.qa.multihop import ReLMKGQA
    ds = _build_dataset(args.dataset, args.seed)
    llm = load_model(args.model, world=ds.kg, seed=args.seed)
    bot = KGChatbot(llm, ds.kg, ReLMKGQA(llm, ds.kg))
    print(f"chatting over {ds.name} — empty line or EOF to quit")
    for line in sys.stdin:
        message = line.strip()
        if not message:
            break
        turn = bot.chat(message)
        print(f"[{turn.intent}] {turn.reply}")
    return 0


def cmd_export(args) -> int:
    ds = _build_dataset(args.dataset, args.seed)
    format = "ttl" if args.path.endswith(".ttl") else "nt"
    prefixes = {"ex": "http://repro.dev/kg/", "s": "http://repro.dev/schema/"}
    ds.kg.save(args.path, format=format, prefixes=prefixes)
    print(f"wrote {len(ds.kg)} triples to {args.path} ({format})")
    return 0


def cmd_obs_trace(args) -> int:
    from repro.core.executor import ParallelExecutor
    from repro.core.observability import FakeClock, Observability
    from repro.enhanced.graph_rag import GraphRAG
    from repro.llm import load_model
    from repro.llm.faults import FaultInjectingLLM, FaultProfile

    ds = _build_dataset(args.dataset, args.seed)
    llm = load_model(args.model, world=ds.kg, seed=args.seed)
    faulty = FaultInjectingLLM(
        llm, FaultProfile.uniform(args.fault_rate, seed=args.seed))
    # A FakeClock makes the exported trace deterministic: identical runs
    # produce identical span timings, so exports are diffable.
    obs = Observability(clock=FakeClock())
    rag = GraphRAG(faulty, ds.kg, cache=True, obs=obs)
    executor = ParallelExecutor(max_workers=args.workers, obs=obs)
    questions = [
        "What are the main topics of this dataset?",
        "Which entities are most connected?",
        "What are the main topics of this dataset?",  # cache-hit repeat
    ]
    answers = rag.answer_global_batch(questions, executor=executor)
    written = obs.export_jsonl(args.out)
    print(f"traced {len(questions)} questions "
          f"({sum(1 for a in answers if a != 'unknown')} answered, "
          f"{rag.last_faulted_communities} faulted map calls) -> "
          f"{written} records in {args.out}")
    return 0


def cmd_obs_report(args) -> int:
    from repro.core.observability import load_jsonl
    from repro.eval.harness import ResultTable

    # A missing, empty, or truncated trace degrades to a clear message and
    # a nonzero exit — never an unhandled traceback.
    try:
        records = load_jsonl(args.path)
    except FileNotFoundError:
        print(f"obs report: trace file not found: {args.path}",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"obs report: unreadable trace: {exc}", file=sys.stderr)
        return 2
    if not records:
        print(f"obs report: trace file {args.path} contains no records "
              "(empty or truncated export?)", file=sys.stderr)
        return 2
    spans = [r for r in records if r.get("type") == "span"]
    counters = [r for r in records if r.get("type") == "counter"]
    histograms = [r for r in records if r.get("type") == "histogram"]
    sources: dict = {}
    for record in records:
        if record.get("type") == "source":
            sources.setdefault(record["source"], {})[record["key"]] = \
                record["value"]

    # Per-stage latency from spans.
    by_name: dict = {}
    for span in spans:
        entry = by_name.setdefault(span["name"], {"count": 0, "total": 0.0})
        entry["count"] += 1
        entry["total"] += span.get("elapsed") or 0.0
    latency = ResultTable("Per-stage latency (spans)",
                          ["count", "total_s", "mean_s"])
    for name in sorted(by_name):
        entry = by_name[name]
        latency.add(name, count=entry["count"], total_s=entry["total"],
                    mean_s=entry["total"] / entry["count"])
    print(latency.render())

    # LLM calls and batch shapes. The batch columns count the batches a
    # pipeline issued (``llm.batch_size``, recorded once per batch by the
    # outermost layer that received it).
    llm_table = ResultTable("LLM calls and batches",
                            ["calls", "batches", "max_batch", "mean_batch"])
    for name in sorted(sources):
        if not name.endswith(".model"):
            continue
        values = sources[name]
        batch = next((h for h in histograms
                      if h["name"] == "llm.batch_size"), None)
        llm_table.add(name, calls=int(values.get("calls", 0)),
                      batches=int(batch["count"]) if batch else 0,
                      max_batch=int(batch["max"]) if batch else 0,
                      mean_batch=(batch["sum"] / batch["count"])
                      if batch and batch["count"] else 0.0)
    print()
    print(llm_table.render())

    # Cache hit rates, one row per bound cache source.
    caches = ResultTable("Cache hit rates",
                         ["hits", "misses", "evictions", "hit_rate"])
    for name in sorted(sources):
        values = sources[name]
        if "hits" not in values or "misses" not in values:
            continue
        caches.add(name, hits=int(values["hits"]),
                   misses=int(values["misses"]),
                   evictions=int(values.get("evictions", 0)),
                   hit_rate=float(values.get("hit_rate", 0.0)))
    print()
    print(caches.render())

    # Fault injections by kind (push counters) plus wrapper totals.
    faults = ResultTable("Fault injections", ["count"])
    for counter in sorted(counters, key=lambda c: repr(c.get("labels"))):
        if counter["name"] == "llm.faults":
            kind = counter.get("labels", {}).get("kind", "?")
            faults.add(f"fault:{kind}", count=int(counter["value"]))
    for name in sorted(sources):
        if name.endswith(".faults"):
            values = sources[name]
            faults.add(f"{name} (total)",
                       count=int(values.get("injected", 0)))
    print()
    print(faults.render())

    # Per-worker executor utilization.
    workers = ResultTable("Executor utilization (per worker)",
                          ["stage", "busy_s"])
    rows = [c for c in counters if c["name"] == "executor.worker_busy"]
    for counter in sorted(rows, key=lambda c: (c["labels"].get("worker", ""),
                                               c["labels"].get("stage", ""))):
        labels = counter.get("labels", {})
        workers.add(labels.get("worker", "?"),
                    stage=labels.get("stage", "?"),
                    busy_s=float(counter["value"]))
    print()
    print(workers.render())
    return 0


def cmd_kg_snapshot(args) -> int:
    from repro.kg.wal import DurableTripleStore

    ds = _build_dataset(args.dataset, args.seed)
    store = DurableTripleStore(args.directory)
    added = store.add_all(t for t in ds.kg.store if t not in store)
    count = store.snapshot()
    store.close()
    print(f"snapshot of {ds.name}: {count} triples ({added} new) "
          f"at lsn {store.version} in {args.directory}")
    return 0


def cmd_kg_recover(args) -> int:
    from repro.kg.wal import recover

    try:
        store = recover(args.directory)
    except (OSError, ValueError) as exc:
        print(f"kg recover: cannot recover {args.directory}: {exc}",
              file=sys.stderr)
        return 2
    report = store.last_recovery
    store.close()
    print(f"recovered {report.triples} triples at lsn {report.version} "
          f"(snapshot lsn {report.snapshot_lsn} with "
          f"{report.snapshot_triples} triples, "
          f"{report.records_replayed} WAL records replayed, "
          f"{report.truncated_bytes} torn bytes truncated)")
    return 0


def _sharded_dataset(args) -> Dataset:
    """Build the dataset, re-homing its KG onto a sharded store if asked."""
    ds = _build_dataset(args.dataset, args.seed)
    if getattr(args, "shards", 0):
        from repro.kg.sharding import ShardedTripleStore
        ds.kg.store = ShardedTripleStore(ds.kg.store, shards=args.shards)
    return ds


def cmd_kg_stats(args) -> int:
    from repro.kg.indexes import FullTextIndex, NumericIndex

    ds = _sharded_dataset(args)
    store = ds.kg.store
    print(f"dataset: {ds.name} (seed={ds.seed}, "
          f"store={type(store).__name__})")
    shard_stats = getattr(store, "shard_stats", None)
    if shard_stats is not None:
        for index, row in enumerate(shard_stats()):
            print(f"  shard {index:02d}: triples={row['triples']} "
                  f"version={row['version']}")
    print(f"  triples: {len(store)}")
    print(f"  predicates: {len(store.relations())}")
    fulltext, numeric = FullTextIndex(store), NumericIndex(store)
    for name, stats in (("fulltext", fulltext.stats()),
                        ("numeric", numeric.stats())):
        rendered = " ".join(f"{key}={value}"
                            for key, value in sorted(stats.items()))
        print(f"  index {name}: {rendered}")
    # Warm the graph caches so the canonical schema shows live numbers.
    ds.kg.find_by_label("anything")
    cache = ds.kg.cache_stats()
    print("  cache: " + " ".join(
        f"{key}={cache[key]}" for key in
        ("hits", "misses", "evictions", "invalidations", "size",
         "hit_rate")))
    label_index = ds.kg.label_index_stats()
    print("  label-index: " + " ".join(
        f"{key}={value}" for key, value in sorted(label_index.items())))
    durability = getattr(store, "durability_stats", None)
    if durability is not None:
        rendered = " ".join(f"{key}={value}"
                            for key, value in sorted(durability().items()))
        print(f"  durability: {rendered}")
    return 0


def cmd_kg_replicas(args) -> int:
    from repro.kg.replication import (ReplicatedShardedTripleStore,
                                      ReplicationError, TransportProfile)
    from repro.kg.sharding import DEFAULT_SHARDS

    ds = _build_dataset(args.dataset, args.seed)
    profile = TransportProfile(seed=args.seed, drop_rate=args.drop_rate,
                               timeout_rate=args.timeout_rate,
                               tail_rate=args.tail_rate)
    store = ReplicatedShardedTripleStore(
        ds.kg.store, shards=args.shards or DEFAULT_SHARDS,
        replicas=args.replicas, profile=profile)
    shards = len(store.shard_stats())
    print(f"dataset: {ds.name} (seed={ds.seed}) — "
          f"{shards} shards x {args.replicas} replicas")
    victims = []
    if args.partition:
        victims = store.partition_one_replica_per_shard()
        print(f"partitioned one replica per shard: "
              f"{' '.join(f's{s}r{r}' for s, r in victims)}")
    # A deterministic subject-routed read workload: every read goes
    # through the transport (breakers, hedging, failover all exercised).
    subjects = sorted(store.subjects(), key=lambda term: term.n3())
    for index in range(args.reads):
        try:
            store.match(subjects[index % len(subjects)], None, None)
        except ReplicationError:
            pass  # counted in the stats table below
    if args.heal:
        store.restore_partitions()
        result = store.heal()
        print(f"heal: healed={len(result['healed'])} "
              f"lagging={len(result['lagging'])}")
    states = store.breaker_states()
    rows = {(row["shard"], row["replica"]): row
            for row in store.verify_replicas()}
    all_identical = True
    for shard in range(shards):
        primary = store.replica_store(shard, 0)
        print(f"  shard {shard:02d} r0: primary triples={len(primary)} "
              f"breaker={states[shard][0]}")
        for replica in range(1, args.replicas):
            row = rows[(shard, replica)]
            identical = row["identical"]
            all_identical = all_identical and identical
            print(f"  shard {shard:02d} r{replica}: "
                  f"triples={row['triples']} lag={row['lag']} "
                  f"identical={'yes' if identical else 'NO'} "
                  f"breaker={states[shard][replica]}")
    stats = store.replication_stats()
    print(f"  reads={stats['reads']} "
          f"hedges={stats['hedges_fired']}/{stats['hedge_wins']} "
          f"failovers={stats['failovers']} stale={stats['stale_reads']} "
          f"unavailable={stats['unavailable']} "
          f"quorum_losses={stats['quorum_losses']} "
          f"open_breakers={stats['open_breakers']}")
    transport = stats["transport"]
    print(f"  transport: calls={transport['calls']} ok={transport['ok']} "
          f"drops={transport['drops']} timeouts={transport['timeouts']} "
          f"partitioned={transport['partitioned']}")
    return 0 if all_identical else 1


def cmd_sparql_explain(args) -> int:
    from repro.sparql import SparqlEngine, SparqlParseError
    from repro.sparql.evaluator import SparqlEvaluationError

    ds = _sharded_dataset(args)
    engine = SparqlEngine(ds.kg.store)
    try:
        report = engine.explain(args.query)
    except SparqlParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except SparqlEvaluationError as exc:
        print(f"explain error: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    return 0


def _run_questions(count: int) -> List[str]:
    """A deterministic global-question workload for ``repro run``."""
    base = [
        "What are the main topics of this dataset?",
        "Which entities are most connected?",
        "Summarize the relationships in this dataset.",
        "What communities exist in this graph?",
    ]
    return [base[i % len(base)] if i < len(base)
            else f"{base[i % len(base)]} (pass {i // len(base)})"
            for i in range(count)]


def cmd_run(args) -> int:
    from repro.core.durability import CheckpointError, CheckpointManager, read_meta
    from repro.core.executor import ParallelExecutor
    from repro.enhanced.graph_rag import GraphRAG
    from repro.llm import load_model
    from repro.llm.faults import FaultInjectingLLM, FaultProfile

    if args.resume:
        try:
            meta = read_meta(args.resume)
        except (OSError, CheckpointError) as exc:
            print(f"run: cannot resume {args.resume}: {exc}", file=sys.stderr)
            return 2
        config = dict(meta.get("config", {}))
        if "dataset" not in config:
            print(f"run: journal {args.resume} has no run config in its "
                  "meta record", file=sys.stderr)
            return 2
        journal_path = args.resume
    else:
        if not args.dataset or not args.journal:
            print("run: need <dataset> and --journal for a fresh run "
                  "(or --resume <journal>)", file=sys.stderr)
            return 2
        config = {"dataset": args.dataset, "seed": args.seed,
                  "model": args.model, "fault_rate": args.fault_rate,
                  "workers": args.workers, "questions": args.questions,
                  "batch_size": args.batch_size}
        journal_path = args.journal

    ds = _build_dataset(config["dataset"], config["seed"])
    llm = load_model(config["model"], world=ds.kg, seed=config["seed"])
    if config["fault_rate"]:
        llm = FaultInjectingLLM(
            llm, FaultProfile.uniform(config["fault_rate"],
                                      seed=config["seed"]))
    rag = GraphRAG(llm, ds.kg)
    executor = ParallelExecutor(max_workers=config["workers"])
    try:
        checkpoint = CheckpointManager(journal_path)
        # The journal's job key is the pipeline's own, so the batch path's
        # ensure_meta finds a matching record carrying the run config.
        checkpoint.ensure_meta("graphrag:answer_global_batch", config)
    except CheckpointError as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 2
    questions = _run_questions(config["questions"])
    answers = rag.answer_global_batch(
        questions, batch_size=config["batch_size"], executor=executor,
        checkpoint=checkpoint)
    # Answers on stdout (byte-comparable across kill/resume); bookkeeping
    # on stderr.
    for index, answer in enumerate(answers):
        print(f"[{index}] {answer}")
    print(f"run: {len(answers)} questions answered "
          f"({checkpoint.resume_skips} restored from {journal_path}, "
          f"{rag.last_faulted_communities} faulted map calls)",
          file=sys.stderr)
    return 0


def _print_load_report(report, label: str) -> None:
    print(f"{label}: offered={report.offered} completed={report.completed} "
          f"shed={report.shed} rejected={report.rejected} "
          f"failed={report.failed} degraded={report.degraded}")
    print(f"  p50={report.p50_latency:.3f}s p99={report.p99_latency:.3f}s "
          f"goodput={report.goodput:.2f}/s "
          f"max_queue_depth={report.max_queue_depth}")
    tiers = " ".join(f"{tier}={count}" for tier, count
                     in sorted(report.tier_counts.items()))
    print(f"  tiers: {tiers or '(none)'}")
    if report.streamed:
        print(f"  streams: {report.streamed} "
              f"(completed={report.completed_streams} "
              f"shed={report.shed_mid_stream}) "
              f"p50_ttft={report.p50_ttft:.3f}s "
              f"p99_ttft={report.p99_ttft:.3f}s "
              f"tokens/s={report.tokens_per_sec:.1f}")


def _export_stream_metrics(obs, report, path: str) -> None:
    """Export the metrics JSONL with the streaming percentiles pinned as
    gauges (so the file carries p50/p99 TTFT and tokens/sec explicitly,
    alongside the serve.ttft/serve.tpot/serve.tokens_out histograms)."""
    obs.gauge("serve.ttft_p50", report.p50_ttft)
    obs.gauge("serve.ttft_p99", report.p99_ttft)
    obs.gauge("serve.tokens_per_sec", report.tokens_per_sec)
    written = obs.export_jsonl(path)
    print(f"  exported {written} metric records to {path}")


def cmd_serve_bench_stream(args) -> int:
    import json

    from repro.serve import serving_observability, streaming_experiment

    mix_name = "stream" if args.mix == "mixed" else args.mix
    reports = {}
    for policy in ("continuous", "run_to_completion"):
        for label, factor in (("baseline", 1.0),
                              ("overload", args.load_factor)):
            obs = serving_observability()
            report = streaming_experiment(
                dataset=args.dataset, mix_name=mix_name, policy=policy,
                max_batch=args.max_batch, load_factor=factor,
                n_requests=args.requests, seed=args.seed,
                queue_limit=args.queue_limit, budget=args.budget,
                prefix_cache=not args.no_prefix_cache, obs=obs)
            _print_load_report(report, f"{policy} {label} ({factor:g}x)")
            key = f"{policy}_{label}"
            reports[key] = report.to_dict()
            reports[key]["capacity_rps"] = \
                report.gateway_stats["capacity_rps"]
            if args.jsonl and key == "continuous_overload":
                _export_stream_metrics(obs, report, args.jsonl)
    continuous = reports["continuous_overload"]["goodput"]
    static = reports["run_to_completion_overload"]["goodput"]
    ratio = continuous / static if static else float("inf")
    baseline = reports["continuous_baseline"]
    ttft_share = (baseline["p50_ttft"] / baseline["p50_latency"]
                  if baseline["p50_latency"] else 0.0)
    print(f"continuous vs run-to-completion goodput at "
          f"{args.load_factor:g}x: {continuous:.2f}/s vs {static:.2f}/s "
          f"({ratio:.2f}x); baseline p50 TTFT is {ttft_share:.0%} of p50 "
          f"completion latency")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(reports, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0 if ratio >= 1.0 else 1


def cmd_serve_bench_partition(args) -> int:
    import json

    from repro.serve import overload_experiment, serving_observability

    reports = {}
    details = {}
    for label, partition in (("clean", False), ("partitioned", True)):
        obs = serving_observability()
        report = overload_experiment(
            dataset=args.dataset, mix_name=args.mix, capacity=args.capacity,
            load_factor=args.load_factor, n_requests=args.requests,
            seed=args.seed, queue_limit=args.queue_limit, budget=args.budget,
            replicas=args.replicas, partition=partition,
            schedule_out=args.schedule_out if partition else None, obs=obs)
        detail = report.detail
        _print_load_report(report, f"{label} ({args.load_factor:g}x, "
                                   f"replicas={args.replicas})")
        rep = detail["replication"]
        print(f"  replication: reads={rep['reads']} "
              f"hedges={rep['hedges_fired']}/{rep['hedge_wins']} "
              f"failovers={rep['failovers']} stale={rep['stale_reads']} "
              f"unavailable={rep['unavailable']} "
              f"open_breakers={rep['open_breakers']}")
        reports[label] = report.to_dict()
        details[label] = detail
        if args.jsonl and partition:
            written = obs.export_jsonl(args.jsonl)
            print(f"  exported {written} metric records to {args.jsonl}")
    clean = reports["clean"]["goodput"]
    partitioned = reports["partitioned"]["goodput"]
    ratio = partitioned / clean if clean else 1.0
    print(f"partitioned goodput at {args.load_factor:g}x: "
          f"{partitioned:.2f}/s vs fault-free {clean:.2f}/s ({ratio:.1%}); "
          f"availability={details['partitioned']['availability']:.1%}")
    if args.schedule_out:
        print(f"fault schedule -> {args.schedule_out}")
    if args.out:
        payload = {label: {"report": reports[label],
                           "detail": details[label]} for label in reports}
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0 if ratio >= 0.99 else 1


def cmd_serve_bench(args) -> int:
    import json

    from repro.serve import overload_experiment, serving_observability

    if args.stream:
        return cmd_serve_bench_stream(args)
    if args.partition:
        return cmd_serve_bench_partition(args)
    reports = {}
    for label, factor in (("baseline", 1.0), ("overload", args.load_factor)):
        obs = serving_observability()
        report = overload_experiment(
            dataset=args.dataset, mix_name=args.mix, capacity=args.capacity,
            load_factor=factor, n_requests=args.requests, seed=args.seed,
            queue_limit=args.queue_limit, budget=args.budget, obs=obs)
        _print_load_report(report, f"{label} ({factor:g}x)")
        reports[label] = report.to_dict()
        reports[label]["capacity_rps"] = report.gateway_stats["capacity_rps"]
        if args.jsonl and label == "overload":
            written = obs.export_jsonl(args.jsonl)
            print(f"  exported {written} metric records to {args.jsonl}")
    capacity_rps = reports["baseline"]["capacity_rps"]
    goodput = reports["overload"]["goodput"]
    ratio = goodput / capacity_rps if capacity_rps else 0.0
    print(f"goodput under {args.load_factor:g}x overload: {goodput:.2f}/s "
          f"({ratio:.0%} of {capacity_rps:.2f}/s capacity)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(reports, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0 if ratio >= 0.8 else 1


def cmd_serve_replay_stream(args) -> int:
    from repro.serve import serving_observability, streaming_experiment

    mix_name = "stream" if args.mix == "mixed" else args.mix
    obs = serving_observability()
    report = streaming_experiment(
        dataset=args.dataset, mix_name=mix_name, policy=args.policy,
        max_batch=args.max_batch, load_factor=args.load_factor,
        n_requests=args.clients * args.requests_per_client, seed=args.seed,
        queue_limit=args.queue_limit, budget=args.budget,
        fault_rate=args.fault_rate, obs=obs)
    _print_load_report(report, f"stream replay ({args.policy})")
    reconciled = report.completed_streams + report.shed_mid_stream
    print(f"  streamed={report.streamed} == "
          f"completed_streams+shed_mid_stream={reconciled}: "
          f"{'ok' if report.streamed == reconciled else 'MISMATCH'}")
    if args.jsonl:
        _export_stream_metrics(obs, report, args.jsonl)
    return 0 if report.streamed == reconciled else 1


def cmd_serve_replay(args) -> int:
    from repro.core.resilience import CircuitBreaker
    from repro.llm import load_model
    from repro.llm.faults import FaultInjectingLLM, FaultProfile
    from repro.serve import (Gateway, LoadGenerator, MIXES, RateLimiter,
                             build_backends, question_pool,
                             serving_observability)

    if args.stream:
        return cmd_serve_replay_stream(args)
    if args.mix not in MIXES:
        print(f"unknown mix {args.mix!r}; available: "
              f"{', '.join(sorted(MIXES))}", file=sys.stderr)
        return 2
    transport_profile, forced, replicas = None, [], args.replicas
    if args.schedule:
        from repro.kg.replication import load_schedule_jsonl
        # A corrupt schedule — even in its first record — degrades to a
        # one-line message and rc 2, like every other bad-input path.
        try:
            transport_profile, forced = load_schedule_jsonl(args.schedule)
        except (OSError, ValueError) as exc:
            print(f"serve replay: cannot load schedule: {exc}",
                  file=sys.stderr)
            return 2
        replicas = replicas or 2
    ds = _build_dataset(args.dataset, args.seed)
    llm = load_model(args.model, world=ds.kg, seed=args.seed)
    if args.fault_rate:
        llm = FaultInjectingLLM(
            llm, FaultProfile.uniform(args.fault_rate, seed=args.seed))
    obs = serving_observability()
    backends = build_backends(dataset=args.dataset, seed=args.seed, llm=llm,
                              obs=obs, replicas=replicas,
                              transport_profile=transport_profile)
    if backends.replicated is not None:
        for shard, replica in forced:
            backends.replicated.transport.force_partition(shard, replica)
        schedule = f" schedule={args.schedule}" if args.schedule else ""
        print(f"replicated shards: replicas={replicas} "
              f"forced_partitions={len(forced)}{schedule}")
    limiter = None
    if args.tenant_rate:
        limiter = RateLimiter(tenant_rate=args.tenant_rate,
                              tenant_burst=args.tenant_burst, seed=args.seed)
    gateway = Gateway(backends.handlers, capacity=args.capacity,
                      queue_limit=args.queue_limit, budget=args.budget,
                      limiter=limiter,
                      breaker=CircuitBreaker(failure_threshold=5, cooldown=8,
                                             name="serve-tier0"),
                      obs=obs, seed=args.seed)
    generator = LoadGenerator(gateway, question_pool(backends.dataset,
                                                     seed=args.seed),
                              MIXES[args.mix], seed=args.seed, clock=obs.clock)
    report = generator.run_closed(clients=args.clients,
                                  requests_per_client=args.requests_per_client,
                                  think=args.think)
    _print_load_report(report, f"replay ({args.clients} clients)")
    stats = gateway.stats()
    admitted = stats["admitted"]
    reconciled = stats["completed"] + stats["shed"] + stats["failed"]
    print(f"  admitted={admitted} == completed+shed+failed={reconciled}: "
          f"{'ok' if admitted == reconciled else 'MISMATCH'}")
    if backends.replicated is not None:
        rep = backends.replicated.replication_stats()
        print(f"  replication: reads={rep['reads']} "
              f"hedges={rep['hedges_fired']}/{rep['hedge_wins']} "
              f"failovers={rep['failovers']} stale={rep['stale_reads']} "
              f"unavailable={rep['unavailable']} "
              f"open_breakers={rep['open_breakers']}")
    if args.jsonl:
        written = obs.export_jsonl(args.jsonl)
        print(f"  exported {written} metric records to {args.jsonl}")
    return 0 if admitted == reconciled else 1


def _agent_dataset(args) -> Optional[Dataset]:
    """Dataset for the agent verbs, or None after an rc-2 message."""
    if args.dataset not in DATASET_BUILDERS:
        print(f"agent: unknown dataset {args.dataset!r}; available: "
              f"{', '.join(sorted(DATASET_BUILDERS))}", file=sys.stderr)
        return None
    return DATASET_BUILDERS[args.dataset](seed=args.seed)


def cmd_agent_run(args) -> int:
    from repro.agent import GraphAgent, UnknownToolError, default_registry
    from repro.core.executor import ParallelExecutor
    from repro.core.observability import FakeClock, Observability
    from repro.llm import load_model

    # Bad input degrades to a clear message and exit code 2 — never an
    # unhandled traceback (``repro obs report`` precedent).
    ds = _agent_dataset(args)
    if ds is None:
        return 2
    llm = load_model(args.model, world=ds.kg, seed=args.seed)
    obs = Observability(clock=FakeClock()) if args.obs_out else None
    executor = ParallelExecutor(max_workers=args.workers, obs=obs)
    registry = default_registry(ds.kg, executor=executor)
    if args.tools:
        try:
            registry = registry.subset(
                [name.strip() for name in args.tools.split(",")
                 if name.strip()])
        except UnknownToolError as exc:
            print(f"agent run: {exc}", file=sys.stderr)
            return 2
    agent = GraphAgent(llm, ds.kg, registry=registry,
                       max_steps=args.max_steps, executor=executor, obs=obs)
    trace = agent.run(args.question)
    for step in trace.steps:
        if step.fault is not None:
            print(f"[{step.index}] fault: {step.fault} (retrying)")
            continue
        print(f"[{step.index}] Thought: {step.thought}")
        if step.tool is not None:
            import json as _json
            print(f"[{step.index}] Action: {step.tool} "
                  f"{_json.dumps(step.args, sort_keys=True)}")
            print(f"[{step.index}] Observation: {step.observation}")
    print(f"final: {trace.final_answer} "
          f"(stop={trace.stop_reason}, steps={len(trace.steps)}"
          f"{', degraded' if trace.degraded else ''})")
    if args.trace:
        with open(args.trace, "w") as handle:
            for line in trace.jsonl_lines():
                handle.write(line + "\n")
        print(f"trace -> {args.trace}")
    if args.obs_out:
        written = obs.export_jsonl(args.obs_out)
        print(f"obs -> {written} records in {args.obs_out}")
    return 0


def cmd_agent_eval(args) -> int:
    from repro.agent import agent_experiment

    if args.dataset not in DATASET_BUILDERS:
        print(f"agent: unknown dataset {args.dataset!r}; available: "
              f"{', '.join(sorted(DATASET_BUILDERS))}", file=sys.stderr)
        return 2
    result = agent_experiment(args.dataset, n=args.n, seed=args.seed,
                              max_steps=args.max_steps)
    print(f"agent eval on {result['dataset']} "
          f"(n={result['n']}, seed={result['seed']}, "
          f"max_steps={result['max_steps']})")
    print(f"  agent accuracy       {result['agent_accuracy']:.2f}")
    print(f"  single-shot accuracy {result['single_shot_accuracy']:.2f}")
    print(f"  mean steps/episode   {result['mean_steps']:.2f}")
    kinds = " ".join(f"{kind}={acc:.2f}" for kind, acc
                     in result["accuracy_by_kind"].items())
    print(f"  by kind              {kinds}")
    workers = "/".join(str(w) for w in result["workers"])
    identical = "identical" if result["traces_identical"] else "DIVERGED"
    print(f"  traces @ workers {workers}: {identical}")
    return 0


def cmd_agent_show(args) -> int:
    from repro.agent import parse_trace_jsonl

    try:
        with open(args.path) as handle:
            trace = parse_trace_jsonl(handle.readlines())
    except FileNotFoundError:
        print(f"agent show: trace file not found: {args.path}",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"agent show: malformed trace: {exc}", file=sys.stderr)
        return 2
    header, final = trace["header"], trace["final"]
    print(f"question: {header['question']} "
          f"(max_steps={header['max_steps']})")
    for step in trace["steps"]:
        if step.get("fault"):
            print(f"  [{step['index']}] fault: {step['fault']}")
            continue
        label = step.get("tool") or ("final" if step.get("final") is not None
                                     else "?")
        print(f"  [{step['index']}] {label}: "
              f"{step.get('observation') or step.get('final') or ''}")
    print(f"final: {final['answer']} (stop={final['stop_reason']}, "
          f"steps={final['steps']}"
          f"{', degraded' if final['degraded'] else ''})")
    return 0


def cmd_table1(args) -> int:
    from repro.analysis import render_table1
    print(render_table1())
    return 0


def cmd_figure2(args) -> int:
    from repro.analysis.statistics import render_figure2
    print(render_figure2())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="LLM ⟷ KG interplay toolkit")
    parser.add_argument("--seed", type=int, default=0,
                        help="dataset/model seed (default 0)")
    parser.add_argument("--model", default="chatgpt",
                        help="simulated model profile (default chatgpt)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list dataset generators")
    p = sub.add_parser("stats", help="dataset statistics")
    p.add_argument("dataset")
    p = sub.add_parser("query", help="run a SPARQL query")
    p.add_argument("dataset")
    p.add_argument("query")
    p = sub.add_parser("cypher", help="run a Cypher query")
    p.add_argument("dataset")
    p.add_argument("query")
    p = sub.add_parser("ask", help="answer a question over the KG")
    p.add_argument("dataset")
    p.add_argument("question")
    p = sub.add_parser("check", help="fact-check a statement")
    p.add_argument("dataset")
    p.add_argument("statement")
    p = sub.add_parser("validate", help="consistency-check the KG")
    p.add_argument("dataset")
    p = sub.add_parser("export", help="write the KG to an .nt or .ttl file")
    p.add_argument("dataset")
    p.add_argument("path")
    p = sub.add_parser("chat", help="interactive chatbot (stdin)")
    p.add_argument("dataset")
    sub.add_parser("table1", help="print the paper's Table 1")
    sub.add_parser("figure2", help="print the paper's Figure 2")
    p = sub.add_parser("obs", help="observability: trace a run / report it")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    p = obs_sub.add_parser("trace",
                           help="run a traced GraphRAG workload, export JSONL")
    p.add_argument("dataset")
    p.add_argument("--out", default="obs.jsonl",
                   help="JSONL export path (default obs.jsonl)")
    p.add_argument("--workers", type=int, default=2,
                   help="executor worker count (default 2)")
    p.add_argument("--fault-rate", type=float, default=0.1,
                   help="injected fault rate (default 0.1)")
    p = obs_sub.add_parser("report",
                           help="summarize a JSONL observability export")
    p.add_argument("path")
    p = sub.add_parser("kg", help="durable store: snapshot / recover")
    kg_sub = p.add_subparsers(dest="kg_command", required=True)
    p = kg_sub.add_parser("snapshot",
                          help="persist a dataset KG into a durable store")
    p.add_argument("dataset")
    p.add_argument("directory")
    p = kg_sub.add_parser("recover",
                          help="recover a durable store, print the report")
    p.add_argument("directory")
    p = kg_sub.add_parser(
        "stats", help="per-shard triple counts, index and cache stats")
    p.add_argument("dataset")
    p.add_argument("--shards", type=int, default=0,
                   help="re-home the KG onto N hash shards (default off)")
    p = kg_sub.add_parser(
        "replicas", help="replicated-shard read workload: breakers, "
                         "hedging, partition, heal, verify")
    p.add_argument("dataset")
    p.add_argument("--shards", type=int, default=0,
                   help="shard count (default: built-in default)")
    p.add_argument("--replicas", type=int, default=2,
                   help="replicas per shard (default 2)")
    p.add_argument("--reads", type=int, default=64,
                   help="subject-routed read workload size (default 64)")
    p.add_argument("--partition", action="store_true",
                   help="force one replica per shard off the network "
                        "before the reads")
    p.add_argument("--heal", action="store_true",
                   help="lift partitions and run an anti-entropy pass "
                        "after the reads")
    p.add_argument("--drop-rate", type=float, default=0.0,
                   help="transport drop probability (default 0)")
    p.add_argument("--timeout-rate", type=float, default=0.0,
                   help="transport timeout probability (default 0)")
    p.add_argument("--tail-rate", type=float, default=0.0,
                   help="slow-tail latency probability (default 0)")
    p = sub.add_parser("sparql", help="query planning: explain")
    sparql_sub = p.add_subparsers(dest="sparql_command", required=True)
    p = sparql_sub.add_parser(
        "explain", help="run a SELECT under the cost planner, show the plan")
    p.add_argument("dataset")
    p.add_argument("query")
    p.add_argument("--shards", type=int, default=0,
                   help="re-home the KG onto N hash shards (default off)")
    p = sub.add_parser("serve", help="serving gateway: bench / replay")
    serve_sub = p.add_subparsers(dest="serve_command", required=True)
    p = serve_sub.add_parser(
        "bench", help="overload benchmark: goodput at 1x vs Nx capacity")
    p.add_argument("dataset", nargs="?", default="enterprise")
    p.add_argument("--mix", default="mixed",
                   help="traffic mix (default mixed)")
    p.add_argument("--capacity", type=int, default=4,
                   help="simulated worker fleet width (default 4)")
    p.add_argument("--load-factor", type=float, default=2.0,
                   help="overload multiple of capacity (default 2.0)")
    p.add_argument("--requests", type=int, default=200,
                   help="requests per run (default 200)")
    p.add_argument("--queue-limit", type=int, default=32,
                   help="per-tenant queue bound (default 32)")
    p.add_argument("--budget", type=float, default=4.0,
                   help="per-request deadline seconds (default 4.0)")
    p.add_argument("--out", help="write both reports as JSON to this path")
    p.add_argument("--jsonl", help="export overload-run metrics JSONL")
    p.add_argument("--stream", action="store_true",
                   help="token-streaming benchmark: continuous batching vs "
                        "run-to-completion through the TokenScheduler")
    p.add_argument("--max-batch", type=int, default=8,
                   help="streaming batch width (default 8, --stream only)")
    p.add_argument("--no-prefix-cache", action="store_true",
                   help="disable the radix prefix cache (--stream only)")
    p.add_argument("--partition", action="store_true",
                   help="partition benchmark: goodput over replicated "
                        "shards with one replica per shard cut mid-run")
    p.add_argument("--replicas", type=int, default=2,
                   help="replicas per shard (default 2, --partition only)")
    p.add_argument("--schedule-out",
                   help="archive the transport fault schedule as JSONL "
                        "(--partition only)")
    p = serve_sub.add_parser(
        "replay", help="closed-loop replay (supports fault injection)")
    p.add_argument("dataset", nargs="?", default="enterprise")
    p.add_argument("--mix", default="mixed",
                   help="traffic mix (default mixed)")
    p.add_argument("--capacity", type=int, default=4,
                   help="simulated worker fleet width (default 4)")
    p.add_argument("--clients", type=int, default=8,
                   help="closed-loop client population (default 8)")
    p.add_argument("--requests-per-client", type=int, default=10,
                   help="requests per client (default 10)")
    p.add_argument("--think", type=float, default=0.5,
                   help="mean think time seconds (default 0.5)")
    p.add_argument("--queue-limit", type=int, default=16,
                   help="per-tenant queue bound (default 16)")
    p.add_argument("--budget", type=float, default=6.0,
                   help="per-request deadline seconds (default 6.0)")
    p.add_argument("--fault-rate", type=float, default=0.0,
                   help="injected LLM fault rate (default 0)")
    p.add_argument("--tenant-rate", type=float, default=0.0,
                   help="per-tenant token-bucket rate (default off)")
    p.add_argument("--tenant-burst", type=int, default=5,
                   help="per-tenant token-bucket burst (default 5)")
    p.add_argument("--jsonl", help="export replay metrics JSONL")
    p.add_argument("--stream", action="store_true",
                   help="open-loop token-streaming replay through the "
                        "TokenScheduler (fault injection supported)")
    p.add_argument("--policy", default="continuous",
                   choices=("continuous", "run_to_completion"),
                   help="streaming scheduler policy (default continuous)")
    p.add_argument("--max-batch", type=int, default=8,
                   help="streaming batch width (default 8, --stream only)")
    p.add_argument("--load-factor", type=float, default=1.0,
                   help="offered load multiple of capacity "
                        "(default 1.0, --stream only)")
    p.add_argument("--replicas", type=int, default=0,
                   help="serve over N-way replicated shards (default off)")
    p.add_argument("--schedule",
                   help="replay a transport fault schedule JSONL "
                        "(implies --replicas 2 when unset)")
    p = sub.add_parser("agent",
                       help="agentic GraphRAG: run / eval / show traces")
    agent_sub = p.add_subparsers(dest="agent_command", required=True)
    p = agent_sub.add_parser(
        "run", help="one ReAct episode over the graph-tool registry")
    p.add_argument("dataset")
    p.add_argument("question")
    p.add_argument("--max-steps", type=int, default=8,
                   help="episode step budget (default 8)")
    p.add_argument("--workers", type=int, default=1,
                   help="tool fan-out worker count (default 1)")
    p.add_argument("--tools",
                   help="comma-separated tool subset (default all)")
    p.add_argument("--trace", help="write the episode trace JSONL here")
    p.add_argument("--obs-out", help="export obs spans/counters JSONL here")
    p = agent_sub.add_parser(
        "eval", help="agent vs single-shot on the multi-hop eval set")
    p.add_argument("dataset")
    p.add_argument("--n", type=int, default=12,
                   help="eval set size (default 12)")
    p.add_argument("--max-steps", type=int, default=8,
                   help="episode step budget (default 8)")
    p = agent_sub.add_parser(
        "show", help="pretty-print a saved episode trace JSONL")
    p.add_argument("path")
    p = sub.add_parser("run",
                       help="checkpointed GraphRAG QA run (resumable)")
    p.add_argument("dataset", nargs="?")
    p.add_argument("--journal", help="checkpoint journal path (fresh run)")
    p.add_argument("--resume", metavar="JOURNAL",
                   help="resume a killed run (config read from the journal)")
    p.add_argument("--questions", type=int, default=8,
                   help="workload size (default 8)")
    p.add_argument("--batch-size", type=int, default=2,
                   help="questions per checkpointed chunk (default 2)")
    p.add_argument("--workers", type=int, default=2,
                   help="executor worker count (default 2)")
    p.add_argument("--fault-rate", type=float, default=0.0,
                   help="injected fault rate (default 0)")
    return parser


_HANDLERS = {
    "datasets": cmd_datasets,
    "stats": cmd_stats,
    "query": cmd_query,
    "cypher": cmd_cypher,
    "ask": cmd_ask,
    "check": cmd_check,
    "validate": cmd_validate,
    "export": cmd_export,
    "chat": cmd_chat,
    "table1": cmd_table1,
    "figure2": cmd_figure2,
    "run": cmd_run,
}

_OBS_HANDLERS = {
    "trace": cmd_obs_trace,
    "report": cmd_obs_report,
}

_KG_HANDLERS = {
    "snapshot": cmd_kg_snapshot,
    "recover": cmd_kg_recover,
    "stats": cmd_kg_stats,
    "replicas": cmd_kg_replicas,
}

_SPARQL_HANDLERS = {
    "explain": cmd_sparql_explain,
}

_SERVE_HANDLERS = {
    "bench": cmd_serve_bench,
    "replay": cmd_serve_replay,
}

_AGENT_HANDLERS = {
    "run": cmd_agent_run,
    "eval": cmd_agent_eval,
    "show": cmd_agent_show,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "obs":
        return _OBS_HANDLERS[args.obs_command](args)
    if args.command == "kg":
        return _KG_HANDLERS[args.kg_command](args)
    if args.command == "sparql":
        return _SPARQL_HANDLERS[args.sparql_command](args)
    if args.command == "serve":
        return _SERVE_HANDLERS[args.serve_command](args)
    if args.command == "agent":
        return _AGENT_HANDLERS[args.agent_command](args)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
