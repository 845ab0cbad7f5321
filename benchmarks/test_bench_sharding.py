"""E-SHARDING — shard scaling curve + cost-based planner speedup.

Two claims from the sharding/planner work, each asserted before the
numbers are written:

1. **Shard scaling** — hash-partitioning the TripleStore lets bulk load
   and a mixed read/write stream scale with the shard count. This host
   has one core (and the GIL serializes pure-Python index work anyway),
   so the scale-out number a real N-node deployment would see is the
   **critical path**: per-shard work is timed per shard and the curve
   reports ``max`` over shards — the wall clock of the slowest shard,
   which is what bounds an N-worker deployment. Partitioning skew
   (CRC32 balance) is therefore *in* the measurement: a lopsided hash
   would show up directly as a flat curve. Gate: ≥2× throughput at
   4 shards vs 1 for both workloads.

2. **Planner speedup** — honest single-thread wall clock of
   ``SparqlEngine(planner="cost")`` vs ``planner="parse"`` (syntactic
   pattern order) on a selective-BGP suite where parse order starts at a
   dense pattern and cost order starts at the selective one (including a
   numeric-range and a full-text access path). Gate: ≥3× on the suite
   total, results asserted equivalent first.

Identity is asserted before any timing: the sharded façade must produce
byte-identical reads, and every planner mode identical row multisets.

Every timing is a leg from :func:`gates.legs` (probe-normalised median
and quartiles over a fixed number of rounds). A curve point's
``critical_s`` is the leg of its slowest shard; it, ``throughput``,
``skew`` and the 4-shard speedups are modelled from the shards' legs.
The planner's ``cost_s`` and ``parse_s`` legs each run the whole suite
and are measured. Results land in ``BENCH_sharding.json`` at the repo
root; under ``REPRO_BENCH_GATE=1`` every leg is also judged against
``benchmarks/BENCH_sharding_baseline.json`` (see ``gates.py``).
"""

from __future__ import annotations

from typing import Dict, List

from repro.kg.sharding import ShardedTripleStore, shard_of
from repro.kg.store import TripleStore
from repro.kg.triples import IRI, RDFS, XSD, Literal, Triple
from repro.sparql import SparqlEngine

import gates

QUICK = gates.QUICK

SHARD_CURVE = (1, 2, 4, 8)

#: Acceptance floors (the issue's numbers).
MIN_SHARD_SPEEDUP_AT_4 = 2.0
MIN_PLANNER_SPEEDUP = 3.0

EX = "http://bench.repro.dev/"


def _load_triples(n: int) -> List[Triple]:
    return [Triple(IRI(f"{EX}s{i % (n // 8)}"), IRI(f"{EX}p{i % 24}"),
                   IRI(f"{EX}o{i}"))
            for i in range(n)]


def _curve_point(per_shard: Dict[str, Dict], work: int) -> Dict[str, object]:
    """One point of a scaling curve from each shard's timed leg.

    The critical path, the wall clock an N-node deployment is bounded by,
    is the leg of the shard with the slowest median.
    """
    critical = max(per_shard.values(), key=lambda row: row["median"])
    medians = [row["median"] for row in per_shard.values()]
    return {
        "critical_s": critical,
        "total_s": sum(medians),
        "throughput": work / critical["median"],
        "skew": critical["median"] / (sum(medians) / len(medians)),
    }


def _bench_bulk_load() -> Dict[str, Dict[str, object]]:
    n = 8000 if QUICK else 40000
    chunk = 200
    triples = _load_triples(n)

    # Identity first: the façade must be byte-identical to the monolith.
    reference = TripleStore(triples)
    probe = ShardedTripleStore(triples, shards=4)
    assert list(probe) == list(reference)
    assert probe.match(None, IRI(f"{EX}p3"), None) == \
        reference.match(None, IRI(f"{EX}p3"), None)

    def load(group: List[Triple]) -> None:
        store = TripleStore()
        for start in range(0, len(group), chunk):
            store.add_all(group[start:start + chunk])

    curve: Dict[str, Dict[str, object]] = {}
    for shards in SHARD_CURVE:
        groups: List[List[Triple]] = [[] for _ in range(shards)]
        for t in triples:
            groups[shard_of(t.subject, shards)].append(t)
        per_shard = gates.legs({str(i): (lambda g=group: load(g))
                                for i, group in enumerate(groups) if group})
        curve[str(shards)] = _curve_point(per_shard, n)
    return curve


def _mixed_ops(triples: List[Triple], n_ops: int):
    """A deterministic subject-routed read/write mix (70/30)."""
    ops = []
    for i in range(n_ops):
        base = triples[(i * 37) % len(triples)]
        kind = i % 10
        if kind < 3:
            ops.append(("add", Triple(base.subject, IRI(f"{EX}w{i % 5}"),
                                      IRI(f"{EX}new{i}"))))
        elif kind < 7:
            ops.append(("spo", base.subject, base.predicate))
        else:
            ops.append(("s", base.subject, None))
    return ops


def _bench_mixed() -> Dict[str, Dict[str, object]]:
    n = 4000 if QUICK else 20000
    n_ops = 6000 if QUICK else 30000
    triples = _load_triples(n)
    ops = _mixed_ops(triples, n_ops)

    def run(store: TripleStore, stream: List) -> None:
        for op in stream:
            if op[0] == "add":
                store.add(op[1])
            elif op[0] == "spo":
                store.match(op[1], op[2], None)
            else:
                store.match(op[1], None, None)

    curve: Dict[str, Dict[str, object]] = {}
    for shards in SHARD_CURVE:
        # Route each op to its owning shard, exactly as the façade does.
        routed: List[List] = [[] for _ in range(shards)]
        for op in ops:
            routed[shard_of(op[1].subject if op[0] == "add" else op[1],
                            shards)].append(op)
        stores = ShardedTripleStore(triples, shards=shards).shards \
            if shards > 1 else (TripleStore(triples),)
        per_shard = gates.legs({
            str(i): (lambda store=store, stream=stream: run(store, stream))
            for i, (store, stream) in enumerate(zip(stores, routed))
            if stream})
        curve[str(shards)] = _curve_point(per_shard, n_ops)
    return curve


def _planner_kg() -> TripleStore:
    """A KG shaped so syntactic pattern order is catastrophic: one dense
    predicate (``type``), a handful of selective rows (``flag``), plus
    label and numeric columns for the secondary access paths."""
    n = 4000 if QUICK else 12000
    store = TripleStore()
    batch: List[Triple] = []
    for i in range(n):
        e = IRI(f"{EX}e{i}")
        batch.append(Triple(e, IRI(f"{EX}type"), IRI(f"{EX}T{i % 3}")))
        batch.append(Triple(e, RDFS.label,
                            Literal(f"Entity {i} {'rare' if i % (n // 10) == 0 else 'common'}")))
        batch.append(Triple(e, IRI(f"{EX}score"),
                            Literal(str(i % 1000), datatype=XSD.integer)))
        if i % (n // 20) == 0:
            batch.append(Triple(e, IRI(f"{EX}flag"), IRI(f"{EX}on")))
    store.add_all(batch)
    return store


#: Selective-BGP suite: the dense pattern is written FIRST in each query,
#: so parse order pays the full dense scan and cost order must not.
PLANNER_QUERIES = [
    # Join reorder: selective `flag` should lead.
    (f"SELECT ?x WHERE {{ ?x <{EX}type> <{EX}T1> . "
     f"?x <{EX}flag> <{EX}on> }}"),
    # Numeric range access path.
    (f"SELECT ?x ?s WHERE {{ ?x <{EX}type> <{EX}T0> . "
     f"?x <{EX}score> ?s FILTER (?s >= 995) }}"),
    # Full-text access path.
    (f'SELECT ?x ?l WHERE {{ ?x <{EX}type> <{EX}T2> . '
     f'?x <{EX}label> ?l FILTER CONTAINS(?l, "rare") }}'
     ).replace(f"{EX}label", RDFS.label.value),
    # Three-way join with a pushed conjunction.
    (f"SELECT ?x WHERE {{ ?x <{EX}type> ?t . ?x <{EX}score> ?s . "
     f"?x <{EX}flag> <{EX}on> FILTER (?s > 100 && ?s < 400) }}"),
]


def _canon(rows) -> List:
    return sorted(tuple(sorted((k, repr(v)) for k, v in row.items()))
                  for row in rows)


def _bench_planner() -> Dict[str, object]:
    store = _planner_kg()
    engines = {mode: SparqlEngine(store, planner=mode)
               for mode in ("cost", "parse")}

    # Result identity (as multisets: join order legitimately permutes
    # rows) before any timing counts.
    for query in PLANNER_QUERIES:
        assert _canon(engines["cost"].select(query)) == \
            _canon(engines["parse"].select(query)), query
    # Warm the secondary indexes so the timed region measures the query
    # path, not the first-read index build (indexes are version-keyed
    # and amortized across queries in any real workload).
    engines["cost"].select(PLANNER_QUERIES[1])

    row: Dict[str, object] = gates.legs({
        f"{mode}_s": (lambda engine=engine: [engine.select(query)
                                            for query in PLANNER_QUERIES])
        for mode, engine in engines.items()})
    row["speedup"] = row["parse_s"]["median"] / row["cost_s"]["median"]
    return row


def test_sharding_benchmark():
    bulk = _bench_bulk_load()
    mixed = _bench_mixed()
    planner = _bench_planner()

    bulk_speedup_4 = bulk["4"]["throughput"] / bulk["1"]["throughput"]
    mixed_speedup_4 = mixed["4"]["throughput"] / mixed["1"]["throughput"]
    planner_speedup = planner["speedup"]

    print("\nE-SHARDING — scaling curve (critical-path) + planner speedup")
    print("  shards   bulk load (ms, thr, x)       mixed r/w (ms, thr, x)")
    for shards in SHARD_CURVE:
        b, m = bulk[str(shards)], mixed[str(shards)]
        bx = b["throughput"] / bulk["1"]["throughput"]
        mx = m["throughput"] / mixed["1"]["throughput"]
        print(f"  {shards:>6d}   {b['critical_s']['median']*1e3:8.1f} "
              f"{b['throughput']:>10,.0f}/s {bx:4.1f}x   "
              f"{m['critical_s']['median']*1e3:8.1f} "
              f"{m['throughput']:>10,.0f}/s {mx:4.1f}x")
    print(f"  planner: cost {planner['cost_s']['median']*1e3:.1f}ms vs "
          f"parse {planner['parse_s']['median']*1e3:.1f}ms → "
          f"{planner_speedup:.1f}x on the selective-BGP suite")

    results = {
        "bulk_load": bulk,
        "mixed_rw": mixed,
        "planner": planner,
        "summary": {
            "bulk_speedup_at_4": bulk_speedup_4,
            "mixed_speedup_at_4": mixed_speedup_4,
            "planner_speedup": planner_speedup,
        },
    }
    gates.finish("sharding", results, gates.per_path, bounds={
        f"bulk load at 4 shards: {bulk_speedup_4:.2f}x >= 2x":
            bulk_speedup_4 >= MIN_SHARD_SPEEDUP_AT_4,
        f"mixed read/write at 4 shards: {mixed_speedup_4:.2f}x >= 2x":
            mixed_speedup_4 >= MIN_SHARD_SPEEDUP_AT_4,
        f"planner speedup: {planner_speedup:.2f}x >= 3x":
            planner_speedup >= MIN_PLANNER_SPEEDUP,
    }, modelled=[f"{curve}.{shards}.{field}"
                 for curve in ("bulk_load", "mixed_rw")
                 for shards in SHARD_CURVE
                 for field in ("critical_s", "throughput", "skew")]
       + ["summary.bulk_speedup_at_4", "summary.mixed_speedup_at_4"])