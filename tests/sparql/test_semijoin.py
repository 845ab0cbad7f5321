"""The semi-join step: a join step that only filters rows.

A constant-predicate pattern whose rows already know both ends keeps
the rows that pass one membership test
(:meth:`~repro.kg.store.TripleStore.membership`), read once per step
when one end is a constant; a candidate step followed by such a test on
its subject drops the failing candidates before building their rows.
The reference below is the join step as it was before: one ``contains``
probe per row and no folding, written out in full.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kg.datasets import SCHEMA, encyclopedia_kg
from repro.kg.indexes import NumericIndex
from repro.kg.replication import ReplicatedShardedTripleStore
from repro.kg.sharding import ShardedTripleStore
from repro.kg.store import TripleStore
from repro.kg.triples import IRI, RDFS, XSD, Literal, Triple
from repro.sparql import SparqlEngine
from repro.sparql import algebra as alg
from tests.test_fuzz import _ORACLE_NS, _oracle_iri, _oracle_triples


class _PerRowEngine(SparqlEngine):
    """The reference: the BGP loop and join step with a store read per
    row (``contains`` for a row that knows both ends), candidates used
    exactly as the access path gives them, and each step's ``actual``
    and ``rows`` counted on the rows it built."""

    def _eval_bgp(self, bgp, solutions, pushable, state):
        if self.planner is None:
            for pattern in bgp.patterns:
                solutions = self._extend(solutions, pattern)
                if not solutions:
                    return []
            return solutions
        bound = set(solutions[0].keys()) if solutions else set()
        for solution in solutions[1:]:
            bound &= solution.keys()
        key = (id(bgp), frozenset(bound))
        plan = state.plans.get(key)
        if plan is None:
            plan = self.planner.plan_bgp(bgp.patterns, bound, pushable)
            state.plans[key] = plan
            if state.explain is not None:
                state.explain.append(plan)
        plan.input_rows = len(solutions)
        for expr in plan.prefilters:
            solutions = state.keep(solutions, expr)
        for step in plan.steps:
            if solutions:
                solutions = self._extend(solutions, step.pattern,
                                         step.candidates())
                step.actual = len(solutions)
                for expr in step.checks:
                    solutions = state.keep(solutions, expr)
                step.rows = len(solutions)
        plan.output_rows = len(solutions)
        return solutions

    def _extend(self, solutions, pattern, candidates=None):
        s_slot, p, o_slot = pattern.subject, pattern.predicate, pattern.object
        if alg.is_path(p):
            return self._extend_path(solutions, pattern)
        if not isinstance(p, IRI) or (isinstance(s_slot, alg.Var)
                                      and s_slot == o_slot):
            return self._extend_general(solutions, pattern)
        store = self.store
        s_var = s_slot.name if isinstance(s_slot, alg.Var) else None
        o_var = o_slot.name if isinstance(o_slot, alg.Var) else None
        out = []
        for solution in solutions:
            s = solution.get(s_var) if s_var else s_slot
            o = solution.get(o_var) if o_var else o_slot
            if s is not None and not isinstance(s, IRI):
                continue
            if s is not None and o is not None:
                if store.contains(s, p, o):
                    out.append(solution)
            elif s is not None:
                for obj in store.objects(s, p):
                    row = dict(solution)
                    row[o_var] = obj
                    out.append(row)
            elif o is not None:
                for subj in store.subjects(p, o):
                    row = dict(solution)
                    row[s_var] = subj
                    out.append(row)
            else:
                for triple in (candidates if candidates is not None
                               else store.match(None, p, None)):
                    row = dict(solution)
                    row[s_var] = triple.subject
                    row[o_var] = triple.object
                    out.append(row)
        return out


def _iri(name):
    return f"<{_ORACLE_NS}{name}>"


def _typed_triples():
    """The oracle stores, plus a class (``type`` T0 or T1) and a ``val``
    (an integer or a non-numeric literal) for each of ``s0``..``s7``:
    ``type`` is dense enough that a narrow ``val`` range plans before it
    and folds into it."""
    subjects = [_oracle_iri(f"s{i}") for i in range(8)]
    kind = st.sampled_from(("T0", "T1")).map(_oracle_iri)
    number = st.one_of(
        st.integers(-3, 12).map(
            lambda n: Literal(str(n), datatype=XSD.integer)),
        st.just(Literal("n/a")))
    typed = st.tuples(st.lists(kind, min_size=8, max_size=8),
                      st.lists(number, min_size=8, max_size=8))
    return st.tuples(_oracle_triples(), typed).map(
        lambda t: t[0] + [
            triple for s, k, n in zip(subjects, *t[1])
            for triple in (Triple(s, _oracle_iri("type"), k),
                           Triple(s, _oracle_iri("val"), n))])


_PREDICATES = tuple(_iri(p) for p in ("p0", "p1", "val", "type")) + \
    (RDFS.label.n3(),)
_CONSTANTS = tuple(_iri(f"s{i}") for i in range(4)) + \
    tuple(_iri(f"o{i}") for i in range(3)) + \
    (_iri("T0"), _iri("T1"), '"x"', '"apple"', "3", "7")

#: Groups that leave ``?x`` bound to IRIs, to literals, or to nothing in
#: some rows: OPTIONAL and UNION mixes among them. ``?y`` is bound in
#: some so that a step with two variable ends meets rows knowing both.
_PREFIXES = (
    "",
    f"{{ ?x {_iri('p0')} ?y }}",
    f"{{ ?y {_iri('p0')} ?x }}",
    f"{{ ?y {_iri('val')} ?x }}",
    f"{{ ?y {RDFS.label.n3()} ?x }}",
    f"{{ ?x {_iri('p0')} ?y }} UNION {{ ?y {_iri('p1')} ?z }}",
    f"{{ ?x {_iri('p1')} ?y }} UNION {{ ?y {_iri('val')} ?x }}",
    f"?y {_iri('p0')} ?z OPTIONAL {{ ?z {_iri('p1')} ?x }}",
    f"?z {_iri('p0')} ?y OPTIONAL {{ ?y {_iri('val')} ?x }}",
)


@st.composite
def _semijoin_group(draw):
    """A prefix group, then steps on ``?x``: constant object, constant
    subject (IRI or literal), or two variable ends, and maybe a range on
    the ``val`` column beside a constant-object pattern, the shape of a
    NUMERIC step with a folded semi-join."""
    predicate = st.sampled_from(_PREDICATES)
    constant = st.sampled_from(_CONSTANTS)
    step = st.one_of(
        st.tuples(predicate, constant).map(lambda t: f"?x {t[0]} {t[1]}"),
        st.tuples(constant, predicate).map(lambda t: f"{t[0]} {t[1]} ?x"),
        predicate.map(lambda p: f"?x {p} ?y"),
        predicate.map(lambda p: f"?y {p} ?x"))
    prefix = draw(st.sampled_from(_PREFIXES))
    steps = draw(st.lists(step, max_size=2))
    if not steps or draw(st.booleans()):
        low = draw(st.integers(-3, 12))
        high = low + draw(st.integers(0, 3))
        kind = draw(st.one_of(
            st.sampled_from(("T0", "T1")).map(
                lambda k: f"{_iri('type')} {_iri(k)}"),
            st.tuples(predicate, constant).map(" ".join)))
        steps += [f"?x {_iri('val')} ?v",
                  f"?x {kind} FILTER (?v >= {low} && ?v <= {high})"]
    return f"{prefix} {' . '.join(steps)}"


def _stores(triples):
    return (TripleStore(triples),
            ShardedTripleStore(triples, shards=2),
            ShardedTripleStore(triples, shards=4),
            ReplicatedShardedTripleStore(triples, shards=2, replicas=2))


class TestSemiJoinEqualsPerRowPath:
    """Property: the engine returns the per-row reference's rows, in the
    same order, under both planner modes, on flat, 2- and 4-shard and
    replicated (R=2) stores; and EXPLAIN, folded steps included, renders
    what the reference renders."""

    @settings(max_examples=100, deadline=None)
    @given(triples=_typed_triples(),
           groups=st.lists(_semijoin_group(), min_size=1, max_size=3))
    def test_rows_and_order_equal_the_per_row_reference(self, triples,
                                                        groups):
        for store in _stores(triples):
            for planner in ("cost", "parse"):
                engine = SparqlEngine(store, planner=planner)
                reference = _PerRowEngine(store, planner=planner)
                for group in groups:
                    query = f"SELECT * WHERE {{ {group} }}"
                    assert engine.select(query) == reference.select(query), \
                        (type(store).__name__, planner, query)
                    if planner == "cost":
                        assert engine.explain(query).render() == \
                            reference.explain(query).render(), query


class _CountingStore(TripleStore):
    """A flat store that counts ``contains`` and ``membership`` reads."""

    def __init__(self, triples):
        self.calls = {"contains": 0, "membership": 0}
        super().__init__(triples)

    def contains(self, subject, predicate, object):
        self.calls["contains"] += 1
        return super().contains(subject, predicate, object)

    def membership(self, subject, predicate, object):
        self.calls["membership"] += 1
        return super().membership(subject, predicate, object)


def _encyclopedia():
    return encyclopedia_kg(seed=0, n_people=600, n_cities=24,
                           n_companies=16, n_universities=8)


def _range_query(country, low):
    """The FILTER-range template of the ``sparql_analytics`` workload."""
    return (f"SELECT ?p ?y WHERE {{ ?p {SCHEMA.citizenOf.n3()} "
            f"{country.n3()} . ?p {SCHEMA.birthYear.n3()} ?y "
            f"FILTER (?y >= {low} && ?y < {low + 5}) }}")


class TestFilterRangeTemplate:
    """The FILTER-range template plans NUMERIC(birthYear), then a
    semi-join on ``citizenOf``, which folds into the candidates."""

    def test_no_per_row_contains(self):
        dataset = _encyclopedia()
        store = _CountingStore(list(dataset.kg.store))
        engine = SparqlEngine(store)
        reference = _PerRowEngine(TripleStore(list(store)))
        for country in dataset.metadata["countries"]:
            query = _range_query(IRI(country), 1960)
            store.calls.update(contains=0, membership=0)
            rows = engine.select(query)
            assert rows == reference.select(query)
            # One read for the fold, one for the semi-join step itself.
            assert store.calls == {"contains": 0, "membership": 2}, query

    def test_explain_output_is_pinned(self):
        dataset = _encyclopedia()
        store = dataset.kg.store
        country = IRI(dataset.metadata["countries"][0])
        query = _range_query(country, 1960)
        report = SparqlEngine(store).explain(query)
        numeric, semijoin = report.plans[0].steps
        # Step 1 states every candidate it read, folded or not; step 2
        # states the rows that are citizens.
        in_range = NumericIndex(store).range_count(
            SCHEMA.birthYear, 1960, 1965, True, False)
        citizens = {t.subject for t in store.match(None, SCHEMA.citizenOf,
                                                   country)}
        kept = [t for t in store.match(None, SCHEMA.birthYear, None)
                if t.subject in citizens
                and 1960 <= float(t.object.lexical) < 1965]
        assert numeric.actual == numeric.rows == in_range
        assert semijoin.actual == semijoin.rows == report.rows == len(kept)
        assert report.render() == EXPECTED_EXPLAIN.format(
            year=SCHEMA.birthYear.value, citizen=SCHEMA.citizenOf.value,
            country=country.value)


EXPECTED_EXPLAIN = """\
QUERY PLAN  (planner=cost, store=TripleStore)
BGP 1  [in=1 out=5]
  1. ?p <{year}> ?y  [access=NUMERIC(birthYear) est=52 actual=52]
     + pushed FILTER ?y >= "1960"^^<http://www.w3.org/2001/XMLSchema#integer>  [rows=52]
     + pushed FILTER ?y < "1965"^^<http://www.w3.org/2001/XMLSchema#integer>  [rows=52]
  2. ?p <{citizen}> <{country}>  [access=POS(p,o) est=0 actual=5]
rows: 5"""
