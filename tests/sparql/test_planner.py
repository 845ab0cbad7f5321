"""Unit tests for cost-based planning (`repro.sparql.planner`) and the
two planner modes of :class:`~repro.sparql.evaluator.SparqlEngine`.

The contract under test: the cost planner may reorder joins, push filters
down and substitute index access paths, but its rows must equal the
``planner="parse"`` oracle's as a multiset, and be byte-identical (values
AND order) between plain and sharded stores.
"""

import pytest

from repro.kg.datasets import SCHEMA, movie_kg
from repro.kg.sharding import ShardedTripleStore
from repro.kg.store import TripleStore
from repro.kg.triples import IRI, RDFS, XSD, Literal, Namespace, Triple
from repro.sparql import CostPlanner, SparqlEngine, StoreStatistics, conjuncts
from repro.sparql.evaluator import SparqlEvaluationError
from repro.sparql.parser import parse_query
from repro.sparql.planner import (
    expression_variables,
    render_expression,
    render_pattern,
)

X = Namespace("http://x/")
S = SCHEMA

#: Queries exercising joins, filters, OPTIONAL/UNION, ORDER BY, paths —
#: every one must produce the same rows under both planner modes.
BATTERY = [
    f"SELECT ?m WHERE {{ ?m {S.hasGenre.n3()} ?g }}",
    (f"SELECT ?m ?d WHERE {{ ?m {S.directedBy.n3()} ?d . "
     f"?m {S.releaseYear.n3()} ?y FILTER (?y > 2005) }}"),
    (f"SELECT ?a WHERE {{ ?m {S.starring.n3()} ?a . "
     f"?m {S.hasGenre.n3()} ?g . ?m {S.releaseYear.n3()} ?y "
     f"FILTER (?y >= 2000 && ?y <= 2015) }}"),
    (f'SELECT ?e ?l WHERE {{ ?e {RDFS.label.n3()} ?l '
     f'FILTER CONTAINS(?l, "a") }}'),
    (f"SELECT ?m ?s WHERE {{ ?m {S.sequelOf.n3()} ?s . "
     f"OPTIONAL {{ ?s {S.releaseYear.n3()} ?y }} }}"),
    (f"SELECT ?m WHERE {{ {{ ?m {S.wonAward.n3()} ?w }} UNION "
     f"{{ ?m {S.sequelOf.n3()} ?s }} }}"),
    f"SELECT ?m ?y WHERE {{ ?m {S.releaseYear.n3()} ?y }} ORDER BY ?y",
    f"SELECT ?x WHERE {{ ?x {S.sequelOf.n3()}+ ?root }}",
    (f"SELECT ?d (COUNT(?m) AS ?n) WHERE "
     f"{{ ?m {S.directedBy.n3()} ?d }} GROUP BY ?d"),
    f"ASK {{ ?m {S.wonAward.n3()} ?w }}",
]


@pytest.fixture(scope="module")
def movie_store():
    return movie_kg().kg.store


def canon(rows):
    """Rows as an order-insensitive canonical form.

    Join order determines emission order, and SPARQL leaves row order
    undefined without ORDER BY — so cross-*mode* comparisons are multiset
    comparisons. (Sharded-vs-plain at the *same* mode is byte-identical
    and compared without canonicalization.)
    """
    return sorted(tuple(sorted((k, repr(v)) for k, v in row.items()))
                  for row in rows)


class TestModeEquivalence:
    @pytest.mark.parametrize("query", BATTERY)
    def test_rows_equivalent_to_greedy(self, movie_store, query):
        """The default (cost) planner returns the parse-order oracle's
        rows."""
        reference = SparqlEngine(movie_store, planner="parse")
        candidate = SparqlEngine(movie_store)
        if query.startswith("ASK"):
            assert candidate.ask(query) == reference.ask(query)
        else:
            assert canon(candidate.select(query)) == \
                canon(reference.select(query))

    @pytest.mark.parametrize("shards", (2, 4, 7))
    @pytest.mark.parametrize("query", BATTERY)
    def test_cost_mode_identical_on_sharded_store(self, movie_store,
                                                  shards, query):
        sharded = ShardedTripleStore(list(movie_store), shards=shards)
        reference = SparqlEngine(movie_store, planner="cost")
        candidate = SparqlEngine(sharded, planner="cost")
        if query.startswith("ASK"):
            assert candidate.ask(query) == reference.ask(query)
        else:
            # Byte-identical: same rows in the same order.
            assert candidate.select(query) == reference.select(query)

    def test_pushdown_waits_for_rows_missing_the_variable(self):
        # After the OPTIONAL only the s0 row carries ?v; the UNION branch
        # binds ?v for the s1 row. Pushing the filter ahead of that
        # branch's BGP would drop the s1 row.
        store = TripleStore([
            Triple(X.s0, X.p, X.s1), Triple(X.s1, X.p, X.s2),
            Triple(X.s0, X.w, Literal("9", datatype=XSD.integer)),
            Triple(X.s1, X.val, Literal("9", datatype=XSD.integer)),
            Triple(X.s2, X.val, Literal("7", datatype=XSD.integer)),
        ])
        query = ("SELECT * WHERE { ?a <http://x/p> ?b "
                 "OPTIONAL { ?a <http://x/w> ?v } "
                 "{ ?b <http://x/val> ?v FILTER (?v > 3) } UNION "
                 "{ ?a <http://x/p> <http://x/none> } }")
        rows = SparqlEngine(store).select(query)
        assert canon(rows) == \
            canon(SparqlEngine(store, planner="parse").select(query))
        assert {row["a"] for row in rows} == {X.s0, X.s1}

    def test_unknown_mode_rejected(self, movie_store):
        with pytest.raises(ValueError):
            SparqlEngine(movie_store, planner="oracle")

    def test_greedy_mode_is_gone(self, movie_store):
        with pytest.raises(ValueError):
            SparqlEngine(movie_store, planner="greedy")

    def test_cost_is_the_default(self, movie_store):
        assert SparqlEngine(movie_store).mode == "cost"


class TestStoreStatistics:
    def test_reads_store_indexes(self):
        store = TripleStore([
            Triple(X.a, X.p, X.b), Triple(X.c, X.p, X.b),
            Triple(X.a, X.q, Literal("1")),
        ])
        stats = StoreStatistics(store)
        assert stats.total() == 3
        assert stats.predicate(X.p) == {"count": 2, "subjects": 2,
                                        "objects": 1}
        assert stats.predicate(X.missing) is None
        assert stats.predicate_count() == 2

    def test_cached_per_version(self):
        store = TripleStore([Triple(X.a, X.p, X.b)])
        stats = StoreStatistics(store)
        stats.total(), stats.total()
        assert stats.refreshes == 1
        store.add(Triple(X.c, X.p, X.d))
        assert stats.total() == 2
        assert stats.refreshes == 2

    def test_sharded_statistics_equal_unsharded(self, movie_store):
        plain = StoreStatistics(movie_store)
        sharded = StoreStatistics(
            ShardedTripleStore(list(movie_store), shards=4))
        assert sharded.total() == plain.total()
        for p in movie_store.relations():
            assert sharded.predicate(p) == plain.predicate(p)


def plan_for(store, query, planner=None, bound=frozenset()):
    """Plan the first BGP of ``query`` with its group's filter conjuncts."""
    parsed = parse_query(query)
    group = parsed.where
    patterns = []
    filters = []
    for element in group.elements:
        if hasattr(element, "patterns"):
            patterns.extend(element.patterns)
        elif hasattr(element, "expression"):
            filters.extend(conjuncts(element.expression))
    if planner is None:
        from repro.kg.indexes import FullTextIndex, NumericIndex
        planner = CostPlanner(store, fulltext=FullTextIndex(store),
                              numeric=NumericIndex(store))
    return planner.plan_bgp(patterns, set(bound), filters)


class TestCostPlanner:
    def test_selective_pattern_runs_first(self, movie_store):
        # sequelOf (a handful of triples) must be joined before the much
        # denser hasGenre, whatever the syntactic order.
        query = (f"SELECT ?m WHERE {{ ?m {S.hasGenre.n3()} ?g . "
                 f"?m {S.sequelOf.n3()} ?s }}")
        plan = plan_for(movie_store, query)
        assert plan.steps[0].pattern.predicate == S.sequelOf

    def test_unknown_predicate_estimates_zero_and_runs_first(self,
                                                             movie_store):
        query = (f"SELECT ?m WHERE {{ ?m {S.hasGenre.n3()} ?g . "
                 f"?m <http://x/nope> ?z }}")
        plan = plan_for(movie_store, query)
        assert plan.steps[0].access == "empty(p)"
        assert plan.steps[0].estimate == 0.0

    def test_filter_attached_at_earliest_binding_step(self, movie_store):
        query = (f"SELECT ?m WHERE {{ ?m {S.hasGenre.n3()} ?g . "
                 f"?m {S.releaseYear.n3()} ?y FILTER (?y > 2005) }}")
        plan = plan_for(movie_store, query)
        step = next(s for s in plan.steps
                    if s.pattern.predicate == S.releaseYear)
        assert len(step.filters) == 1
        assert "?y" in render_expression(step.filters[0])

    def test_conjuncts_split_and_attach_independently(self, movie_store):
        query = (f"SELECT ?m WHERE {{ ?m {S.releaseYear.n3()} ?y . "
                 f"?m {S.directedBy.n3()} ?d "
                 f"FILTER (?y > 2000 && ?d != <http://x/nobody>) }}")
        plan = plan_for(movie_store, query)
        attached = [f for s in plan.steps for f in s.filters]
        assert len(attached) == 2  # one conjunct per earliest step

    def test_already_bound_filter_becomes_prefilter(self, movie_store):
        query = (f"SELECT ?m WHERE {{ ?m {S.releaseYear.n3()} ?y "
                 f"FILTER (?z > 3) }}")
        plan = plan_for(movie_store, query, bound={"z"})
        assert len(plan.prefilters) == 1
        assert all(not s.filters for s in plan.steps)

    def test_numeric_index_access_path(self, movie_store):
        query = (f"SELECT ?m WHERE {{ ?m {S.releaseYear.n3()} ?y "
                 f"FILTER (?y > 2010) }}")
        plan = plan_for(movie_store, query)
        assert plan.steps[0].access.startswith("NUMERIC(")
        assert plan.steps[0].fetch is not None
        # The candidate list is exact for a range filter.
        assert len(plan.steps[0].candidates()) == plan.steps[0].estimate

    def test_fulltext_index_access_path(self, movie_store):
        query = (f'SELECT ?e WHERE {{ ?e {RDFS.label.n3()} ?l '
                 f'FILTER CONTAINS(?l, "Nolan") }}')
        plan = plan_for(movie_store, query)
        assert plan.steps[0].access.startswith("FULLTEXT(")
        assert plan.steps[0].candidates() is not None

    def test_index_skipped_when_variable_already_bound(self, movie_store):
        query = (f'SELECT ?e WHERE {{ ?e {RDFS.label.n3()} ?l '
                 f'FILTER CONTAINS(?l, "Nolan") }}')
        plan = plan_for(movie_store, query, bound={"l"})
        assert plan.steps[0].candidates() is None

    def test_broadcast_annotation_on_sharded_store(self, movie_store):
        sharded = ShardedTripleStore(list(movie_store), shards=4)
        query = f"SELECT ?m WHERE {{ ?m {S.hasGenre.n3()} ?g }}"
        plan = plan_for(sharded, query)
        assert plan.steps[0].access.endswith("@broadcast(4)")
        # The same plan over the unsharded store carries no annotation.
        assert "@broadcast" not in \
            plan_for(movie_store, query).steps[0].access

    def test_plans_identical_across_shard_counts(self, movie_store):
        query = BATTERY[2]
        rendered = []
        for shards in (1, 2, 4):
            store = ShardedTripleStore(list(movie_store), shards=shards)
            plan = plan_for(store, query)
            rendered.append([
                (render_pattern(s.pattern), s.estimate,
                 s.access.split("@")[0]) for s in plan.steps])
        assert rendered[0] == rendered[1] == rendered[2]


class TestExplain:
    def test_renders_plan_with_estimates_and_actuals(self, movie_store):
        engine = SparqlEngine(movie_store, planner="cost")
        report = engine.explain(
            f"SELECT ?m ?y WHERE {{ ?m {S.releaseYear.n3()} ?y "
            f"FILTER (?y > 2000) }}")
        text = report.render()
        assert "QUERY PLAN" in text and "planner=cost" in text
        assert "access=NUMERIC(releaseYear)" in text
        assert "est=" in text and "actual=" in text
        assert "+ pushed FILTER ?y >" in text
        assert text.endswith(f"rows: {report.rows}")
        step = report.plans[0].steps[0]
        assert step.actual is not None and step.rows is not None

    def test_explain_rows_match_select(self, movie_store):
        engine = SparqlEngine(movie_store, planner="cost")
        query = BATTERY[1]
        assert engine.explain(query).rows == len(engine.select(query))

    def test_explain_names_sharded_store(self, movie_store):
        sharded = ShardedTripleStore(list(movie_store), shards=4)
        engine = SparqlEngine(sharded, planner="cost")
        report = engine.explain(BATTERY[0])
        assert "[4 shards]" in report.store
        assert "@broadcast(4)" in report.render()

    def test_explain_requires_cost_mode(self, movie_store):
        engine = SparqlEngine(movie_store, planner="parse")
        with pytest.raises(SparqlEvaluationError):
            engine.explain(BATTERY[0])

    def test_optional_plan_runs_once_over_all_outer_rows(self, movie_store):
        # The OPTIONAL group is planned once per query and executed once,
        # as one left join over every outer row.
        engine = SparqlEngine(movie_store)
        report = engine.explain(BATTERY[4])
        outer, optional = report.plans
        assert optional.input_rows == outer.output_rows > 1
        text = report.render()
        assert (f"BGP 2  [in={optional.input_rows} "
                f"out={optional.output_rows}]") in text
        assert "loops=" not in text
        # A fresh call starts from fresh plans with the same counts.
        again = engine.explain(BATTERY[4])
        assert again.plans[1] is not optional
        assert again.plans[1].input_rows == optional.input_rows
        assert again.render() == text

    def test_explain_covers_union_branches(self, movie_store):
        engine = SparqlEngine(movie_store, planner="cost")
        report = engine.explain(BATTERY[5])
        assert len(report.plans) >= 2


class TestHelpers:
    def test_expression_variables_walks_every_shape(self):
        query = ('SELECT ?a WHERE { ?a <http://x/p> ?b '
                 'FILTER (!(?a = ?b) && REGEX(STR(?c), "x")) }')
        parsed = parse_query(query)
        expr = next(e for e in parsed.where.elements
                    if hasattr(e, "expression")).expression
        assert expression_variables(expr) == {"a", "b", "c"}

    def test_conjuncts_splits_nested_ands_only(self):
        query = ("SELECT ?a WHERE { ?a <http://x/p> ?b "
                 "FILTER (?a > 1 && (?b > 2 && ?b < 9) || ?b = 0) }")
        parsed = parse_query(query)
        expr = next(e for e in parsed.where.elements
                    if hasattr(e, "expression")).expression
        # Top level is ||: must stay whole.
        assert conjuncts(expr) == [expr]
        query2 = ("SELECT ?a WHERE { ?a <http://x/p> ?b "
                  "FILTER (?a > 1 && (?b > 2 && ?b < 9)) }")
        expr2 = next(e for e in parse_query(query2).where.elements
                     if hasattr(e, "expression")).expression
        assert len(conjuncts(expr2)) == 3

    def test_render_pattern(self):
        parsed = parse_query("SELECT ?s WHERE { ?s <http://x/p> ?o }")
        pattern = parsed.where.elements[0].patterns[0]
        assert render_pattern(pattern) == "?s <http://x/p> ?o"


YEAR = S.releaseYear.n3()


def year_query(condition):
    return f"SELECT ?m ?y WHERE {{ ?m {YEAR} ?y FILTER ({condition}) }}"


class TestRangeAccess:
    """Every range conjunct on the object variable narrows one NUMERIC
    access; the plan never changes the rows."""

    def test_two_sided_range_is_one_numeric_access(self, movie_store):
        from repro.kg.indexes import NumericIndex
        report = SparqlEngine(movie_store).explain(
            year_query("?y >= 2000 && ?y < 2010"))
        step = report.plans[0].steps[0]
        assert step.access == "NUMERIC(releaseYear)"
        numeric = NumericIndex(movie_store)
        expected = numeric.range_count(S.releaseYear, 2000, 2010, True, False)
        assert step.estimate == expected == step.actual
        # Sized from both bounds, not from the first conjunct alone.
        assert expected < numeric.range_count(S.releaseYear, low=2000)

    def test_tighter_bound_wins_and_exclusive_beats_inclusive(
            self, movie_store):
        from repro.kg.indexes import NumericIndex
        plan = plan_for(movie_store, year_query(
            "?y >= 2000 && ?y > 2000 && 2012 > ?y && ?y <= 2010 "
            "&& ?y >= 1990"))
        assert plan.steps[0].estimate == NumericIndex(movie_store).range_count(
            S.releaseYear, 2000, 2010, False, True)

    @pytest.mark.parametrize("condition", [
        "?y > 2005 && ?y < 2003",      # contradictory
        "?y = 2005 && ?y < 2005",      # a point excluded by its own bound
        "2005 = ?y && ?y > 2005",
    ])
    def test_empty_range_estimates_zero_and_returns_nothing(
            self, movie_store, condition):
        query = year_query(condition)
        report = SparqlEngine(movie_store).explain(query)
        step = report.plans[0].steps[0]
        assert step.access == "NUMERIC(releaseYear)"
        assert step.estimate == 0
        assert report.rows == 0
        assert SparqlEngine(movie_store).select(query) == []
        assert SparqlEngine(movie_store, planner="parse").select(query) == []

    def test_contains_beside_a_range_still_gets_fulltext(self, movie_store):
        query = (f'SELECT ?m WHERE {{ ?m {RDFS.label.n3()} ?l . '
                 f'?m {YEAR} ?y '
                 f'FILTER (?y > 1900 && CONTAINS(?l, "Nolan")) }}')
        plan = plan_for(movie_store, query)
        accesses = {s.pattern.predicate: s.access for s in plan.steps}
        assert accesses[RDFS.label].startswith("FULLTEXT(")
        assert canon(SparqlEngine(movie_store).select(query)) == \
            canon(SparqlEngine(movie_store, planner="parse").select(query))


INT0 = Literal("0", datatype=XSD.integer).n3()
INT10 = Literal("10", datatype=XSD.integer).n3()


class TestExactNumericStep:
    """A NUMERIC range answers its range conjuncts exactly: the step shows
    them as pushed filters but does not check them again per row, and
    objects that no numeric comparison accepts never reach the results."""

    VAL = X.val

    def store(self):
        integer, double = XSD.integer, XSD.double
        objects = {
            "a": Literal("5", datatype=integer),
            "b": Literal("NaN", datatype=double),
            "c": Literal("abc", datatype=integer),
            "d": Literal("5"),
            "e": X.five,
            "f": Literal("7.5", datatype=XSD.decimal),
            "g": Literal("-inf", datatype=double),
            "h": Literal("10", datatype=integer),
        }
        return TripleStore([Triple(X[name], self.VAL, obj)
                            for name, obj in objects.items()])

    def query(self, condition):
        return (f"SELECT ?s ?v WHERE {{ ?s {self.VAL.n3()} ?v "
                f"FILTER ({condition}) }}")

    def test_folded_range_renders_its_pushed_filters(self):
        store = self.store()
        query = self.query("?v >= 0 && ?v < 10")
        report = SparqlEngine(store).explain(query)
        step = report.plans[0].steps[0]
        assert step.access == "NUMERIC(val)"
        pushed = [f"?v >= {INT0}", f"?v < {INT10}"]
        assert [render_expression(e) for e in step.filters] == pushed
        assert step.checks == []
        text = report.render()
        for line in pushed:
            assert f"+ pushed FILTER {line}  [rows=2]" in text

    @pytest.mark.parametrize("condition", [
        "?v >= 0 && ?v < 10", "?v > -1000", "?v <= 10", "?v = 5",
        "?v != 5 && ?v < 100", "?v < 100 && ISLITERAL(?v)",
    ])
    def test_rejected_objects_never_appear(self, condition):
        store = self.store()
        query = self.query(condition)
        rows = SparqlEngine(store).select(query)
        names = {row["s"].local_name for row in rows}
        assert not names & {"b", "c", "d", "e"}
        assert canon(rows) == \
            canon(SparqlEngine(store, planner="parse").select(query))

    def test_other_conjuncts_are_still_checked(self):
        report = SparqlEngine(self.store()).explain(
            self.query("?v != 5 && ?v < 100"))
        step = report.plans[0].steps[0]
        assert step.access == "NUMERIC(val)"
        assert [render_expression(e) for e in step.checks] == \
            [f"?v != {Literal('5', datatype=XSD.integer).n3()}"]
        assert report.rows == 3  # -inf, 7.5 and 10

    def test_fulltext_candidates_keep_their_check(self, movie_store):
        report = SparqlEngine(movie_store).explain(
            f'SELECT ?e WHERE {{ ?e {RDFS.label.n3()} ?l '
            f'FILTER CONTAINS(?l, "Nolan") }}')
        step = report.plans[0].steps[0]
        assert step.access.startswith("FULLTEXT(")
        assert step.checks == step.filters != []

    def test_nan_bound_is_no_range(self):
        nan = f'"NaN"^^<{XSD.double}>'
        store = self.store()
        for condition in (f"?v < {nan}", f"?v >= 0 && ?v < {nan}"):
            query = self.query(condition)
            report = SparqlEngine(store).explain(query)
            assert report.rows == 0
            assert SparqlEngine(store, planner="parse").select(query) == []
        assert report.plans[0].steps[0].checks != []


class TestLiteralSubject:
    """A literal in subject position matches nothing, under either
    planner and at any shard count (it used to crash the estimator)."""

    @pytest.mark.parametrize("shards", (0, 2))
    @pytest.mark.parametrize("body", [
        '"a" <http://x/p> <http://x/o>',
        '"a" <http://x/p> ?o',
        '"a" ?p ?o',
        '?s <http://x/p> <http://x/o> . "a" <http://x/p> ?s',
    ])
    def test_literal_constant_subject_matches_nothing(self, shards, body):
        triples = [Triple(X.a, X.p, X.o), Triple(X.b, X.p, X.a)]
        store = ShardedTripleStore(triples, shards=shards) if shards \
            else TripleStore(triples)
        query = f"SELECT * WHERE {{ {body} }}"
        assert SparqlEngine(store).select(query) == []
        assert SparqlEngine(store, planner="parse").select(query) == []
        assert SparqlEngine(store).ask(f"ASK {{ {body} }}") is False

    def test_explain_shows_an_empty_access(self):
        store = TripleStore([Triple(X.a, X.p, X.o)])
        report = SparqlEngine(store).explain(
            'SELECT * WHERE { "a" <http://x/p> <http://x/o> }')
        assert report.plans[0].steps[0].access == "empty(s)"
        assert report.plans[0].steps[0].estimate == 0
