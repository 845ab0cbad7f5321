"""Evaluator: solve the algebra against a :class:`TripleStore`.

Solutions are immutable-ish dicts mapping variable names to terms. BGPs
are solved pattern by pattern in the order the
:mod:`repro.sparql.planner` cost planner picks; OPTIONAL is a left join
that runs its group once over all outer rows; UNION concatenates
alternative solution bags.

Execution works on terms. A pattern with a constant IRI predicate and
a constant end is a semi-join for the rows that know its other end: the
step reads one membership test off the store
(:meth:`~repro.kg.store.TripleStore.membership`) and keeps those rows
in order. Rows that leave an end free are extended with
``objects(s, p)`` / ``subjects(p, o)`` (one end known) or ``match`` /
index candidates (both free), routed exactly like the ``match`` they
replace; an index step with no per-row checks (an exact NUMERIC step)
followed by a semi-join on its subject drops the failing candidates
before it builds their rows. Each FILTER expression compiles once per
call into a closure (:func:`compile_filter`) with its constants
pre-converted.

``SparqlEngine(planner=…)`` takes one of two values:

* ``"cost"`` (default) — cardinality estimates from store statistics,
  filter push-down, and secondary-index access paths (full-text /
  numeric). Every caller runs this planner; it exposes
  :meth:`SparqlEngine.explain`.
* ``"parse"`` — patterns in syntactic order with no reordering at all,
  through the same join step and filters. The reference oracle that
  tests and benchmarks compare the cost planner's results (as
  multisets) and speed against.
"""

from __future__ import annotations

import operator
import re
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.kg.indexes import NUMERIC_DATATYPES, FullTextIndex, NumericIndex
from repro.kg.store import TripleStore
from repro.kg.triples import IRI, Literal, Term, Triple, XSD
from repro.sparql import algebra as alg
from repro.sparql.optimizer import conjuncts
from repro.sparql.parser import parse_query
from repro.sparql.planner import (BgpPlan, CostPlanner, ExplainReport,
                                  range_parts)

Solution = Dict[str, Term]


class SparqlEvaluationError(ValueError):
    """Raised on type errors during evaluation (bad comparisons etc.)."""


_PLANNER_MODES = ("cost", "parse")


class _QueryState:
    """What one ``select``/``ask``/``explain`` call accumulates.

    ``plans`` memoises BGP plans by ``(id(bgp), bound variables)`` and
    ``tests`` compiled filters by ``id(expression)``; the parsed query
    outlives the call, so the ids stay unique. Neither may outlive the
    call: engines are shared across threads and queries, and a later
    query's BGP or expression may reuse a freed id. ``explain`` collects
    every distinct plan when an EXPLAIN is running.
    """

    __slots__ = ("plans", "tests", "explain")

    def __init__(self, explain: bool = False):
        self.plans: Dict[Tuple[int, frozenset], BgpPlan] = {}
        self.tests: Dict[int, Callable[[Solution], bool]] = {}
        self.explain: Optional[List[BgpPlan]] = [] if explain else None

    def keep(self, solutions: List[Solution],
             expression: alg.Expression) -> List[Solution]:
        """The solutions that pass ``FILTER(expression)``."""
        test = self.tests.get(id(expression))
        if test is None:
            test = self.tests[id(expression)] = compile_filter(expression)
        return [s for s in solutions if test(s)]


class SparqlEngine:
    """Execute parsed (or textual) queries against a triple store.

    ``planner`` selects the BGP join order (see the module docstring).
    The cost planner reads lazily-maintained full-text and numeric
    secondary indexes; pass ``fulltext``/``numeric`` to share index
    instances across engines over the same store.
    """

    def __init__(self, store: TripleStore, planner: str = "cost",
                 fulltext=None, numeric=None):
        if planner not in _PLANNER_MODES:
            raise ValueError(
                f"unknown planner mode {planner!r}; use one of "
                f"{', '.join(_PLANNER_MODES)}")
        self.store = store
        self.mode = planner
        self.planner: Optional[CostPlanner] = None
        if planner == "cost":
            self.planner = CostPlanner(
                store,
                fulltext if fulltext is not None else FullTextIndex(store),
                numeric if numeric is not None else NumericIndex(store))

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def select(self, query: Union[str, alg.SelectQuery]) -> List[Solution]:
        """Run a SELECT query, returning the list of solution bindings.

        Each solution maps variable *names* (no ``?``) to terms. Projection,
        DISTINCT, ORDER BY, LIMIT/OFFSET and COUNT are applied here.
        """
        parsed = parse_query(query) if isinstance(query, str) else query
        if not isinstance(parsed, alg.SelectQuery):
            raise SparqlEvaluationError("select() requires a SELECT query")
        solutions = self._eval_group(parsed.where, [{}], _QueryState())
        return self._apply_modifiers(parsed, solutions)

    def ask(self, query: Union[str, alg.AskQuery]) -> bool:
        """Run an ASK query."""
        parsed = parse_query(query) if isinstance(query, str) else query
        if isinstance(parsed, alg.SelectQuery):
            # Tolerate SELECT where ASK was expected: truthiness of results.
            return bool(self.select(parsed))
        return bool(self._eval_group(parsed.where, [{}], _QueryState()))

    def execute(self, query: str) -> Union[List[Solution], bool]:
        """Parse and run a query of either form."""
        parsed = parse_query(query)
        if isinstance(parsed, alg.SelectQuery):
            return self.select(parsed)
        return self.ask(parsed)

    def explain(self, query: Union[str, alg.SelectQuery]) -> ExplainReport:
        """Run a SELECT query collecting its plans; an ``ExplainReport``.

        The query *is executed* so the report carries actual
        cardinalities next to the estimates (the EXPLAIN ANALYZE shape).
        A ``planner="parse"`` engine has no plan to show and raises.
        """
        if self.planner is None:
            raise SparqlEvaluationError(
                "explain() needs the cost planner, not planner='parse'")
        parsed = parse_query(query) if isinstance(query, str) else query
        if not isinstance(parsed, alg.SelectQuery):
            raise SparqlEvaluationError("explain() requires a SELECT query")
        state = _QueryState(explain=True)
        solutions = self._eval_group(parsed.where, [{}], state)
        results = self._apply_modifiers(parsed, solutions)
        store_name = type(self.store).__name__
        shards = getattr(self.store, "shard_count", None)
        if shards:
            store_name += f"[{shards} shards]"
        return ExplainReport(mode=self.mode, store=store_name,
                             plans=state.explain, rows=len(results))

    # ------------------------------------------------------------------
    # Pattern evaluation
    # ------------------------------------------------------------------
    def _eval_group(self, group: alg.GroupPattern, solutions: List[Solution],
                    state: _QueryState) -> List[Solution]:
        filters: List[alg.Filter] = []
        for element in group.elements:
            if isinstance(element, alg.Filter):
                filters.append(element)
        # The cost planner gets the group's filter conjuncts for
        # push-down. Pushed conjuncts prune mid-join; the originals are
        # still applied at group end below (idempotent on rows that
        # survived the push), so semantics cannot drift.
        pushable: List[alg.Expression] = []
        if self.planner is not None:
            for filt in filters:
                pushable.extend(conjuncts(filt.expression))
        for element in group.elements:
            if isinstance(element, alg.BGP):
                solutions = self._eval_bgp(element, solutions, pushable, state)
            elif isinstance(element, alg.OptionalPattern):
                solutions = self._eval_optional(element, solutions, state)
            elif isinstance(element, alg.UnionPattern):
                merged: List[Solution] = []
                for alternative in element.alternatives:
                    merged.extend(self._eval_group(
                        alternative, [dict(s) for s in solutions], state))
                solutions = merged
            elif isinstance(element, alg.GroupPattern):
                solutions = self._eval_group(element, solutions, state)
            elif isinstance(element, alg.Filter):
                pass  # applied after the group's joins, below
            else:  # pragma: no cover - parser prevents this
                raise SparqlEvaluationError(f"unknown pattern element {element!r}")
        for filt in filters:
            solutions = state.keep(solutions, filt.expression)
        return solutions

    def _eval_optional(self, optional: alg.OptionalPattern,
                       solutions: List[Solution],
                       state: _QueryState) -> List[Solution]:
        """The left join of ``solutions`` with the OPTIONAL group.

        The group runs once over every outer row, each row tagged with
        its index under a key no SPARQL variable can spell (one key per
        OPTIONAL, so nested ones keep theirs apart). Every operator keeps
        its input order per row, so regrouping the extensions by tag
        keeps the outer rows' order; a row with no extension is kept as
        it was. When all outer rows bind the same variables, each row's
        extensions also come in the order a run over that row alone
        would give.
        """
        if not solutions:
            return []
        tag = f"\0optional{id(optional)}"
        tagged = []
        for index, solution in enumerate(solutions):
            row = dict(solution)
            row[tag] = index
            tagged.append(row)
        extensions: List[List[Solution]] = [[] for _ in solutions]
        for row in self._eval_group(optional.pattern, tagged, state):
            extensions[row.pop(tag)].append(row)
        out: List[Solution] = []
        for solution, extended in zip(solutions, extensions):
            if extended:
                out.extend(extended)
            else:
                out.append(solution)
        return out

    def _eval_bgp(self, bgp: alg.BGP, solutions: List[Solution],
                  pushable: List[alg.Expression],
                  state: _QueryState) -> List[Solution]:
        if self.planner is None:
            # The reference oracle: syntactic order, no reordering.
            for pattern in bgp.patterns:
                solutions = self._extend(solutions, pattern)
                if not solutions:
                    return []
            return solutions
        # Variables bound in *every* incoming row. Filter push-down must
        # use the intersection, not the union: a filter on a variable
        # only some rows carry could otherwise fire before a later step
        # binds it for the rest, dropping rows the group-end application
        # would have kept.
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
        steps = plan.steps
        produced = 0
        for index, step in enumerate(steps):
            # A step after a fold runs as if handed the unfolded rows.
            if not solutions and not produced:
                break
            candidates = step.candidates()
            produced = 0
            if candidates and not step.checks and index + 1 < len(steps):
                folded = self._fold(step.pattern, steps[index + 1].pattern,
                                    candidates, solutions)
                if folded is not None:
                    # EXPLAIN counts the rows the unfolded step builds.
                    produced = len(solutions) * len(candidates)
                    candidates = folded
            solutions = self._extend(solutions, step.pattern, candidates)
            step.actual = produced or len(solutions)
            for expr in step.checks:
                solutions = state.keep(solutions, expr)
            step.rows = produced or len(solutions)
        plan.output_rows = len(solutions)
        return solutions

    def _fold(self, pattern: alg.TriplePattern,
              following: alg.TriplePattern, candidates: List[Triple],
              solutions: List[Solution]) -> Optional[List[Triple]]:
        """The candidates of ``pattern`` whose rows ``following`` keeps.

        ``None`` unless ``following`` is a semi-join on the subject the
        candidates bind (a constant IRI predicate and object) and every
        row leaves ``pattern``'s subject and object free, so that each
        row builds one solution per candidate. The next step still runs
        and keeps every row built from the folded candidates. Only a
        step without checks folds: its ``rows`` must count the
        candidates the next step drops.
        """
        s_var, o_var = pattern.subject.name, pattern.object.name
        p, o = following.predicate, following.object
        if following.subject != pattern.subject or not isinstance(p, IRI) \
                or isinstance(o, alg.Var):
            return None
        for solution in solutions:
            if s_var in solution or o_var in solution:
                return None
        keep = self.store.membership(None, p, o)
        return [t for t in candidates if keep(t[0])]

    def _extend(self, solutions: List[Solution], pattern: alg.TriplePattern,
                candidates: Optional[List[Triple]] = None) -> List[Solution]:
        """Join ``solutions`` with the matches of one triple pattern.

        A pattern with a constant IRI predicate and distinct subject and
        object positions joins on terms. A row that knows both ends is a
        semi-join: it is kept, in place, when it passes a membership
        test (:meth:`~repro.kg.store.TripleStore.membership`). With a
        constant end the test is read once for the whole step; with two
        variable ends, once per such row from its subject. A row that
        knows one end gets ``objects(s, p)`` or ``subjects(p, o)`` (the
        order ``match`` gives), and one that knows neither the store
        ``match`` — or ``candidates``; each of these reads is the one
        ``match`` would have made, through the same shard routing. Other
        patterns take the general slot-by-slot loop.

        ``candidates`` are index-provided triples (a plan step's access
        path) that replace the store ``match`` for rows where subject
        and object are both still free; they are sorted exactly like the
        scan they replace, and they are either exactly the triples the
        step's folded range conjuncts keep (NUMERIC) or a superset that
        the step's checks filter (FULLTEXT), so the substitution is
        invisible in the results. :meth:`_fold` may have dropped the
        candidates whose rows the next step would drop.
        """
        s_slot, p, o_slot = pattern.subject, pattern.predicate, pattern.object
        if alg.is_path(p):
            return self._extend_path(solutions, pattern)
        if not isinstance(p, IRI) or (isinstance(s_slot, alg.Var)
                                      and s_slot == o_slot):
            return self._extend_general(solutions, pattern)
        store = self.store
        s_var = s_slot.name if isinstance(s_slot, alg.Var) else None
        o_var = o_slot.name if isinstance(o_slot, alg.Var) else None
        if s_var is None:
            member = store.membership(s_slot, p, None)
        elif o_var is None:
            member = store.membership(None, p, o_slot)
        else:
            member = None
        out: List[Solution] = []
        for solution in solutions:
            s = solution.get(s_var) if s_var else s_slot
            o = solution.get(o_var) if o_var else o_slot
            if s is not None and not isinstance(s, IRI):
                continue  # literals cannot be subjects
            if s is not None and o is not None:
                if member is None:
                    if store.membership(s, p, None)(o):
                        out.append(solution)
                elif member(o if s_var is None else s):
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

    def _extend_general(self, solutions: List[Solution],
                        pattern: alg.TriplePattern) -> List[Solution]:
        """``_extend`` for a variable predicate or a repeated variable."""
        out: List[Solution] = []
        for solution in solutions:
            s = self._resolve(pattern.subject, solution)
            p = self._resolve(pattern.predicate, solution)
            o = self._resolve(pattern.object, solution)
            s_bound = None if isinstance(s, alg.Var) else s
            p_bound = None if isinstance(p, alg.Var) else p
            o_bound = None if isinstance(o, alg.Var) else o
            if s_bound is not None and not isinstance(s_bound, IRI):
                continue  # literals cannot be subjects
            if p_bound is not None and not isinstance(p_bound, IRI):
                continue
            for triple in self.store.match(s_bound, p_bound, o_bound):
                new_solution = dict(solution)
                consistent = True
                for slot, value in ((s, triple.subject), (p, triple.predicate), (o, triple.object)):
                    if isinstance(slot, alg.Var):
                        existing = new_solution.get(slot.name)
                        if existing is None:
                            new_solution[slot.name] = value
                        elif existing != value:
                            consistent = False
                            break
                if consistent:
                    out.append(new_solution)
        return out

    @staticmethod
    def _resolve(term: alg.PatternTerm, solution: Solution) -> alg.PatternTerm:
        if isinstance(term, alg.Var) and term.name in solution:
            return solution[term.name]
        return term

    # ------------------------------------------------------------------
    # Property paths
    # ------------------------------------------------------------------
    def _extend_path(self, solutions: List[Solution],
                     pattern: alg.TriplePattern) -> List[Solution]:
        out: List[Solution] = []
        for solution in solutions:
            s = self._resolve(pattern.subject, solution)
            o = self._resolve(pattern.object, solution)
            s_bound = s if isinstance(s, IRI) else None
            if isinstance(s, Literal):
                continue
            o_bound = None if isinstance(o, alg.Var) else o
            for subject_term, object_term in self._path_pairs(
                    pattern.predicate, s_bound, o_bound):
                new_solution = dict(solution)
                consistent = True
                for slot, value in ((pattern.subject, subject_term),
                                    (pattern.object, object_term)):
                    if isinstance(slot, alg.Var):
                        existing = new_solution.get(slot.name)
                        if existing is None:
                            new_solution[slot.name] = value
                        elif existing != value:
                            consistent = False
                            break
                if consistent:
                    out.append(new_solution)
        return out

    def _path_pairs(self, path, subject: Optional[IRI],
                    obj: Optional[Term]) -> List[Tuple[IRI, Term]]:
        """(subject, object) pairs satisfying ``path``, restricted by the
        bound ends (``None`` = unbound). Deterministic order."""
        if isinstance(path, IRI):
            return [(t.subject, t.object)
                    for t in self.store.match(subject, path, obj)]
        if isinstance(path, alg.InversePath):
            inner_subject = obj if isinstance(obj, IRI) else None
            pairs = self._path_pairs(path.path, inner_subject,
                                     subject)
            swapped = [(o, s) for s, o in pairs if isinstance(o, IRI)]
            if obj is not None and not isinstance(obj, IRI):
                return []
            return swapped
        if isinstance(path, alg.SequencePath):
            pairs = self._path_pairs(path.parts[0], subject, None)
            for part in path.parts[1:-1]:
                next_pairs: List[Tuple[IRI, Term]] = []
                seen = set()
                for start, middle in pairs:
                    if not isinstance(middle, IRI):
                        continue
                    for _, end in self._path_pairs(part, middle, None):
                        key = (start, end)
                        if key not in seen:
                            seen.add(key)
                            next_pairs.append(key)
                pairs = next_pairs
            if len(path.parts) > 1:
                last = path.parts[-1]
                final: List[Tuple[IRI, Term]] = []
                seen = set()
                for start, middle in pairs:
                    if not isinstance(middle, IRI):
                        continue
                    for _, end in self._path_pairs(last, middle, obj):
                        key = (start, end)
                        if key not in seen:
                            seen.add(key)
                            final.append(key)
                pairs = final
            if obj is not None:
                pairs = [(s, o) for s, o in pairs if o == obj]
            return pairs
        if isinstance(path, alg.OneOrMorePath):
            return self._closure_pairs(path.path, subject, obj,
                                       include_identity=False)
        if isinstance(path, alg.ZeroOrMorePath):
            return self._closure_pairs(path.path, subject, obj,
                                       include_identity=True)
        raise SparqlEvaluationError(f"unsupported property path {path!r}")

    def _closure_pairs(self, base, subject: Optional[IRI],
                       obj: Optional[Term],
                       include_identity: bool) -> List[Tuple[IRI, Term]]:
        if subject is not None:
            starts: List[IRI] = [subject]
        elif isinstance(obj, IRI):
            # Evaluate backwards from the object, then swap.
            inverse = alg.InversePath(base)
            backwards = self._closure_pairs(inverse, obj, None,
                                            include_identity)
            return [(o, s) for s, o in backwards
                    if isinstance(o, IRI) and (subject is None or o == subject)]
        else:
            starts = sorted({s for s, _ in self._path_pairs(base, None, None)},
                            key=lambda e: e.value)
        out: List[Tuple[IRI, Term]] = []
        for start in starts:
            reached: List[Term] = []
            visited = set()
            frontier: List[IRI] = [start]
            while frontier:
                node = frontier.pop(0)
                for _, nxt in self._path_pairs(base, node, None):
                    if nxt in visited:
                        continue
                    visited.add(nxt)
                    reached.append(nxt)
                    if isinstance(nxt, IRI):
                        frontier.append(nxt)
            if include_identity:
                reached = [start] + [r for r in reached if r != start]
            for term in reached:
                if obj is None or term == obj:
                    out.append((start, term))
        return out

    # ------------------------------------------------------------------
    # Modifiers
    # ------------------------------------------------------------------
    def _apply_modifiers(self, query: alg.SelectQuery,
                         solutions: List[Solution]) -> List[Solution]:
        if query.count is not None:
            return self._apply_count(query, solutions)
        if query.variables:
            names = [v.name for v in query.variables]
            exact = tuple(names)
            # A row that already holds exactly the projection, in its
            # order, is its own projection.
            solutions = [s if tuple(s) == exact else
                         {n: s[n] for n in names if n in s}
                         for s in solutions]
        if query.distinct:
            seen = set()
            unique = []
            for s in solutions:
                key = tuple(sorted(s.items()))
                if key not in seen:
                    seen.add(key)
                    unique.append(s)
            solutions = unique
        for condition in reversed(query.order_by):
            solutions.sort(
                key=lambda s, c=condition: _sort_key(s.get(c.var.name)),
                reverse=condition.descending,
            )
        if query.offset:
            solutions = solutions[query.offset:]
        if query.limit is not None:
            solutions = solutions[: query.limit]
        return solutions

    def _apply_count(self, query: alg.SelectQuery,
                     solutions: List[Solution]) -> List[Solution]:
        aggregate = query.count
        assert aggregate is not None

        def count_bucket(bucket: List[Solution]) -> Literal:
            if aggregate.var is None:
                values: Iterable = bucket
                n = len(bucket)
            else:
                extracted = [s[aggregate.var.name] for s in bucket if aggregate.var.name in s]
                if aggregate.distinct:
                    n = len(set(extracted))
                else:
                    n = len(extracted)
            return Literal(str(n), datatype=XSD.integer)

        group_by = query.group_by or query.variables
        if not group_by:
            return [{aggregate.alias.name: count_bucket(solutions)}]
        buckets: Dict[tuple, List[Solution]] = {}
        for s in solutions:
            key = tuple(s.get(v.name) for v in group_by)
            buckets.setdefault(key, []).append(s)
        out = []
        for key in sorted(buckets, key=lambda k: tuple(_sort_key(t) for t in k)):
            row: Solution = {}
            for var, value in zip(group_by, key):
                if value is not None:
                    row[var.name] = value
            row[aggregate.alias.name] = count_bucket(buckets[key])
            out.append(row)
        return out


# ----------------------------------------------------------------------
# Filters: each expression compiles once per query into a closure
# ----------------------------------------------------------------------
Evaluate = Callable[[Solution], object]


def compile_filter(expression: alg.Expression) -> Callable[[Solution], bool]:
    """``FILTER(expression)`` as a predicate over solutions.

    An evaluation error (an unbound variable, an ordering across types, a
    bad numeric lexical, an unknown function) makes the filter false,
    separately on each side of ``&&``/``||`` and under ``!``. Constants
    are converted once, here, not per row.
    """
    if isinstance(expression, alg.BoolOp):
        left = compile_filter(expression.left)
        right = compile_filter(expression.right)
        if expression.op == "&&":
            return lambda s: left(s) and right(s)
        return lambda s: left(s) or right(s)
    if isinstance(expression, alg.NotOp):
        operand = compile_filter(expression.operand)
        return lambda s: not operand(s)
    value = _compile_value(expression)

    def test(solution: Solution) -> bool:
        try:
            return _effective_boolean(value(solution))
        except SparqlEvaluationError:
            return False

    ranged = range_parts(expression)
    if ranged is None:
        return test
    # ``?v OP number``: a numeric literal compares as a float right here;
    # every other binding (unbound, IRI, string, bad lexical) takes the
    # general path above.
    name, op, bound = ranged
    ordering = _ORDERINGS[op]

    def in_range(solution: Solution) -> bool:
        term = solution.get(name)
        if term.__class__ is Literal and term.datatype in NUMERIC_DATATYPES:
            try:
                return ordering(float(term.lexical), bound)
            except ValueError:
                return False
        return test(solution)
    return in_range


def _fail(message: str) -> Evaluate:
    """An evaluator that always raises (the error is per row, not per
    query: a filter over no rows never fails)."""
    def evaluate(solution: Solution):
        raise SparqlEvaluationError(message)
    return evaluate


def _compile_value(expression: alg.Expression) -> Evaluate:
    """The value of an expression; raises ``SparqlEvaluationError``."""
    if isinstance(expression, alg.TermExpr):
        term = expression.term
        return lambda s: term
    if isinstance(expression, alg.VarExpr):
        name = expression.var.name

        def variable(solution: Solution):
            value = solution.get(name)
            if value is None:
                raise SparqlEvaluationError(f"unbound variable ?{name}")
            return value
        return variable
    if isinstance(expression, (alg.BoolOp, alg.NotOp)):
        return compile_filter(expression)
    if isinstance(expression, alg.Comparison):
        return _compile_comparison(expression)
    if isinstance(expression, alg.FunctionCall):
        return _compile_call(expression)
    return _fail(f"unknown expression {expression!r}")


_ORDERINGS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
              "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _compile_operand(expression: alg.Expression) -> Evaluate:
    """A comparison operand as its comparable value (numbers as floats)."""
    if isinstance(expression, alg.TermExpr):
        try:
            constant = _comparable(expression.term)
        except SparqlEvaluationError as exc:
            return _fail(str(exc))
        return lambda s: constant
    value = _compile_value(expression)
    return lambda s: _comparable(value(s))


def _compile_comparison(comparison: alg.Comparison) -> Evaluate:
    op = comparison.op
    ordering = _ORDERINGS.get(op)
    if ordering is None:
        return _fail(f"unknown comparison operator {op}")
    left = _compile_operand(comparison.left)
    right = _compile_operand(comparison.right)

    def compare(solution: Solution) -> bool:
        left_value = left(solution)
        right_value = right(solution)
        if type(left_value) is not type(right_value) and not (
                isinstance(left_value, (int, float))
                and isinstance(right_value, (int, float))):
            if op == "=":
                return False
            if op == "!=":
                return True
            raise SparqlEvaluationError(
                f"cannot order {left_value!r} against {right_value!r}")
        return ordering(left_value, right_value)
    return compare


def _str(value) -> Literal:
    if isinstance(value, IRI):
        return Literal(value.value)
    if isinstance(value, Literal):
        return Literal(value.lexical)
    return Literal(str(value))


def _lang(value) -> Literal:
    if isinstance(value, Literal):
        return Literal(value.language or "")
    raise SparqlEvaluationError("LANG expects a literal")


def _regex(text, pattern, flags=None) -> bool:
    mode = re.IGNORECASE if flags is not None and \
        "i" in _string_value(flags) else 0
    return re.search(_string_value(pattern), _string_value(text),
                     mode) is not None


#: Builtins over argument values: (least, most arguments, function).
#: Arguments past ``most`` are ignored.
_BUILTINS: Dict[str, Tuple[int, int, Callable]] = {
    "STR": (1, 1, _str),
    "LANG": (1, 1, _lang),
    "REGEX": (2, 3, _regex),
    "CONTAINS": (2, 2, lambda a, b: _string_value(b) in _string_value(a)),
    "STRSTARTS": (2, 2, lambda a, b: _string_value(a).startswith(
        _string_value(b))),
    "STRENDS": (2, 2, lambda a, b: _string_value(a).endswith(
        _string_value(b))),
    "LCASE": (1, 1, lambda a: Literal(_string_value(a).lower())),
    "UCASE": (1, 1, lambda a: Literal(_string_value(a).upper())),
    "ISIRI": (1, 1, lambda a: isinstance(a, IRI)),
    "ISLITERAL": (1, 1, lambda a: isinstance(a, Literal)),
}


def _compile_call(call: alg.FunctionCall) -> Evaluate:
    name, args = call.name, call.args
    if name == "BOUND":
        if not args or not isinstance(args[0], alg.VarExpr):
            return _fail("BOUND expects a variable")
        variable = args[0].var.name
        return lambda s: variable in s
    if name not in _BUILTINS:
        return _fail(f"unsupported function {name}")
    least, most, function = _BUILTINS[name]
    if len(args) < least:
        return _fail(f"{name} expects {least} arguments, got {len(args)}")
    values = [_compile_value(arg) for arg in args[:most]]
    if len(values) == 1:
        only = values[0]
        return lambda s: function(only(s))
    if len(values) == 2:
        first, second = values
        return lambda s: function(first(s), second(s))
    return lambda s: function(*[value(s) for value in values])


def _comparable(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, Literal):
        if value.datatype in NUMERIC_DATATYPES:
            try:
                number = float(value.lexical)
            except ValueError as exc:
                raise SparqlEvaluationError(f"bad numeric literal {value!r}") from exc
            return number
        return value.lexical
    if isinstance(value, IRI):
        return value
    raise SparqlEvaluationError(f"cannot compare {value!r}")


def _string_value(value) -> str:
    if isinstance(value, Literal):
        return value.lexical
    if isinstance(value, IRI):
        return value.value
    if isinstance(value, bool):
        return "true" if value else "false"
    raise SparqlEvaluationError(f"expected a string-ish value, got {value!r}")


def _effective_boolean(value) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, Literal):
        if value.datatype == XSD.boolean:
            return value.lexical in ("true", "1")
        if value.datatype in NUMERIC_DATATYPES:
            try:
                return float(value.lexical) != 0.0
            except ValueError:
                return False
        return bool(value.lexical)
    if isinstance(value, IRI):
        return True
    return bool(value)


def _sort_key(term: Optional[Term]):
    if term is None:
        return (0, 0.0, "")
    if isinstance(term, Literal):
        if term.datatype in NUMERIC_DATATYPES:
            try:
                return (1, float(term.lexical), "")
            except ValueError:
                return (2, 0.0, term.lexical)
        return (2, 0.0, term.lexical)
    return (3, 0.0, term.value)

