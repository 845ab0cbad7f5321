"""Cost-based join-order planning for BGP evaluation (survey §5.2).

Syntactic join ordering (more bound positions first) is blind to
cardinalities: a pattern with one bound position matching two triples
should run before one with two bound positions matching twenty
thousand. This module supplies the three pieces the evaluator's one
planner is built from:

* :class:`StoreStatistics` — per-predicate cardinalities read off the
  store's own indexes (``predicate_stats``), cached per store ``epoch``.
* :class:`CostPlanner` — cheapest-estimated-cardinality-first join
  ordering with filter push-down (a filter conjunct is applied at the
  earliest step after which all of its variables are bound) and secondary
  index access paths: token postings for ``CONTAINS`` filters over label/
  description predicates, and sorted numeric arrays for the one
  ``[low, high]`` range every comparison on the object variable
  intersects to.
* :class:`ExplainReport` — the ``EXPLAIN`` rendering: per-step access
  path, estimated vs. actual cardinality, and pushed filters, the format
  DESIGN §10 documents.

Plans never change semantics: FULLTEXT candidates are supersets
re-checked by the pushed filter, NUMERIC candidates are exactly the
triples their folded range conjuncts accept, candidate order matches the
scan order the step replaces, and the evaluator re-applies every group
filter at group end. Planning is cheap: statistics are dict probes after
the first query per store epoch, index candidates are materialized
only for the step that uses them, and the evaluator memoises plans per
(BGP, bound variables) for the duration of one query, so bindings
flowing in from outer groups inform the ordering. Each plan runs once
per query, an OPTIONAL group's over all of its outer rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.memo import Memo
from repro.kg.indexes import (NUMERIC_DATATYPES, FullTextIndex, NumericIndex,
                              indexable_needle)
from repro.kg.store import TripleStore
from repro.kg.triples import IRI, Literal, Triple
from repro.sparql import algebra as alg

#: Comparison operators the numeric index can serve (the variable side
#: induces the range bounds; ``=`` degenerates to a point range).
_RANGE_OPS = {"<", "<=", ">", ">=", "="}


def expression_variables(expression: alg.Expression) -> Set[str]:
    """Names of every variable mentioned in a filter expression."""
    out: Set[str] = set()
    if isinstance(expression, alg.VarExpr):
        out.add(expression.var.name)
    elif isinstance(expression, (alg.Comparison, alg.BoolOp)):
        out |= expression_variables(expression.left)
        out |= expression_variables(expression.right)
    elif isinstance(expression, alg.NotOp):
        out |= expression_variables(expression.operand)
    elif isinstance(expression, alg.FunctionCall):
        for arg in expression.args:
            out |= expression_variables(arg)
    return out


def render_expression(expression: alg.Expression) -> str:
    """A compact SPARQL-ish rendering of a filter expression."""
    if isinstance(expression, alg.TermExpr):
        return expression.term.n3()
    if isinstance(expression, alg.VarExpr):
        return f"?{expression.var.name}"
    if isinstance(expression, alg.Comparison):
        return (f"{render_expression(expression.left)} {expression.op} "
                f"{render_expression(expression.right)}")
    if isinstance(expression, alg.BoolOp):
        return (f"({render_expression(expression.left)} {expression.op} "
                f"{render_expression(expression.right)})")
    if isinstance(expression, alg.NotOp):
        return f"!({render_expression(expression.operand)})"
    if isinstance(expression, alg.FunctionCall):
        args = ", ".join(render_expression(a) for a in expression.args)
        return f"{expression.name}({args})"
    return repr(expression)


def render_pattern(pattern: alg.TriplePattern) -> str:
    """A compact rendering of a triple pattern."""
    def term(value) -> str:
        if isinstance(value, alg.Var):
            return f"?{value.name}"
        if alg.is_path(value):
            return repr(value)
        return value.n3()
    return " ".join(term(t) for t in
                    (pattern.subject, pattern.predicate, pattern.object))


class StoreStatistics:
    """Cardinality statistics over a store, cached per store ``epoch``.

    All numbers come from the store's own hash indexes (O(#predicates)
    to collect), so refreshing after a mutation is cheap relative to one
    non-trivial query. The sharded façade aggregates its shards into the
    same schema, so plans are identical at every shard count.
    """

    def __init__(self, store: TripleStore):
        self.store = store
        self._memo = Memo(attrgetter("epoch"), 1)

    @property
    def refreshes(self) -> int:
        """How many times the statistics were collected."""
        return self._memo.misses

    def _stats(self) -> Tuple[Dict[IRI, Dict[str, int]], int]:
        return self._memo.get(self.store, None, _collect_stats)

    def total(self) -> int:
        """Total triple count."""
        return self._stats()[1]

    def predicate(self, predicate: IRI) -> Optional[Dict[str, int]]:
        """``{count, subjects, objects}`` for a predicate, else ``None``."""
        return self._stats()[0].get(predicate)

    def predicate_count(self) -> int:
        """Number of distinct predicates."""
        return len(self._stats()[0])


def _collect_stats(store: TripleStore
                   ) -> Tuple[Dict[IRI, Dict[str, int]], int]:
    return store.predicate_stats(), len(store)


@dataclass
class PlanStep:
    """One join step of a BGP plan.

    ``estimate`` is the planner's cardinality guess for the pattern at
    the point it was chosen; ``actual``/``rows`` are filled in during
    execution (solutions after the extension, then after pushed
    filters). ``fetch`` is set when a secondary access path was selected:
    it produces the index-provided triples, which :meth:`candidates`
    materializes on first use. ``filters`` are the conjuncts pushed to
    this step, as EXPLAIN shows them; ``checks`` are the ones the
    evaluator applies after it. They differ only on an exact NUMERIC
    step: its range conjuncts hold for every candidate, so they are not
    checked again per row.
    """

    pattern: alg.TriplePattern
    access: str
    estimate: float
    filters: List[alg.Expression] = field(default_factory=list)
    checks: List[alg.Expression] = field(default_factory=list)
    fetch: Optional[Callable[[], List[Triple]]] = None
    actual: Optional[int] = None
    rows: Optional[int] = None
    _candidates: Optional[List[Triple]] = field(default=None, repr=False)

    def candidates(self) -> Optional[List[Triple]]:
        """Index-provided triples for this step (``None``: scan the store)."""
        if self._candidates is None and self.fetch is not None:
            self._candidates = self.fetch()
        return self._candidates

    def render(self, index: int) -> List[str]:
        """Render this step (and its pushed filters) as EXPLAIN lines."""
        est = f"{self.estimate:.0f}"
        actual = "-" if self.actual is None else str(self.actual)
        lines = [f"  {index}. {render_pattern(self.pattern)}"
                 f"  [access={self.access} est={est} actual={actual}]"]
        for expr in self.filters:
            rows = "-" if self.rows is None else str(self.rows)
            lines.append(f"     + pushed FILTER {render_expression(expr)}"
                         f"  [rows={rows}]")
        return lines


@dataclass
class BgpPlan:
    """An ordered plan for one basic graph pattern.

    A plan runs once per query over all of its incoming rows (an
    OPTIONAL group too: it is one left join over every outer row).
    """

    steps: List[PlanStep]
    prefilters: List[alg.Expression] = field(default_factory=list)
    input_rows: Optional[int] = None
    output_rows: Optional[int] = None


@dataclass
class ExplainReport:
    """What ``EXPLAIN`` renders: every BGP plan the query executed."""

    mode: str
    store: str
    plans: List[BgpPlan] = field(default_factory=list)
    rows: Optional[int] = None

    def render(self) -> str:
        """Render the full EXPLAIN output, one line per plan element."""
        lines = [f"QUERY PLAN  (planner={self.mode}, store={self.store})"]
        for number, plan in enumerate(self.plans, start=1):
            header = f"BGP {number}"
            if plan.input_rows is not None:
                header += f"  [in={plan.input_rows} out={plan.output_rows}]"
            lines.append(header)
            for expr in plan.prefilters:
                lines.append(f"  pre FILTER {render_expression(expr)}")
            for index, step in enumerate(plan.steps, start=1):
                lines.extend(step.render(index))
        if self.rows is not None:
            lines.append(f"rows: {self.rows}")
        return "\n".join(lines)


def _contains_parts(expression: alg.Expression
                    ) -> Optional[Tuple[str, str]]:
    """``(var, needle)`` for ``CONTAINS(?v, "…")``-shaped filters.

    Accepts a bare variable or ``STR(?v)`` as the haystack; the needle
    must be a constant literal.
    """
    if not isinstance(expression, alg.FunctionCall) or \
            expression.name != "CONTAINS" or len(expression.args) != 2:
        return None
    haystack, needle = expression.args
    if isinstance(haystack, alg.FunctionCall) and haystack.name == "STR" \
            and len(haystack.args) == 1:
        haystack = haystack.args[0]
    if not isinstance(haystack, alg.VarExpr):
        return None
    if not isinstance(needle, alg.TermExpr) or \
            not isinstance(needle.term, Literal):
        return None
    return haystack.var.name, needle.term.lexical


def range_parts(expression: alg.Expression
                ) -> Optional[Tuple[str, str, float]]:
    """``(var, op, bound)`` for ``?v OP number`` comparisons.

    ``op`` is normalized so the variable is on the left. Only constants
    with a numeric datatype and a parseable lexical qualify (anything
    else the evaluator would reject row-by-row anyway). The planner sizes
    NUMERIC ranges from these, and compiled filters compare on them.
    """
    if not isinstance(expression, alg.Comparison) or \
            expression.op not in _RANGE_OPS:
        return None
    left, right = expression.left, expression.right
    op = expression.op
    if isinstance(right, alg.VarExpr) and isinstance(left, alg.TermExpr):
        left, right = right, left
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}[op]
    if not (isinstance(left, alg.VarExpr) and isinstance(right, alg.TermExpr)):
        return None
    term = right.term
    if not isinstance(term, Literal) or term.datatype not in NUMERIC_DATATYPES:
        return None
    try:
        bound = float(term.lexical)
    except ValueError:
        return None
    if bound != bound:
        return None  # a NaN bound holds for no value and bounds no range
    return left.var.name, op, bound


class CostPlanner:
    """Cost-based BGP planning with filter push-down.

    Each round estimates every remaining pattern's result cardinality
    given the variables bound so far, picks the cheapest (ties broken by
    :func:`render_pattern`, so plans are deterministic), binds its variables,
    and attaches every not-yet-attached filter conjunct whose variables
    are now all bound. Secondary indexes are consulted when a pattern's
    object variable carries a pushable ``CONTAINS`` or numeric range
    conjunct and subject and object are distinct free variables.
    """

    def __init__(self, store: TripleStore,
                 fulltext: Optional[FullTextIndex] = None,
                 numeric: Optional[NumericIndex] = None):
        self.store = store
        self.statistics = StoreStatistics(store)
        self.fulltext = fulltext
        self.numeric = numeric

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def _estimate(self, pattern: alg.TriplePattern,
                  bound: Set[str]) -> Tuple[float, str]:
        """(cardinality estimate, access-path label) for one pattern."""
        stats = self.statistics
        s, p, o = pattern.subject, pattern.predicate, pattern.object
        if alg.is_path(p):
            # Paths bypass the planner's arithmetic; schedule them late.
            return float(max(stats.total(), 1)) * 2.0, "path"
        s_const = not isinstance(s, alg.Var)
        p_const = not isinstance(p, alg.Var)
        o_const = not isinstance(o, alg.Var)
        s_bound = isinstance(s, alg.Var) and s.name in bound
        p_bound = isinstance(p, alg.Var) and p.name in bound
        o_bound = isinstance(o, alg.Var) and o.name in bound

        if s_const and not isinstance(s, IRI):
            return 0.0, "empty(s)"  # a literal subject matches nothing
        pstats = stats.predicate(p) if p_const else None
        if p_const and pstats is None:
            return 0.0, "empty(p)"

        if s_const and p_const and o_const:
            return float(self.store.match_count(s, p, o)), "membership"
        if s_const and p_const:
            base = float(self.store.match_count(s, p, None))
            access = "SPO(s,p)"
            if o_bound:
                base /= max(1, pstats["objects"])
        elif p_const and o_const:
            base = float(self.store.match_count(None, p, o))
            access = "POS(p,o)"
            if s_bound:
                base /= max(1, pstats["subjects"])
        elif p_const:
            base = float(pstats["count"])
            access = "POS(p)"
            if s_bound:
                base /= max(1, pstats["subjects"])
                access = "SPO(s,p)/row"  # probed per row once s is bound
            if o_bound:
                base /= max(1, pstats["objects"])
                if not s_bound:
                    access = "POS(p,o)/row"
        elif s_const:
            base = float(self.store.match_count(s, None, None))
            access = "SPO(s)"
            if p_bound:
                base /= max(1, stats.predicate_count())
            if o_bound:
                base = min(base, 1.0) if base else 0.0
        elif o_const:
            base = float(self.store.match_count(None, None, o))
            access = "OSP(o)"
            if p_bound:
                base /= max(1, stats.predicate_count())
            if s_bound:
                base = min(base, 1.0) if base else 0.0
        else:
            base = float(stats.total())
            access = "scan"
            divisor = 1
            for flag in (s_bound, p_bound, o_bound):
                if flag:
                    divisor *= 2
            base /= divisor
        return base, access

    def _index_access(self, pattern: alg.TriplePattern, bound: Set[str],
                      available: Sequence[alg.Expression]
                      ) -> Optional[Tuple[str, float,
                                          Callable[[], List[Triple]],
                                          List[alg.Expression]]]:
        """A secondary access path for the pattern, if one applies.

        Requires a constant predicate and *free* subject/object variables
        (so candidates bind them fresh — the order-identity argument in
        :mod:`repro.kg.indexes` relies on it) plus a pushable conjunct
        over the object variable. A ``CONTAINS`` conjunct selects the
        FULLTEXT postings; otherwise every range conjunct on the object
        variable is intersected into one NUMERIC ``[low, high]`` range.
        Returns ``(access, estimate, fetch, folded)``; a numeric range is
        only counted here, and ``fetch`` materializes its triples if the
        step is chosen and executed. ``folded`` lists the conjuncts every
        candidate satisfies: the range conjuncts of a NUMERIC access,
        whose candidates are exactly the triples in range, and none for
        FULLTEXT, whose candidates are a superset.
        """
        s, p, o = pattern.subject, pattern.predicate, pattern.object
        if not isinstance(p, IRI):
            return None
        if not isinstance(s, alg.Var) or s.name in bound:
            return None
        if not isinstance(o, alg.Var) or o.name in bound or o == s:
            return None
        low = high = None
        include_low = include_high = True
        folded: List[alg.Expression] = []
        for expr in available:
            contains = _contains_parts(expr)
            if contains is not None and self.fulltext is not None:
                var, needle = contains
                if var == o.name and indexable_needle(needle) is not None:
                    candidates = self.fulltext.candidates(p, needle)
                    if candidates is not None:
                        return (f"FULLTEXT({p.local_name})",
                                float(len(candidates)), lambda: candidates,
                                [])
            parts = range_parts(expr)
            if parts is None or parts[0] != o.name:
                continue
            folded.append(expr)
            _, op, value = parts
            # The tighter bound wins; at equal values, exclusive beats
            # inclusive (``?v > 3 && ?v >= 3`` is ``?v > 3``).
            if op in (">", ">=", "="):
                inclusive = op != ">"
                if low is None or value > low or \
                        (value == low and not inclusive):
                    low, include_low = value, inclusive
            if op in ("<", "<=", "="):
                inclusive = op != "<"
                if high is None or value < high or \
                        (value == high and not inclusive):
                    high, include_high = value, inclusive
        if (low is None and high is None) or self.numeric is None:
            return None
        bounds = (p, low, high, include_low, include_high)
        count = self.numeric.range_count(*bounds)
        return (f"NUMERIC({p.local_name})", float(count),
                lambda: self.numeric.range_triples(*bounds), folded)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan_bgp(self, patterns: Sequence[alg.TriplePattern],
                 bound: Set[str],
                 filters: Sequence[alg.Expression] = ()) -> BgpPlan:
        """An ordered, filter-annotated plan for one BGP.

        ``bound`` holds variable names already bound by the incoming
        solutions; ``filters`` are the group's filter conjuncts (each may
        be attached to at most one step — the earliest whose completion
        binds all of its variables; the evaluator still re-applies every
        original filter at group end, so attachment is pure pruning).
        """
        bound = set(bound)
        pending = list(filters)
        prefilters = [f for f in pending
                      if expression_variables(f) <= bound]
        pending = [f for f in pending if f not in prefilters]
        # An index access path stays valid exactly while the pattern's
        # subject and object are free, and no conjunct over a free
        # variable can be attached before then: look each one up once.
        remaining = [(pattern, self._index_access(pattern, bound, pending))
                     for pattern in patterns]
        steps: List[PlanStep] = []
        broadcast = len(getattr(self.store, "shards", ()) or ()) or None
        while remaining:
            best = None
            for entry in remaining:
                pattern, indexed = entry
                estimate, access = self._estimate(pattern, bound)
                fetch, folded = None, ()
                if indexed is not None and indexed[1] <= estimate and \
                        pattern.subject.name not in bound and \
                        pattern.object.name not in bound:
                    access, estimate, fetch, folded = indexed
                if broadcast and fetch is None and \
                        access.startswith(("POS", "OSP", "scan")):
                    access += f"@broadcast({broadcast})"
                if best is None or estimate < best[1] or (
                        estimate == best[1] and
                        render_pattern(pattern) < render_pattern(best[0][0])):
                    best = (entry, estimate, access, fetch, folded)
            entry, estimate, access, fetch, folded = best
            remaining.remove(entry)
            pattern = entry[0]
            bound.update(v.name for v in pattern.variables())
            step = PlanStep(pattern=pattern, access=access,
                            estimate=estimate, fetch=fetch)
            attached: List[alg.Expression] = []
            for expr in pending:
                if expression_variables(expr) <= bound:
                    step.filters.append(expr)
                    if not any(expr is f for f in folded):
                        step.checks.append(expr)
                    attached.append(expr)
            pending = [f for f in pending if f not in attached]
            steps.append(step)
        return BgpPlan(steps=steps, prefilters=prefilters)
