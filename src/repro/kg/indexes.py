"""Secondary indexes: full-text tokens and numeric ranges (survey §5.2/§7).

The store's SPO/POS/OSP hash maps answer *exact* term lookups; the two
query shapes they cannot accelerate are substring search over labels and
descriptions (``FILTER(CONTAINS(?label, "graph"))``) and range predicates
over typed literals (``FILTER(?year >= 2020)``). Both are staples of the
agentic GraphRAG workloads the roadmap targets, so this module maintains
them as *secondary* indexes, off the mutation path:

* **Epoch-keyed laziness.** Nothing is updated on ``add``/``remove``.
  Each index holds one *segment* per backing store — per shard for a
  :class:`~repro.kg.sharding.ShardedTripleStore`, a single segment
  otherwise — each valid for its backing store's ``epoch``
  (:class:`~repro.core.memo.Segments`). A read revalidates cheaply (one
  int compare per segment) and rebuilds only the segments whose shard
  actually mutated, so a write to shard k never cold-starts lookups
  served by the others.
* **Sound candidates, exact answers.** Full-text lookups return a
  *superset* of the matching triples (see
  :meth:`FullTextIndex.candidates` for the containment argument), and
  the SPARQL evaluator re-applies the pushed filter after every
  full-text extension. Numeric ranges are exact, so the range conjuncts
  folded into one are not re-checked per row; the group-end filter
  still applies them. Either way answers are exact and the index is a
  pure access-path optimization. Candidate lists are
  sorted by ``(object, subject)`` term key — the same order
  ``store.match(None, p, None)`` produces — so an index-backed plan is
  byte-identical to the scan it replaces.

Thread safety matches the KnowledgeGraph caches: one lock per index
guards segment swaps; stale reads rebuild outside the hot dict probes.
A segment is built and then never mutated, so a reader never pairs one
build's postings with another build's text.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.memo import Segments
from repro.kg.store import TripleStore, _term_key
from repro.kg.triples import IRI, Literal, RDFS, Term, Triple, XSD

#: Datatypes the numeric index and the SPARQL evaluator's comparisons
#: treat as numbers: one set, so the NUMERIC access path stays sound.
NUMERIC_DATATYPES = frozenset(
    {XSD.integer, XSD.decimal, XSD.double, XSD.float, XSD.gYear})

#: Predicates the full-text index covers by default: the label and
#: description properties every verbalization path reads.
DEFAULT_TEXT_PREDICATES: Tuple[IRI, ...] = (RDFS.label, RDFS.comment)

_TOKEN = re.compile(r"[a-z0-9]+")

#: The ``(object, subject)`` term key of a numeric entry.
_sort_key = itemgetter(1)


def _backing_stores(store: TripleStore) -> Sequence[TripleStore]:
    """The independently-stamped stores behind ``store``.

    A sharded façade exposes its sub-stores via ``shards``; anything else
    is its own single segment.
    """
    shards = getattr(store, "shards", None)
    if shards:
        return tuple(shards)
    return (store,)


def _text_of(term: Term) -> str:
    """The searchable text of a term (mirrors SPARQL ``STR``)."""
    if isinstance(term, Literal):
        return term.lexical
    return term.value


def tokenize(text: str) -> List[str]:
    """Lower-cased maximal alphanumeric runs of ``text``."""
    return _TOKEN.findall(text.lower())


def indexable_needle(needle: str) -> Optional[str]:
    """The token-safe form of a CONTAINS needle, or ``None``.

    Only needles that lower-case to a single alphanumeric run can be
    answered from token postings: such a needle can never span a token
    boundary, so every triple whose text contains it (case-sensitively
    or not) has at least one token containing its lower-cased form —
    the postings union is a complete candidate superset.
    """
    lowered = needle.lower()
    return lowered if _TOKEN.fullmatch(lowered) else None


class _TokenText(NamedTuple):
    """One predicate's token postings, searchable with ``str.find``.

    ``text`` is ``"\\n" + "\\n".join(tokens)``; token ``i`` starts at
    ``starts[i]`` and ``postings[i]`` maps the ``(object, subject)`` term
    key of each triple containing it to the triple.
    """

    postings: Tuple[Dict[tuple, Triple], ...]
    text: str
    starts: Tuple[int, ...]


class _TextSegment:
    """Token postings for one backing store, one record per predicate."""

    __slots__ = ("records",)

    def __init__(self, backing: TripleStore, predicates: Sequence[IRI]):
        records: Dict[IRI, _TokenText] = {}
        for predicate in predicates:
            by_token: Dict[str, Dict[tuple, Triple]] = {}
            for triple in backing.match(None, predicate, None):
                key = (_term_key(triple.object), _term_key(triple.subject))
                for token in set(tokenize(_text_of(triple.object))):
                    by_token.setdefault(token, {})[key] = triple
            starts: List[int] = []
            offset = 1
            for token in by_token:
                starts.append(offset)
                offset += len(token) + 1
            records[predicate] = _TokenText(
                tuple(by_token.values()), "\n" + "\n".join(by_token),
                tuple(starts))
        self.records = records


class FullTextIndex:
    """A token index over label/description-style text predicates.

    ``candidates(predicate, needle)`` answers "which triples *might*
    satisfy ``CONTAINS(STR(?o), needle)``" from postings instead of a
    predicate scan. The caller must re-check the filter — candidates are
    a superset whenever the needle is token-safe (case-insensitive
    containment is implied by case-sensitive containment).
    """

    def __init__(self, store: TripleStore,
                 predicates: Sequence[IRI] = DEFAULT_TEXT_PREDICATES):
        self.store = store
        self.predicates: Tuple[IRI, ...] = tuple(predicates)
        self._segments = Segments(
            lambda backing: _TextSegment(backing, self.predicates))

    def covers(self, predicate: IRI) -> bool:
        """Whether ``predicate`` is one of the indexed text properties."""
        return predicate in self.predicates

    def segments(self) -> List[_TextSegment]:
        """The segments of the current backing stores (stale ones rebuilt)."""
        return self._segments.values(_backing_stores(self.store))

    def candidates(self, predicate: IRI, needle: str) -> Optional[List[Triple]]:
        """Triples that may satisfy ``CONTAINS`` of ``needle``, or ``None``.

        ``None`` means the index cannot answer (uncovered predicate or a
        needle that is not a single alphanumeric run) and the caller must
        fall back to a scan. The returned list is sorted by
        ``(object, subject)`` term key — identical to the order of
        ``store.match(None, predicate, None)`` restricted to candidates.
        """
        token_needle = indexable_needle(needle)
        if token_needle is None or not self.covers(predicate):
            return None
        out: Dict[tuple, Triple] = {}
        for segment in self.segments():
            postings, text, starts = segment.records[predicate]
            # The needle has no "\n", so every hit lies inside one token;
            # resuming at the next token's start visits each token once.
            hit = text.find(token_needle)
            while hit >= 0:
                token = bisect_right(starts, hit) - 1
                out.update(postings[token])
                if token + 1 == len(starts):
                    break
                hit = text.find(token_needle, starts[token + 1])
        return [out[key] for key in sorted(out)]

    def stats(self) -> Dict[str, int]:
        """Cardinalities and maintenance counters for ``repro kg stats``."""
        segments = self.segments()
        records = [record for segment in segments
                   for record in segment.records.values()]
        tokens = sum(len(record.starts) for record in records)
        entries = sum(len(triples) for record in records
                      for triples in record.postings)
        return {"segments": len(segments), "tokens": tokens,
                "entries": entries, "predicates": len(self.predicates),
                "rebuilds": self._segments.rebuilds,
                "hits": self._segments.hits}


class _NumericSegment:
    """Per-predicate sorted numeric entries for one backing store."""

    __slots__ = ("entries", "values", "key_ordered")

    def __init__(self, backing: TripleStore):
        # predicate -> list of (value, sort_key, triple) sorted by value
        # then by (object, subject) term key for deterministic ties.
        entries: Dict[IRI, List[Tuple[float, tuple, Triple]]] = {}
        for triple in backing:
            obj = triple.object
            if not isinstance(obj, Literal) or \
                    obj.datatype not in NUMERIC_DATATYPES:
                continue
            try:
                value = float(obj.lexical)
            except ValueError:
                continue  # the evaluator rejects these rows too
            if value != value:
                continue  # NaN satisfies no range comparison
            key = (_term_key(obj), _term_key(triple.subject))
            entries.setdefault(triple.predicate, []).append(
                (value, key, triple))
        for rows in entries.values():
            rows.sort(key=lambda row: (row[0], row[1]))
        self.entries = entries
        # predicate -> the entries' values alone, the list ranges bisect
        # (``bisect``'s ``key=`` needs Python 3.10).
        self.values: Dict[IRI, List[float]] = {
            predicate: [row[0] for row in rows]
            for predicate, rows in entries.items()}
        # The predicates whose entries are in term-key order as well (e.g.
        # years, whose lexical order is their numeric order): any range of
        # them is already in the order ``range_triples`` returns.
        self.key_ordered = frozenset(
            predicate for predicate, rows in entries.items()
            if all(rows[i][1] < rows[i + 1][1]
                   for i in range(len(rows) - 1)))

    def span(self, predicate: IRI, low: Optional[float],
             high: Optional[float], include_low: bool,
             include_high: bool) -> Tuple[int, int]:
        """``entries[predicate][lo:hi]`` is the range; ``lo >= hi`` when
        it is empty (a contradictory range gives ``lo > hi``)."""
        values = self.values.get(predicate, ())
        lo = 0
        if low is not None:
            lo = (bisect_left if include_low else bisect_right)(values, low)
        hi = len(values)
        if high is not None:
            hi = (bisect_right if include_high else bisect_left)(values, high)
        return lo, hi


class NumericIndex:
    """A range index over numerically-typed literal objects.

    Supports ``FILTER(?o < n)``-style pushes: ``range_triples`` returns
    exactly the triples whose object parses as a number within the
    bounds. Rows the evaluator would reject (unparseable lexicals, NaN,
    non-numeric datatypes, IRIs) are never indexed, so the candidate set
    equals the filter-satisfying set for the numeric comparison itself.
    The evaluator therefore skips the pushed range check on a NUMERIC
    step; the group-end filter, which applies every original conjunct,
    is what re-applies it.
    """

    def __init__(self, store: TripleStore):
        self.store = store
        self._segments = Segments(_NumericSegment)

    def segments(self) -> List[_NumericSegment]:
        """The segments of the current backing stores (stale ones rebuilt)."""
        return self._segments.values(_backing_stores(self.store))

    def range_triples(self, predicate: IRI,
                      low: Optional[float] = None,
                      high: Optional[float] = None,
                      include_low: bool = True,
                      include_high: bool = True) -> List[Triple]:
        """Triples of ``predicate`` whose numeric object lies in range.

        Sorted by ``(object, subject)`` term key — the order a
        ``match(None, predicate, None)`` scan filtered to the range
        would produce — so index-backed plans stay byte-identical.
        """
        selected: List[Tuple[float, tuple, Triple]] = []
        in_order = True
        for segment in self.segments():
            lo, hi = segment.span(predicate, low, high,
                                  include_low, include_high)
            if lo < hi:
                # In order only when one key-ordered segment supplies rows.
                in_order = not selected and predicate in segment.key_ordered
                selected.extend(segment.entries[predicate][lo:hi])
        if not in_order:
            selected.sort(key=_sort_key)
        return [row[2] for row in selected]

    def range_count(self, predicate: IRI,
                    low: Optional[float] = None,
                    high: Optional[float] = None,
                    include_low: bool = True,
                    include_high: bool = True) -> int:
        """Cardinality of :meth:`range_triples` without materializing."""
        total = 0
        for segment in self.segments():
            lo, hi = segment.span(predicate, low, high,
                                  include_low, include_high)
            total += max(0, hi - lo)
        return total

    def stats(self) -> Dict[str, int]:
        """Cardinalities and maintenance counters for ``repro kg stats``."""
        segments = self.segments()
        entries = sum(len(rows)
                      for segment in segments
                      for rows in segment.entries.values())
        predicates = len({p for segment in segments for p in segment.entries})
        return {"segments": len(segments), "entries": entries,
                "predicates": predicates,
                "rebuilds": self._segments.rebuilds,
                "hits": self._segments.hits}
