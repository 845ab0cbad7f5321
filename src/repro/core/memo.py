"""One read token and one memo rule for every derived read.

A derived read — a label looked up in a store, a subgraph rendered for a
prompt, a text grounded against a lexicon — is worth remembering only
while the state it was derived from holds. Each such state carries an
*epoch* from :func:`next_epoch`: one process-wide counter, so no two
states, of one object or of two, ever share a value. A store takes one at
construction and at every effective write; a lexicon at every change.

:class:`Memo` applies the one rule every derived read follows:

* the token is read before computing;
* a result computed under a token that has since moved is returned but
  never stored, so a write racing the computation cannot leave it behind;
* a token move empties the memo (an invalidation), and so does filling
  it to its bound (evictions);
* hits, misses, evictions and invalidations are counted in the
  :func:`~repro.core.observability.cache_stats_dict` schema.

:class:`Segments` is the same rule per backing store: one one-entry memo
per shard, each on its own shard's epoch, so a write to one shard
rebuilds one segment.

An epoch's value depends on how many stores and lexicons the process made
before, so it is compared for equality only and never written to any
output.
"""

from __future__ import annotations

import itertools
import threading
from operator import attrgetter
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence

from repro.core.observability import cache_stats_dict

__all__ = ["Memo", "Segments", "next_epoch"]

#: A fresh epoch: every call returns a value no earlier call returned.
next_epoch: Callable[[], int] = itertools.count(1).__next__

_MISS = object()


def _no_token(source: Any) -> None:
    """The token of values that depend on their key alone."""
    return None


class Memo:
    """A bounded map that is valid for one token.

    ``token(source)`` is the token of the state a lookup reads (say
    ``attrgetter("epoch")`` of a store); without a ``token`` the values
    are pure functions of their keys and only the bound empties the memo.
    ``limit=None`` leaves it unbounded. One lock settles each lookup, and
    the token is read under it; ``compute`` runs outside it, so threads
    may share a memo.
    """

    __slots__ = ("_token", "limit", "_current", "_data", "_lock", "hits",
                 "misses", "evictions", "invalidations")

    def __init__(self, token: Optional[Callable[[Any], Hashable]] = None,
                 limit: Optional[int] = None):
        self._token = token or _no_token
        self.limit = limit
        self._current: Any = None
        self._data: Dict = {}
        self._lock = threading.Lock()
        self.hits = self.misses = self.evictions = self.invalidations = 0

    def get(self, source: Any, key: Hashable, compute: Callable, *args):
        """The value for ``key`` in ``source``'s current state, computing
        it as ``compute(source, *args)`` on a miss."""
        # acquire/release, not ``with``: half the cost on the hit path.
        lock = self._lock
        lock.acquire()
        try:
            token = self._token(source)
            if token != self._current:
                if self._current is not None:
                    self.invalidations += 1
                    self.evictions += len(self._data)
                self._data = {}
                self._current = token
            value = self._data.get(key, _MISS)
            if value is not _MISS:
                self.hits += 1
                return value
        finally:
            lock.release()
        value = compute(source, *args)
        lock.acquire()
        try:
            if self._token(source) == token == self._current:
                found = self._data.get(key, _MISS)
                if found is not _MISS:  # a racing thread stored it first
                    self.hits += 1
                    return found
                if self.limit is not None and len(self._data) >= self.limit:
                    self.evictions += len(self._data)
                    self._data = {}
                self._data[key] = value
            self.misses += 1
        finally:
            lock.release()
        return value

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def items(self) -> List:
        """The remembered ``(key, value)`` pairs, oldest first."""
        with self._lock:
            return list(self._data.items())

    def clear(self) -> None:
        """Forget every value (counted as evictions)."""
        with self._lock:
            self.evictions += len(self._data)
            self._data = {}

    def stats(self) -> Dict[str, float]:
        """The counters in the canonical cache-stats schema."""
        with self._lock:
            return cache_stats_dict(
                hits=self.hits, misses=self.misses,
                evictions=self.evictions, invalidations=self.invalidations,
                size=len(self._data), max_size=self.limit or 0)


_epoch = attrgetter("epoch")


class Segments:
    """One derived value per backing store, each a one-entry :class:`Memo`
    on its store's epoch.

    ``build(backing)`` derives one segment. :meth:`values` returns the
    segments of the given backing stores, rebuilding only those whose
    store moved. A lookup that rebuilt nothing is a hit; ``rebuilds``
    counts segment builds.
    """

    def __init__(self, build: Callable[[Any], Any]):
        self._build = build
        self._lock = threading.Lock()
        self._memos: List[Memo] = []
        self.hits = self.misses = self.rebuilds = 0

    def _rebuild(self, backing: Any) -> Any:
        self.rebuilds += 1
        return self._build(backing)

    def values(self, backings: Sequence) -> List:
        """The segments of ``backings``, in order."""
        lock = self._lock
        lock.acquire()
        try:
            if len(self._memos) != len(backings):
                self._memos = [Memo(_epoch, 1) for _ in backings]
            rebuilds = self.rebuilds
            values = [memo.get(backing, None, self._rebuild)
                      for memo, backing in zip(self._memos, backings)]
            if self.rebuilds == rebuilds:
                self.hits += 1
            else:
                self.misses += 1
            return values
        finally:
            lock.release()
