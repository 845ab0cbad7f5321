"""Replicated shard serving: partition-tolerant reads over the hash shards.

The sharded store (:mod:`repro.kg.sharding`) parallelizes reads but keeps
every shard in-process: one dead shard stalls every broadcast. This module
adds the distributed half of the story in the repo's deterministic,
no-wall-clock style:

* :class:`TransportProfile` / :class:`ShardTransport` — a *simulated*
  network between the read path and each (shard, replica) endpoint.
  Latency, slow tails, drops, timeouts and full partitions are a pure
  function of ``(seed, shard, replica, op, per-endpoint call index)`` —
  the same discipline as ``FaultProfile`` — so every chaos run replays
  byte-identically at any worker count.
* :class:`ReplicatedShardedTripleStore` — each of the N hash shards
  backed by R replicas (replica 0 *is* the primary sub-store; followers
  are kept consistent by shipping the primary's WAL records through the
  transport). Reads route through per-(shard, replica) circuit breakers,
  fire a hedged backup request when the first replica is slower than the
  profile's seeded p99 threshold, and fail over across replicas. When a
  shard loses read quorum the store degrades to stale-but-versioned
  reads: results are served from a lagging follower and flagged (or, in
  ``strict`` mode, rejected with :class:`StaleReadError`); a shard with
  no reachable replica raises :class:`ShardUnavailableError`. Both are
  :class:`~repro.core.resilience.ResilienceError` subclasses, so the
  serving gateway's tier ladder and the agent's tools degrade instead of
  erroring.
* **Anti-entropy** — a partitioned follower accumulates pending WAL
  records; :meth:`ReplicatedShardedTripleStore.heal` re-ships them once
  the partition lifts and :meth:`verify_replicas` proves the healed
  follower byte-identical (same N-Triples lines, same order) to its
  primary.

Nothing here sleeps or opens sockets; "the network" is seeded arithmetic
charged to the read's simulated latency, which is exactly what makes the
availability and hedging claims gateable in CI.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.observability import percentile, resolve_obs
from repro.core.resilience import CircuitBreaker, ResilienceError, _stable_unit
from repro.kg.sharding import DEFAULT_SHARDS, ShardedTripleStore
from repro.kg.store import TripleStore
from repro.kg.triples import Triple
from repro.kg.wal import WalRecord, apply_record

__all__ = [
    "PartitionWindow", "ReplicaUnreachableError", "ReplicatedShardedTripleStore",
    "ReplicationError", "ShardTransport", "ShardUnavailableError",
    "StaleReadError", "TransportProfile", "load_schedule_jsonl",
]


# ----------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------
class ReplicationError(ResilienceError):
    """Base class for replicated-read failures.

    Subclassing :class:`ResilienceError` is load-bearing: the serving
    gateway catches that base on tier 0 and falls through to a degraded
    tier instead of failing the request.
    """


class ReplicaUnreachableError(ReplicationError):
    """One (shard, replica) endpoint failed a simulated transport call."""

    def __init__(self, shard: int, replica: int, kind: str,
                 simulated_latency: float):
        super().__init__(
            f"shard {shard} replica {replica} unreachable ({kind})")
        self.shard = shard
        self.replica = replica
        self.kind = kind
        self.simulated_latency = simulated_latency


class ShardUnavailableError(ReplicationError):
    """No replica of a shard could serve the read (not even stale)."""

    def __init__(self, shard: int,
                 attempts: Iterable[Tuple[int, str]] = ()):
        attempts = list(attempts)
        detail = ", ".join(f"r{r}:{kind}" for r, kind in attempts) or "none"
        super().__init__(
            f"shard {shard} unavailable (attempts: {detail})")
        self.shard = shard
        self.attempts = attempts


class StaleReadError(ReplicationError):
    """Strict-consistency read refused: only lagging replicas reachable.

    Carries the version lag so a caller can decide whether the staleness
    is tolerable and retry under ``stale_ok``.
    """

    def __init__(self, shard: int, replica: int, lag: int,
                 applied_seq: int, committed_seq: int):
        super().__init__(
            f"shard {shard} replica {replica} is {lag} batch(es) stale "
            f"(applied seq {applied_seq} < committed seq {committed_seq})")
        self.shard = shard
        self.replica = replica
        self.lag = lag
        self.applied_seq = applied_seq
        self.committed_seq = committed_seq


# ----------------------------------------------------------------------
# Transport
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PartitionWindow:
    """A scheduled partition of one endpoint (or a wildcard set of them).

    ``shard``/``replica`` of ``None`` match every shard/replica; the
    window covers per-endpoint call indexes ``start <= index < stop``
    (``stop=None`` means "until restored"). Indexes — not wall clock —
    because per-endpoint call counts are the only time base that replays
    identically at every worker count.
    """

    shard: Optional[int] = None
    replica: Optional[int] = None
    start: int = 0
    stop: Optional[int] = None

    def covers(self, shard: int, replica: int, index: int) -> bool:
        """Whether this window cuts ``(shard, replica)`` at call ``index``."""
        if self.shard is not None and self.shard != shard:
            return False
        if self.replica is not None and self.replica != replica:
            return False
        if index < self.start:
            return False
        return self.stop is None or index < self.stop

    def to_dict(self) -> Dict[str, Any]:
        """Serialize the window for a fault-schedule JSONL record."""
        return {"type": "partition", "shard": self.shard,
                "replica": self.replica, "start": self.start,
                "stop": self.stop}


@dataclass(frozen=True)
class TransportOutcome:
    """What the simulated network did to one call."""

    status: str          # ok | drop | timeout | partition
    latency: float       # simulated seconds until response/detection

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True)
class TransportProfile:
    """Seeded distribution of latency and faults for the shard network.

    Per-call behaviour is a pure function of ``(seed, shard, replica,
    op, index)``: base latency spread by ``jitter``, a ``tail_rate``
    fraction of calls multiplied into a slow tail, and independent
    ``drop_rate``/``timeout_rate`` failures that cost
    ``timeout_latency`` to detect. ``partitions`` adds scheduled
    windows during which an endpoint is fully unreachable.
    """

    seed: int = 0
    base_latency: float = 0.004
    jitter: float = 0.5
    tail_rate: float = 0.0
    tail_multiplier: float = 25.0
    drop_rate: float = 0.0
    timeout_rate: float = 0.0
    timeout_latency: float = 0.25
    partitions: Tuple[PartitionWindow, ...] = ()

    def hedge_threshold(self) -> float:
        """The seeded p99 proxy after which a hedged backup read fires.

        Non-tail latencies land in ``[base, base * (1 + jitter))``, so
        the upper edge separates the healthy distribution from tails and
        timeouts exactly — the profile's own "p99" with no measurement.
        """
        return self.base_latency * (1.0 + self.jitter)

    def outcome(self, shard: int, replica: int, op: str,
                index: int) -> TransportOutcome:
        """The deterministic fate of call ``index`` to one endpoint."""
        for window in self.partitions:
            if window.covers(shard, replica, index):
                return TransportOutcome("partition", self.timeout_latency)
        key = (str(self.seed), str(shard), str(replica), op, str(index))
        if self.drop_rate and _stable_unit("drop", *key) < self.drop_rate:
            return TransportOutcome("drop", self.timeout_latency)
        if self.timeout_rate and \
                _stable_unit("timeout", *key) < self.timeout_rate:
            return TransportOutcome("timeout", self.timeout_latency)
        latency = self.base_latency * (
            1.0 + self.jitter * _stable_unit("lat", *key))
        if self.tail_rate and _stable_unit("tail", *key) < self.tail_rate:
            latency *= self.tail_multiplier
        return TransportOutcome("ok", latency)

    def to_dict(self) -> Dict[str, Any]:
        """Serialize the profile for a fault-schedule JSONL record."""
        return {
            "type": "profile", "seed": self.seed,
            "base_latency": self.base_latency, "jitter": self.jitter,
            "tail_rate": self.tail_rate,
            "tail_multiplier": self.tail_multiplier,
            "drop_rate": self.drop_rate, "timeout_rate": self.timeout_rate,
            "timeout_latency": self.timeout_latency,
        }


class ShardTransport:
    """The simulated network in front of every (shard, replica) endpoint.

    Keeps one call counter per ``(shard, replica, op)`` endpoint — the
    deterministic time base for the profile — plus a set of *forced*
    partitions that tests, the chaos suite and the CLI flip mid-run
    (``force_partition``/``restore``). A faulted call raises
    :class:`ReplicaUnreachableError` **without** invoking the payload:
    a dropped message must not have applied its records.
    """

    def __init__(self, profile: Optional[TransportProfile] = None):
        self.profile = profile or TransportProfile()
        self._ops: Dict[Tuple[int, int, str], int] = {}
        self._forced: set = set()
        self._lock = threading.Lock()
        self.calls = 0
        self.ok = 0
        self.drops = 0
        self.timeouts = 0
        self.partitioned = 0

    def force_partition(self, shard: int, replica: int) -> None:
        """Cut one endpoint off until :meth:`restore` (chaos/CLI knob)."""
        with self._lock:
            self._forced.add((shard, replica))

    def restore(self, shard: int, replica: int) -> None:
        """Lift a forced partition from one ``(shard, replica)`` endpoint."""
        with self._lock:
            self._forced.discard((shard, replica))

    def restore_all(self) -> None:
        """Lift every forced partition (scheduled windows still apply)."""
        with self._lock:
            self._forced.clear()

    def forced_partitions(self) -> List[Tuple[int, int]]:
        """The currently forced ``(shard, replica)`` pairs, sorted."""
        with self._lock:
            return sorted(self._forced)

    def call(self, shard: int, replica: int, op: str,
             fn: Callable[[], Any]) -> Tuple[Any, float]:
        """Run ``fn`` "over the network": returns ``(value, latency)``.

        Raises :class:`ReplicaUnreachableError` (payload not invoked)
        when the profile or a forced partition fails the call.
        """
        with self._lock:
            key = (shard, replica, op)
            index = self._ops.get(key, 0)
            self._ops[key] = index + 1
            self.calls += 1
            forced = (shard, replica) in self._forced
        if forced:
            outcome = TransportOutcome("partition",
                                       self.profile.timeout_latency)
        else:
            outcome = self.profile.outcome(shard, replica, op, index)
        if not outcome.ok:
            with self._lock:
                if outcome.status == "drop":
                    self.drops += 1
                elif outcome.status == "timeout":
                    self.timeouts += 1
                else:
                    self.partitioned += 1
            raise ReplicaUnreachableError(shard, replica, outcome.status,
                                          outcome.latency)
        value = fn()
        with self._lock:
            self.ok += 1
        return value, outcome.latency

    def stats(self) -> Dict[str, int]:
        """Transport ledger: calls == ok + drops + timeouts + partitioned."""
        with self._lock:
            return {"calls": self.calls, "ok": self.ok,
                    "drops": self.drops, "timeouts": self.timeouts,
                    "partitioned": self.partitioned,
                    "forced_partitions": len(self._forced)}

    # ------------------------------------------------------------------
    # Fault-schedule JSONL (CI artifact / `serve replay --schedule`)
    # ------------------------------------------------------------------
    def export_schedule_jsonl(self, path: str) -> int:
        """Write the profile + partition schedule as one JSONL file.

        The first record is the profile; each further record is one
        scheduled window or currently forced partition. The file round-
        trips through :func:`load_schedule_jsonl`, so a chaos run's
        exact fault schedule can be archived by CI and replayed later.
        """
        records = [self.profile.to_dict()]
        records.extend(w.to_dict() for w in self.profile.partitions)
        for shard, replica in self.forced_partitions():
            records.append({"type": "forced", "shard": shard,
                            "replica": replica})
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return len(records)


def load_schedule_jsonl(path: str) -> Tuple[TransportProfile,
                                            List[Tuple[int, int]]]:
    """Read a fault schedule back: ``(profile, forced partitions)``.

    Raises :class:`ValueError` with a one-line message on a corrupt or
    misleading file — including a corrupt *first* record — so CLI
    callers can degrade to rc 2 without a traceback.
    """
    windows: List[PartitionWindow] = []
    forced: List[Tuple[int, int]] = []
    profile_fields: Optional[Dict[str, Any]] = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}: corrupt schedule record at line {lineno}: "
                    f"{exc.msg}") from exc
            if not isinstance(record, dict) or "type" not in record:
                raise ValueError(
                    f"{path}: schedule record at line {lineno} has no type")
            kind = record["type"]
            if kind == "profile":
                profile_fields = {k: v for k, v in record.items()
                                  if k != "type"}
            elif kind == "partition":
                windows.append(PartitionWindow(
                    shard=record.get("shard"), replica=record.get("replica"),
                    start=int(record.get("start", 0)),
                    stop=record.get("stop")))
            elif kind == "forced":
                forced.append((int(record["shard"]), int(record["replica"])))
            else:
                raise ValueError(
                    f"{path}: unknown schedule record type {kind!r} "
                    f"at line {lineno}")
    if profile_fields is None:
        raise ValueError(f"{path}: schedule has no profile record")
    try:
        profile = TransportProfile(partitions=tuple(windows),
                                   **profile_fields)
    except TypeError as exc:
        raise ValueError(f"{path}: bad profile record: {exc}") from exc
    return profile, forced


# ----------------------------------------------------------------------
# Replicated store
# ----------------------------------------------------------------------
class ReplicatedShardedTripleStore(ShardedTripleStore):
    """N hash shards × R replicas behind the full TripleStore contract.

    Replica 0 of each shard *is* the primary sub-store; followers are
    plain :class:`TripleStore` copies kept consistent by shipping the
    primary's WAL records (:class:`~repro.kg.wal.WalRecord`, applied via
    :func:`~repro.kg.wal.apply_record`) through the transport. Writes are
    coordinator-local — the façade is the primary — so partitions affect
    the *read* and *ship* paths, which is where availability is won.

    Read policy, per shard, in deterministic replica order (primary
    first):

    1. Skip replicas whose breaker is open (``allow()`` drives cooldown).
    2. Call the replica through the transport; a failure records on its
       breaker and fails over to the next replica.
    3. If the **first** transport attempt exceeds the profile's hedge
       threshold (its seeded p99), fire one backup read at the next
       allowed replica and take the race winner — capping tail latency
       and masking timeouts at the cost of one extra simulated call.
    4. A reachable replica that has applied every shipped batch is
       *fresh*: serve it. A lagging replica is remembered as the best
       stale candidate while fresher ones are tried.
    5. With no fresh replica: under ``stale_ok`` serve the stale
       candidate flagged with its version lag (``last_read``); under
       ``strict`` raise :class:`StaleReadError`. With *no* reachable
       replica at all raise :class:`ShardUnavailableError`. A read that
       finds fewer than ``read_quorum`` healthy replicas counts as a
       quorum loss in the stats either way.
    """

    def __init__(self, triples: Optional[Iterable[Triple]] = None, *,
                 shards: int = DEFAULT_SHARDS, replicas: int = 2,
                 profile: Optional[TransportProfile] = None,
                 transport: Optional[ShardTransport] = None,
                 executor=None, hedging: bool = True,
                 consistency: str = "stale_ok",
                 read_quorum: Optional[int] = None,
                 breaker_threshold: int = 2, breaker_cooldown: int = 16,
                 obs=None):
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        if consistency not in ("strict", "stale_ok"):
            raise ValueError(f"unknown consistency mode {consistency!r}")
        self.replica_count = replicas
        self.transport = transport or ShardTransport(profile)
        self.hedging = hedging
        self.consistency = consistency
        self.read_quorum = read_quorum or replicas // 2 + 1
        self.obs = resolve_obs(obs)
        self._followers: List[List[TripleStore]] = [
            [TripleStore() for _ in range(replicas - 1)]
            for _ in range(shards)]
        self._shard_seq = [0] * shards
        self._applied = [[0] * replicas for _ in range(shards)]
        self._pending: List[List[List[WalRecord]]] = [
            [[] for _ in range(replicas - 1)] for _ in range(shards)]
        self._breakers = [
            [CircuitBreaker(failure_threshold=breaker_threshold,
                            cooldown=breaker_cooldown,
                            name=f"kg.shard{i}.r{r}")
             for r in range(replicas)]
            for i in range(shards)]
        self._stats_lock = threading.Lock()
        self.reads = 0
        self.hedges_fired = 0
        self.hedge_wins = 0
        self.failovers = 0
        self.stale_reads = 0
        self.stale_rejections = 0
        self.quorum_losses = 0
        self.unavailable = 0
        self.ships = 0
        self.ship_failures = 0
        self.heals = 0
        self.read_latencies: List[float] = []
        self.last_read: Dict[str, Any] = {}
        super().__init__(triples, shards=shards, executor=executor)
        self.obs.register_source("kg.replication", self.replication_stats)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def replica_store(self, shard: int, replica: int) -> TripleStore:
        """The backing store of one replica (0 = the primary sub-store)."""
        if replica == 0:
            return self._shards[shard]
        return self._followers[shard][replica - 1]

    def breaker(self, shard: int, replica: int) -> CircuitBreaker:
        """The circuit breaker guarding ``(shard, replica)``."""
        return self._breakers[shard][replica]

    def breaker_states(self) -> List[List[str]]:
        """Per-shard breaker states, e.g. ``[["closed", "open"], ...]``."""
        return [[b.state for b in row] for row in self._breakers]

    def replica_lag(self, shard: int, replica: int) -> int:
        """How many committed records ``(shard, replica)`` has not applied."""
        return self._shard_seq[shard] - self._applied[shard][replica]

    # ------------------------------------------------------------------
    # Write path: WAL-record shipping
    # ------------------------------------------------------------------
    def _committed(self, op: str, triples: Iterable[Triple]) -> None:
        super()._committed(op, triples)
        lsn = self._version
        if op == "clear":
            groups: Dict[int, Tuple[Triple, ...]] = {
                i: () for i in range(len(self._shards))}
        else:
            by_shard: Dict[int, List[Triple]] = {}
            for t in triples:
                by_shard.setdefault(self.shard_index(t.subject), []).append(t)
            groups = {i: tuple(g) for i, g in by_shard.items()}
        for shard, group in groups.items():
            self._shard_seq[shard] += 1
            self._applied[shard][0] = self._shard_seq[shard]
            record = WalRecord(op, lsn, group)
            for replica in range(1, self.replica_count):
                self._pending[shard][replica - 1].append(record)
                self._ship(shard, replica)

    def _ship(self, shard: int, replica: int, *,
              bypass_breaker: bool = False) -> bool:
        """Ship every pending WAL record to one follower.

        The whole pending queue goes in one transport call, so a follower
        that rejoins after a partition catches up in one successful ship
        (this *is* the anti-entropy transfer). A faulted call applies
        nothing — the queue survives for the next attempt.
        """
        pending = self._pending[shard][replica - 1]
        if not pending:
            return True
        breaker = self._breakers[shard][replica]
        if not bypass_breaker and not breaker.allow():
            with self._stats_lock:
                self.ship_failures += 1
            return False
        store = self._followers[shard][replica - 1]

        def apply() -> int:
            for record in pending:
                apply_record(store, record)
            return len(pending)

        try:
            self.transport.call(shard, replica, "ship", apply)
        except ReplicaUnreachableError:
            breaker.record_failure()
            with self._stats_lock:
                self.ship_failures += 1
            return False
        if bypass_breaker:
            breaker.reset()
        else:
            breaker.record_success()
        self._applied[shard][replica] += len(pending)
        pending.clear()
        with self._stats_lock:
            self.ships += 1
        return True

    # ------------------------------------------------------------------
    # Anti-entropy
    # ------------------------------------------------------------------
    def heal(self) -> Dict[str, List[Tuple[int, int]]]:
        """One anti-entropy pass: re-ship to every lagging follower.

        Bypasses (and on success resets) the replica's breaker — the heal
        *is* the recovery probe. Returns which replicas healed and which
        are still lagging (endpoint still partitioned/faulted).
        """
        healed: List[Tuple[int, int]] = []
        lagging: List[Tuple[int, int]] = []
        for shard in range(len(self._shards)):
            for replica in range(1, self.replica_count):
                if not self._pending[shard][replica - 1]:
                    continue
                if self._ship(shard, replica, bypass_breaker=True):
                    healed.append((shard, replica))
                else:
                    lagging.append((shard, replica))
        with self._stats_lock:
            self.heals += 1
        if self.obs.enabled and healed:
            self.obs.count("kg.replica.healed", len(healed))
        return {"healed": healed, "lagging": lagging}

    def verify_replicas(self) -> List[Dict[str, Any]]:
        """Byte-level comparison of every follower against its primary.

        ``identical`` compares the full N-Triples serialization *in
        insertion order* — the same bytes a snapshot would write — so a
        healed follower is provably the same store, not just the same
        set.
        """
        out: List[Dict[str, Any]] = []
        for shard in range(len(self._shards)):
            primary_lines = [t.n3() for t in self._shards[shard]]
            for replica in range(1, self.replica_count):
                follower = self._followers[shard][replica - 1]
                lines = [t.n3() for t in follower]
                out.append({
                    "shard": shard, "replica": replica,
                    "identical": lines == primary_lines,
                    "lag": self.replica_lag(shard, replica),
                    "triples": len(lines),
                })
        return out

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    @contextmanager
    def reads_consistency(self, mode: str):
        """Temporarily switch the read-consistency mode (``strict`` /
        ``stale_ok``) — e.g. the gateway runs tier 0 strict and degraded
        tiers stale-tolerant."""
        if mode not in ("strict", "stale_ok"):
            raise ValueError(f"unknown consistency mode {mode!r}")
        previous = self.consistency
        self.consistency = mode
        try:
            yield self
        finally:
            self.consistency = previous

    def _attempt(self, shard: int, replica: int,
                 fn: Callable[[TripleStore], Any]
                 ) -> Tuple[bool, Any, float, str]:
        """One transport read against one replica, breaker-recorded."""
        breaker = self._breakers[shard][replica]
        store = self.replica_store(shard, replica)
        try:
            value, latency = self.transport.call(
                shard, replica, "read", lambda: fn(store))
        except ReplicaUnreachableError as exc:
            breaker.record_failure()
            return False, None, exc.simulated_latency, exc.kind
        breaker.record_success()
        return True, value, latency, "ok"

    def _next_allowed(self, shard: int, start: int) -> Optional[int]:
        """The next replica whose breaker admits a call (consumes the
        admission — the caller must attempt it)."""
        for replica in range(start, self.replica_count):
            if self._breakers[shard][replica].allow():
                return replica
        return None

    def _read(self, index: int, fn: Callable[[TripleStore], Any]):
        seq = self._shard_seq[index]
        threshold = self.transport.profile.hedge_threshold()
        total_latency = 0.0
        stale_best: Optional[Tuple[int, Any, int]] = None  # (lag, value, r)
        failures: List[Tuple[int, str]] = []
        hedge_armed = self.hedging and self.replica_count > 1
        replica = 0
        while replica < self.replica_count:
            breaker = self._breakers[index][replica]
            if not breaker.allow():
                failures.append((replica, "breaker-open"))
                replica += 1
                continue
            ok, value, latency, kind = self._attempt(index, replica, fn)
            served = replica
            if hedge_armed and latency > threshold:
                # First attempt is slower than the seeded p99 (slow tail
                # or a timeout still ticking): race one backup replica.
                hedge_armed = False
                backup = self._next_allowed(index, replica + 1)
                if backup is not None:
                    with self._stats_lock:
                        self.hedges_fired += 1
                    ok2, value2, latency2, kind2 = self._attempt(
                        index, backup, fn)
                    race: List[Tuple[bool, float, int, Any]] = []
                    if ok:
                        race.append((self._applied[index][replica] < seq,
                                     latency, replica, value))
                    if ok2:
                        race.append((self._applied[index][backup] < seq,
                                     threshold + latency2, backup, value2))
                    if race:
                        # Freshness beats latency: a slower fresh leg wins
                        # over a faster stale one (both are already paid
                        # for — the race cost is the winner's latency).
                        race.sort(key=lambda c: (c[0], c[1]))
                        _, won_latency, won_replica, won_value = race[0]
                        if won_replica == backup:
                            with self._stats_lock:
                                self.hedge_wins += 1
                        ok, value, latency = True, won_value, won_latency
                        served = won_replica
                    else:
                        # Both legs failed: detection takes as long as the
                        # slower leg; carry on past the backup.
                        total_latency += max(latency, threshold + latency2)
                        failures.append((replica, kind))
                        failures.append((backup, kind2))
                        replica = backup + 1
                        continue
                    replica = max(replica, served)
            if not ok:
                total_latency += latency
                failures.append((replica, kind))
                replica += 1
                continue
            total_latency += latency
            lag = seq - self._applied[index][served]
            if lag <= 0:
                return self._finish(index, served, value, total_latency,
                                    stale=False, lag=0, seq=seq)
            if stale_best is None or lag < stale_best[0]:
                stale_best = (lag, value, served)
            replica += 1
        healthy = sum(1 for b in self._breakers[index] if b.state != "open")
        if healthy < self.read_quorum:
            with self._stats_lock:
                self.quorum_losses += 1
            if self.obs.enabled:
                self.obs.count("kg.replica.quorum_losses")
        if stale_best is not None:
            lag, value, served = stale_best
            if self.consistency == "strict":
                with self._stats_lock:
                    self.stale_rejections += 1
                raise StaleReadError(index, served, lag,
                                     applied_seq=self._applied[index][served],
                                     committed_seq=seq)
            return self._finish(index, served, value, total_latency,
                                stale=True, lag=lag, seq=seq)
        with self._stats_lock:
            self.unavailable += 1
        if self.obs.enabled:
            self.obs.count("kg.replica.unavailable")
        raise ShardUnavailableError(index, failures)

    def _finish(self, shard: int, replica: int, value: Any, latency: float,
                *, stale: bool, lag: int, seq: int):
        with self._stats_lock:
            self.reads += 1
            if replica != 0:
                self.failovers += 1
            if stale:
                self.stale_reads += 1
            self.read_latencies.append(latency)
            self.last_read = {
                "shard": shard, "replica": replica, "stale": stale,
                "lag": lag, "applied_seq": seq - lag, "committed_seq": seq,
                "latency": latency,
            }
        if self.obs.enabled:
            self.obs.observe("kg.replica.read_latency", latency)
            if stale:
                self.obs.count("kg.replica.stale_reads")
            if replica != 0:
                self.obs.count("kg.replica.failovers")
        return value

    # ------------------------------------------------------------------
    # Chaos / CLI helpers
    # ------------------------------------------------------------------
    def partition_one_replica_per_shard(self) -> List[Tuple[int, int]]:
        """Force exactly one replica of every shard off the network.

        The victim rotates (``shard % replicas``) so both primary loss
        (read failover) and follower loss (ship lag) are exercised in one
        schedule. Returns the victims; ``restore_partitions`` lifts them.
        """
        victims = []
        for shard in range(len(self._shards)):
            replica = shard % self.replica_count
            self.transport.force_partition(shard, replica)
            victims.append((shard, replica))
        return victims

    def restore_partitions(self) -> None:
        """Lift all forced partitions from the transport."""
        self.transport.restore_all()

    def reset_read_stats(self) -> None:
        """Clear latency samples and read counters (between bench phases)."""
        with self._stats_lock:
            self.reads = 0
            self.hedges_fired = 0
            self.hedge_wins = 0
            self.failovers = 0
            self.stale_reads = 0
            self.stale_rejections = 0
            self.quorum_losses = 0
            self.unavailable = 0
            self.read_latencies = []
            self.last_read = {}

    def read_latency_quantile(self, q: float) -> float:
        """The q-th percentile (0-100) of simulated read latencies."""
        with self._stats_lock:
            return percentile(self.read_latencies, q)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def replication_stats(self) -> Dict[str, Any]:
        """Replication ledger: topology, read outcomes, ship/heal counts."""
        states = self.breaker_states()
        lags = [self.replica_lag(i, r)
                for i in range(len(self._shards))
                for r in range(self.replica_count)]
        with self._stats_lock:
            return {
                "shards": len(self._shards),
                "replicas": self.replica_count,
                "consistency": self.consistency,
                "read_quorum": self.read_quorum,
                "reads": self.reads,
                "hedges_fired": self.hedges_fired,
                "hedge_wins": self.hedge_wins,
                "failovers": self.failovers,
                "stale_reads": self.stale_reads,
                "stale_rejections": self.stale_rejections,
                "quorum_losses": self.quorum_losses,
                "unavailable": self.unavailable,
                "ships": self.ships,
                "ship_failures": self.ship_failures,
                "heals": self.heals,
                "open_breakers": sum(row.count("open") for row in states),
                "max_lag": max(lags) if lags else 0,
                "transport": self.transport.stats(),
            }
