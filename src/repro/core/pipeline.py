"""Composable pipelines chaining KG and LLM components.

The cooperation-style systems the survey reviews — RAG's
indexing→retrieval→generation, RoG's planning→retrieval→reasoning,
KG-GPT's segmentation→retrieval→inference — are all linear pipelines over a
shared mutable context. This module gives them one explicit, inspectable
abstraction with per-stage tracing, and (since the resilience layer) a
per-stage **error policy**: any stage can be retried with a deterministic
backoff schedule, guarded by a circuit breaker, replaced by a fallback, or
skipped, and every run yields a :class:`PipelineReport` recording attempts,
breaker trips and whether the answer is degraded.

Failure contract: a stage's trace entry is recorded *even when the stage
raises* (with the error kept on the report), and on abort the partially
executed context is attached to the exception as ``pipeline_context`` so
callers can inspect how far the run got.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.core.observability import resolve_obs
from repro.core.resilience import CircuitBreaker, CircuitOpenError, RetryPolicy

#: Stage dispositions after an error (and exhausted retries).
ERROR_ACTIONS = ("abort", "retry", "fallback", "skip")


@dataclass
class StagePolicy:
    """How one stage behaves when it raises.

    ``on_error`` is the terminal disposition once retries (if any) are
    exhausted: ``abort`` re-raises, ``fallback`` runs the fallback callable,
    ``skip`` marks the stage skipped and continues, and ``retry`` means
    "retry then abort" (a retry policy is implied). Only exceptions matching
    ``catch`` are governed by the policy — anything else always aborts.
    """

    on_error: str = "abort"
    retry: Optional[RetryPolicy] = None
    fallback: Optional[Callable[["PipelineContext"], None]] = None
    breaker: Optional[CircuitBreaker] = None
    catch: Tuple[Type[BaseException], ...] = (Exception,)

    def __post_init__(self) -> None:
        if self.on_error not in ERROR_ACTIONS:
            raise ValueError(
                f"on_error must be one of {ERROR_ACTIONS}, got {self.on_error!r}")
        if self.on_error == "retry" and self.retry is None:
            self.retry = RetryPolicy()
        if self.on_error == "fallback" and self.fallback is None:
            raise ValueError("on_error='fallback' requires a fallback callable")


@dataclass
class StageReport:
    """One stage's outcome within a pipeline run."""

    name: str
    status: str                 # ok | retried | fell_back | skipped | failed
    attempts: int
    elapsed: float
    error: Optional[str] = None

    def to_dict(self) -> List[Any]:
        """JSON-able form (checkpoint journals persist reports this way).

        A positional row, not a mapping — journals serialize thousands of
        these per run, and repeating five field names per stage roughly
        doubles both the encode time and the journal size.
        """
        return [self.name, self.status, self.attempts, self.elapsed,
                self.error]

    @classmethod
    def from_dict(cls, data: List[Any]) -> "StageReport":
        """Rebuild a report from :meth:`to_dict` output."""
        name, status, attempts, elapsed, error = data
        return cls(name=name, status=status, attempts=attempts,
                   elapsed=elapsed, error=error)


@dataclass
class PipelineReport:
    """Run-level accounting: per-stage outcomes, attempts, trips, degradation."""

    pipeline: str
    stages: List[StageReport] = field(default_factory=list)
    degraded: bool = False
    trips: int = 0
    notes: List[str] = field(default_factory=list)

    @property
    def attempts(self) -> int:
        """Total stage attempts across the run (retries included)."""
        return sum(stage.attempts for stage in self.stages)

    @property
    def errors(self) -> List[Tuple[str, str]]:
        """``(stage name, error)`` for every stage that raised."""
        return [(s.name, s.error) for s in self.stages if s.error is not None]

    def stage(self, name: str) -> Optional[StageReport]:
        """The report for a named stage, if it ran."""
        for report in self.stages:
            if report.name == name:
                return report
        return None

    def to_dict(self) -> List[Any]:
        """JSON-able form that round-trips through :meth:`from_dict`.

        Checkpoint journals persist per-item reports with this, so a
        resumed run can emit traces byte-identical to an uninterrupted
        one. Positional (like :meth:`StageReport.to_dict`) to keep the
        hot journaling path cheap.
        """
        return [self.pipeline, [s.to_dict() for s in self.stages],
                self.degraded, self.trips, list(self.notes)]

    @classmethod
    def from_dict(cls, data: List[Any]) -> "PipelineReport":
        """Rebuild a report from :meth:`to_dict` output."""
        pipeline, stages, degraded, trips, notes = data
        return cls(pipeline=pipeline,
                   stages=[StageReport.from_dict(s) for s in stages],
                   degraded=degraded, trips=trips, notes=list(notes))


@dataclass
class PipelineContext:
    """The blackboard passed through a pipeline run."""

    data: Dict[str, Any] = field(default_factory=dict)
    trace: List[Tuple[str, float]] = field(default_factory=list)
    report: Optional[PipelineReport] = None

    def __getitem__(self, key: str) -> Any:
        return self.data[key]

    def __setitem__(self, key: str, value: Any) -> None:
        self.data[key] = value

    def get(self, key: str, default: Any = None) -> Any:
        """dict-style access with a default."""
        return self.data.get(key, default)

    def mark_degraded(self, note: str = "") -> None:
        """Flag this run as degraded (a stage substituted a weaker path)."""
        self.data["degraded"] = True
        if self.report is not None:
            self.report.degraded = True
            if note:
                self.report.notes.append(note)


@dataclass
class Component:
    """A named pipeline stage wrapping a ``context -> None`` callable."""

    name: str
    run: Callable[[PipelineContext], None]
    policy: StagePolicy = field(default_factory=StagePolicy)


class Pipeline:
    """A linear sequence of components with timing traces and error policies.

    ``obs`` attaches an :class:`~repro.core.observability.Observability`
    recorder: stage timings (the ``context.trace`` tuples and
    ``StageReport.elapsed``) are read off its injectable clock — with a
    ``FakeClock`` a traced run's timings are deterministic — and every run
    opens a ``pipeline:<name>`` span with one ``stage:<name>`` child per
    stage. The default is the shared no-op recorder on the system clock,
    which reproduces the pre-observability behaviour exactly.
    """

    def __init__(self, name: str, components: Optional[Sequence[Component]] = None,
                 obs=None):
        self.name = name
        self.components: List[Component] = list(components or [])
        self.obs = resolve_obs(obs)

    def add(self, name: str, run: Callable[[PipelineContext], None],
            on_error: str = "abort", retry: Optional[RetryPolicy] = None,
            fallback: Optional[Callable[[PipelineContext], None]] = None,
            breaker: Optional[CircuitBreaker] = None,
            catch: Tuple[Type[BaseException], ...] = (Exception,)) -> "Pipeline":
        """Append a stage with its error policy; returns self for chaining."""
        policy = StagePolicy(on_error=on_error, retry=retry, fallback=fallback,
                             breaker=breaker, catch=catch)
        self.components.append(Component(name, run, policy))
        return self

    def execute(self, **initial: Any) -> PipelineContext:
        """Run all stages over a fresh context seeded with ``initial``.

        The returned context carries a :class:`PipelineReport` under
        ``context.report``. When a stage aborts the run, its trace entry
        and report are still recorded and the partial context is attached
        to the raised exception as ``pipeline_context``.
        """
        context = PipelineContext(data=dict(initial))
        report = PipelineReport(pipeline=self.name)
        context.report = report
        obs = self.obs
        clock = obs.clock
        # One check per run: a disabled recorder gets no span or count
        # call, and no span name is formatted for it.
        enabled = obs.enabled
        run_span = obs.start_span(f"pipeline:{self.name}") if enabled \
            else None
        try:
            for component in self.components:
                policy = component.policy
                stage_span = obs.start_span(
                    f"stage:{component.name}", pipeline=self.name) \
                    if enabled else None
                started = clock.now()
                status = "ok"
                attempts = 0
                error: Optional[BaseException] = None
                try:
                    if policy.breaker is not None and not policy.breaker.allow():
                        raise CircuitOpenError(
                            f"stage {component.name!r}: circuit open")
                    if policy.retry is not None:
                        outcome = policy.retry.run(
                            lambda: component.run(context), key=component.name)
                        attempts = outcome.attempts
                        if outcome.error is not None:
                            raise outcome.error
                        if attempts > 1:
                            status = "retried"
                    else:
                        attempts = 1
                        component.run(context)
                except BaseException as exc:  # noqa: BLE001 - classified below
                    error = exc
                finally:
                    elapsed = clock.now() - started
                    # The failure contract: the in-flight stage's entry lands
                    # in the trace whether or not it raised.
                    context.trace.append((component.name, elapsed))
                if policy.breaker is not None and \
                        not isinstance(error, CircuitOpenError):
                    if error is None:
                        policy.breaker.record_success()
                    elif policy.breaker.record_failure():
                        # Attribute the trip to the failure that caused it —
                        # *this* stage's — rather than diffing the shared
                        # breaker's total around the run, which would absorb
                        # trips other pipelines caused concurrently.
                        report.trips += 1
                        if enabled:
                            obs.count("pipeline.breaker_trips",
                                      pipeline=self.name,
                                      stage=component.name)
                if error is None:
                    if enabled:
                        obs.end_span(stage_span, status=status)
                        obs.count("pipeline.stages", pipeline=self.name,
                                  stage=component.name, status=status)
                    report.stages.append(
                        StageReport(component.name, status, attempts, elapsed))
                    continue
                governed = isinstance(error, policy.catch) or \
                    isinstance(error, CircuitOpenError)
                action = policy.on_error if governed else "abort"
                if action == "retry":       # retries already exhausted above
                    action = "abort"
                if action == "fallback":
                    try:
                        policy.fallback(context)  # type: ignore[misc]
                    except policy.catch as fallback_error:
                        report.notes.append(
                            f"{component.name}: fallback failed "
                            f"({fallback_error!r})")
                        action = "abort"
                        error = fallback_error
                    else:
                        if enabled:
                            obs.end_span(stage_span, status="fell_back",
                                         error=repr(error))
                            obs.count("pipeline.stages", pipeline=self.name,
                                      stage=component.name,
                                      status="fell_back")
                        report.stages.append(StageReport(
                            component.name, "fell_back", max(attempts, 1),
                            elapsed, error=repr(error)))
                        context.mark_degraded(
                            f"{component.name}: used fallback after {error!r}")
                        continue
                if action == "skip":
                    if enabled:
                        obs.end_span(stage_span, status="skipped",
                                     error=repr(error))
                        obs.count("pipeline.stages", pipeline=self.name,
                                  stage=component.name, status="skipped")
                    report.stages.append(StageReport(
                        component.name, "skipped", max(attempts, 1), elapsed,
                        error=repr(error)))
                    context.mark_degraded(
                        f"{component.name}: skipped after {error!r}")
                    continue
                # abort: record, expose the partial context, re-raise.
                if enabled:
                    obs.end_span(stage_span, status="failed",
                                 error=repr(error))
                    obs.count("pipeline.stages", pipeline=self.name,
                              stage=component.name, status="failed")
                report.stages.append(StageReport(
                    component.name, "failed", max(attempts, 1), elapsed,
                    error=repr(error)))
                error.pipeline_context = context  # type: ignore[attr-defined]
                raise error
        except BaseException as exc:
            if enabled:
                obs.end_span(run_span, degraded=report.degraded,
                             error=repr(exc))
            raise
        if enabled:
            obs.end_span(run_span, degraded=report.degraded)
        return context

    def stage_names(self) -> List[str]:
        """The ordered stage names (used in docs and tests)."""
        return [c.name for c in self.components]
