"""Tests for the offline resilience primitives and pipeline error policies."""

import pytest

from repro.core import Pipeline
from repro.core.resilience import (
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    DeadlineExceeded,
    RetryPolicy,
)
from repro.llm.faults import LLMRateLimitError, LLMTimeoutError, LLMTransientError


class Flaky:
    """Fails the first ``failures`` calls, then succeeds."""

    def __init__(self, failures, error=RuntimeError("boom"), value="ok"):
        self.failures = failures
        self.error = error
        self.value = value
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error
        return self.value


class TestRetryPolicy:
    def test_succeeds_first_try(self):
        outcome = RetryPolicy(max_attempts=3).run(lambda: 42)
        assert outcome.ok and outcome.value == 42
        assert outcome.attempts == 1 and outcome.simulated_delay == 0.0

    def test_retries_until_success(self):
        fn = Flaky(2)
        outcome = RetryPolicy(max_attempts=3).run(fn)
        assert outcome.ok and outcome.attempts == 3 and fn.calls == 3

    def test_exhaustion_returns_error(self):
        outcome = RetryPolicy(max_attempts=2).run(Flaky(5))
        assert not outcome.ok
        assert isinstance(outcome.error, RuntimeError)
        assert outcome.attempts == 2

    def test_call_reraises_final_error(self):
        with pytest.raises(RuntimeError, match="boom"):
            RetryPolicy(max_attempts=2).call(Flaky(5))

    def test_non_retryable_propagates_immediately(self):
        fn = Flaky(5, error=KeyError("nope"))
        with pytest.raises(KeyError):
            RetryPolicy(max_attempts=3, retry_on=(RuntimeError,)).run(fn)
        assert fn.calls == 1

    def test_backoff_is_deterministic_and_grows(self):
        policy = RetryPolicy(seed=7, base_delay=1.0, jitter=0.25)
        again = RetryPolicy(seed=7, base_delay=1.0, jitter=0.25)
        delays = [policy.delay_for(a, key="k") for a in range(4)]
        assert delays == [again.delay_for(a, key="k") for a in range(4)]
        # Exponential shape survives the +/-25% jitter.
        assert delays[2] > delays[0]

    def test_different_seed_changes_jitter(self):
        a = RetryPolicy(seed=1).delay_for(0, key="k")
        b = RetryPolicy(seed=2).delay_for(0, key="k")
        assert a != b

    def test_rate_limit_retry_after_floors_delay(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.01, jitter=0.0)
        error = LLMRateLimitError("slow down", retry_after=9.0)
        outcome = policy.run(Flaky(1, error=error))
        assert outcome.ok and outcome.simulated_delay >= 9.0

    def test_deadline_stops_retrying(self):
        deadline = Deadline(budget=1.0)
        policy = RetryPolicy(max_attempts=10, base_delay=5.0, jitter=0.0)
        outcome = policy.run(Flaky(50), deadline=deadline)
        assert not outcome.ok
        assert outcome.attempts < 10
        assert deadline.expired

    def test_simulated_latency_charged_to_deadline(self):
        deadline = Deadline(budget=100.0)
        error = LLMTimeoutError("timeout", simulated_latency=30.0)
        RetryPolicy(max_attempts=2, base_delay=1.0, jitter=0.0).run(
            Flaky(5, error=error), deadline=deadline)
        assert deadline.spent >= 60.0  # two timed-out attempts

    def test_max_attempts_validated(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestDeadline:
    def test_charge_and_remaining(self):
        deadline = Deadline(budget=10.0)
        deadline.charge(4.0)
        assert deadline.remaining == 6.0 and not deadline.expired

    def test_check_raises_when_spent(self):
        deadline = Deadline(budget=1.0)
        deadline.charge(2.0)
        with pytest.raises(DeadlineExceeded):
            deadline.check()

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            Deadline(budget=1.0).charge(-1.0)

    def test_negative_charge_leaves_budget_untouched(self):
        deadline = Deadline(budget=1.0)
        deadline.charge(0.25)
        with pytest.raises(ValueError):
            deadline.charge(-0.5)
        # No silent refund: the rejected charge must not mutate spent.
        assert deadline.spent == 0.25
        assert deadline.remaining == 0.75

    def test_nan_charge_rejected(self):
        deadline = Deadline(budget=1.0)
        with pytest.raises(ValueError):
            deadline.charge(float("nan"))
        assert deadline.spent == 0.0

    def test_remaining_clamps_at_zero_once_expired(self):
        deadline = Deadline(budget=1.0)
        deadline.charge(1.0)
        # Exactly exhausted: expired, with remaining pinned at 0.0.
        assert deadline.expired and deadline.remaining == 0.0
        deadline.charge(5.0)
        # Overspend never goes negative.
        assert deadline.remaining == 0.0
        assert deadline.spent == 6.0


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown=2)
        for _ in range(3):
            with pytest.raises(RuntimeError):
                breaker.call(Flaky(99))
        assert breaker.state == "open" and breaker.trips == 1

    def test_open_rejects_without_calling(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=2)
        with pytest.raises(RuntimeError):
            breaker.call(Flaky(99))
        probe = Flaky(0)
        with pytest.raises(CircuitOpenError):
            breaker.call(probe)
        assert probe.calls == 0 and breaker.rejected == 1

    def test_half_open_probe_closes_on_success(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1)
        with pytest.raises(RuntimeError):
            breaker.call(Flaky(99))
        with pytest.raises(CircuitOpenError):
            breaker.call(lambda: "unreached")
        assert breaker.call(lambda: "recovered") == "recovered"
        assert breaker.state == "closed"

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1)
        with pytest.raises(RuntimeError):
            breaker.call(Flaky(99))
        with pytest.raises(CircuitOpenError):
            breaker.call(lambda: "unreached")
        with pytest.raises(RuntimeError):
            breaker.call(Flaky(99))
        assert breaker.state == "open" and breaker.trips == 2


class TestHalfOpenSingleProbe:
    """Regression: after cooldown, ``allow()`` used to wave through every
    caller the moment the circuit went half-open — a thundering herd into
    a backend one probe might have shown to be still down. Half-open now
    admits exactly one probe; the rest are rejected until its outcome is
    recorded."""

    def _opened(self, cooldown=0):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=cooldown)
        assert breaker.record_failure() is True
        return breaker

    def test_second_caller_rejected_while_probe_in_flight(self):
        breaker = self._opened()
        assert breaker.allow()          # takes the probe slot
        assert not breaker.allow()      # herd member: rejected
        assert not breaker.allow()
        assert breaker.rejected == 2

    def test_probe_success_reopens_admission(self):
        breaker = self._opened()
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow() and breaker.allow()

    def test_probe_failure_restarts_cooldown(self):
        breaker = self._opened(cooldown=2)
        assert not breaker.allow() and not breaker.allow()  # cooldown
        assert breaker.allow()          # the probe
        assert breaker.record_failure() is True
        assert breaker.state == "open"
        # A fresh cooldown, then again exactly one probe.
        assert not breaker.allow() and not breaker.allow()
        assert breaker.allow()
        assert not breaker.allow()

    def test_threaded_herd_admits_exactly_one_probe(self):
        import threading

        breaker = CircuitBreaker(failure_threshold=1, cooldown=0)
        assert breaker.record_failure() is True
        n_threads = 16
        barrier = threading.Barrier(n_threads)
        admitted = []
        lock = threading.Lock()

        def rush():
            barrier.wait()
            if breaker.allow():
                with lock:
                    admitted.append(threading.get_ident())

        threads = [threading.Thread(target=rush) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(admitted) == 1, \
            f"half-open admitted a herd of {len(admitted)}"
        assert breaker.rejected == n_threads - 1
        # The winning probe reports success and the circuit closes for all.
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()


class TestOpenStateOutcomes:
    """Regression: outcomes landing while the circuit is already *open*.

    With a shared breaker, a half-open probe's verdict can arrive after a
    concurrent sharer has re-tripped the circuit. A late failure used to
    leave whatever partially drained cooldown remained (letting traffic
    back into a dead backend early); a late success used to close the
    circuit outright (cancelling the cooldown the trip just imposed).
    """

    def test_failure_while_open_restores_full_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=4)
        assert breaker.record_failure() is True
        assert not breaker.allow() and not breaker.allow()  # drain 2 of 4
        assert breaker.record_failure() is False            # late verdict
        assert breaker.snapshot()["cooldown_left"] == 4
        rejections = 0
        while not breaker.allow():
            rejections += 1
        assert rejections == 4

    def test_success_while_open_does_not_close(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=8)
        assert breaker.record_failure() is True
        breaker.record_success()                            # straggler
        assert breaker.state == "open"
        assert not breaker.allow()                          # cooldown stands

    def test_reset_administratively_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=8)
        assert breaker.record_failure() is True
        breaker.reset()
        assert breaker.state == "closed"
        assert breaker.allow() and breaker.allow()
        assert breaker.snapshot()["cooldown_left"] == 0

    def test_snapshot_reports_consistent_fields(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=3, name="kg")
        assert breaker.record_failure() is False
        snap = breaker.snapshot()
        assert snap["name"] == "kg" and snap["state"] == "closed"
        assert snap["consecutive_failures"] == 1
        assert breaker.record_failure() is True
        snap = breaker.snapshot()
        assert snap["state"] == "open" and snap["trips"] == 1
        assert snap["cooldown_left"] == 3

    def test_threaded_straggler_probe_failure_restores_full_cooldown(self):
        import threading

        breaker = CircuitBreaker(failure_threshold=1, cooldown=6)
        assert breaker.record_failure() is True
        for _ in range(6):
            assert not breaker.allow()
        assert breaker.allow()                  # probe slot (half-open)
        release = threading.Event()

        def late_probe_verdict():
            release.wait()
            breaker.record_failure()

        thread = threading.Thread(target=late_probe_verdict)
        thread.start()
        # A concurrent sharer fails first: half-open → re-trip, full
        # cooldown of 6.
        assert breaker.record_failure() is True
        # Part of that cooldown drains before the probe's verdict lands.
        assert not breaker.allow() and not breaker.allow()
        release.set()
        thread.join()
        # The late failure restored the FULL cooldown, not the leftover 4.
        assert breaker.snapshot()["cooldown_left"] == 6
        rejections = 0
        while not breaker.allow():
            rejections += 1
        assert rejections == 6


class TestPipelinePolicies:
    def test_retry_policy_on_stage(self):
        fn = Flaky(2)
        pipeline = Pipeline("p").add(
            "flaky", lambda ctx: ctx.__setitem__("v", fn()),
            retry=RetryPolicy(max_attempts=3))
        context = pipeline.execute()
        assert context["v"] == "ok"
        stage = context.report.stage("flaky")
        assert stage.status == "retried" and stage.attempts == 3
        assert not context.report.degraded

    def test_fallback_stage_marks_degraded(self):
        def fail(ctx):
            raise LLMTimeoutError("down")

        def backup(ctx):
            ctx["v"] = "fallback"

        pipeline = Pipeline("p").add("s", fail, on_error="fallback",
                                     fallback=backup)
        context = pipeline.execute()
        assert context["v"] == "fallback"
        assert context.report.degraded
        assert context.report.stage("s").status == "fell_back"

    def test_skip_stage_continues(self):
        def fail(ctx):
            raise RuntimeError("nope")

        pipeline = (Pipeline("p")
                    .add("bad", fail, on_error="skip")
                    .add("good", lambda ctx: ctx.__setitem__("v", 1)))
        context = pipeline.execute()
        assert context["v"] == 1
        assert context.report.stage("bad").status == "skipped"
        assert context.report.degraded

    def test_abort_records_trace_and_attaches_context(self):
        def fail(ctx):
            ctx["partial"] = True
            raise RuntimeError("stage failure")

        pipeline = (Pipeline("p")
                    .add("first", lambda ctx: None)
                    .add("boom", fail))
        with pytest.raises(RuntimeError, match="stage failure") as info:
            pipeline.execute()
        context = info.value.pipeline_context
        # The in-flight stage's trace entry is not lost (the PR 1 bugfix).
        assert [name for name, _ in context.trace] == ["first", "boom"]
        assert context["partial"] is True
        assert context.report.stage("boom").status == "failed"
        assert context.report.stage("boom").error is not None

    def test_uncaught_type_aborts_even_with_skip_policy(self):
        def fail(ctx):
            raise KeyError("semantic bug")

        pipeline = Pipeline("p").add("s", fail, on_error="skip",
                                     catch=(RuntimeError,))
        with pytest.raises(KeyError):
            pipeline.execute()

    def test_breaker_trips_and_skips(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=5)

        def fail(ctx):
            raise RuntimeError("down")

        pipeline = Pipeline("p").add("s", fail, on_error="skip",
                                     breaker=breaker)
        pipeline.execute()                     # failure trips the breaker
        context = pipeline.execute()           # rejected by the open circuit
        assert breaker.trips == 1
        assert context.report.stage("s").status == "skipped"
        assert "CircuitOpenError" in context.report.stage("s").error

    def test_report_attempts_total(self):
        fn = Flaky(1)
        pipeline = (Pipeline("p")
                    .add("a", lambda ctx: None)
                    .add("b", lambda ctx: fn() and None,
                         retry=RetryPolicy(max_attempts=4)))
        context = pipeline.execute()
        assert context.report.attempts == 3  # 1 + 2

    def test_fallback_requires_callable(self):
        with pytest.raises(ValueError):
            Pipeline("p").add("s", lambda ctx: None, on_error="fallback")

    def test_invalid_action_rejected(self):
        with pytest.raises(ValueError):
            Pipeline("p").add("s", lambda ctx: None, on_error="explode")

    def test_failed_fallback_aborts(self):
        def fail(ctx):
            raise RuntimeError("primary")

        def bad_backup(ctx):
            raise RuntimeError("backup also down")

        pipeline = Pipeline("p").add("s", fail, on_error="fallback",
                                     fallback=bad_backup)
        with pytest.raises(RuntimeError, match="backup also down"):
            pipeline.execute()


class TestSharedBreakerTripAttribution:
    """Regression: ``Pipeline.execute`` used to diff the shared breaker's
    ``trips`` total around its own run, so a trip another pipeline caused
    in between (e.g. a nested run sharing the breaker) was misattributed
    to the outer run's report. Trips are now attributed incrementally via
    ``record_failure()``'s return value."""

    def test_record_failure_reports_the_tripping_call(self):
        breaker = CircuitBreaker(failure_threshold=3)
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        assert breaker.record_failure() is True  # this failure trips
        assert breaker.trips == 1

    def test_half_open_probe_failure_reports_a_trip(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=0)
        assert breaker.record_failure() is True
        assert breaker.allow()  # half-open probe
        assert breaker.record_failure() is True  # probe failure re-trips
        assert breaker.trips == 2

    def test_nested_pipelines_attribute_trip_to_the_failing_run(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=0)

        def boom(_context):
            raise LLMTimeoutError("injected")

        inner = Pipeline("inner").add("boom", boom, on_error="skip",
                                      breaker=breaker)

        def delegate(context):
            context["inner_report"] = inner.execute().report

        outer = Pipeline("outer").add("delegate", delegate, breaker=breaker)
        context = outer.execute()
        # The failing (inner) run owns the trip; the outer run — which
        # succeeded, but under the old diff-based accounting would have
        # absorbed the shared breaker's increment — reports none.
        assert context["inner_report"].trips == 1
        assert context.report.trips == 0
        assert breaker.trips == 1

    def test_concurrent_sharers_account_every_trip_exactly_once(self):
        import threading

        breaker = CircuitBreaker(failure_threshold=1, cooldown=0)
        reports = []
        reports_lock = threading.Lock()

        def run_one(name):
            def boom(_context):
                raise LLMTimeoutError(name)

            pipeline = Pipeline(name).add("boom", boom, on_error="skip",
                                          breaker=breaker)
            report = pipeline.execute().report
            with reports_lock:
                reports.append(report)

        threads = [threading.Thread(target=run_one, args=(f"p{i}",))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Some runs are rejected outright (circuit already open) — those
        # count no trip. Every *tripping* failure is counted exactly once,
        # so run-level totals reconcile with the breaker's own counter.
        assert sum(r.trips for r in reports) == breaker.trips
