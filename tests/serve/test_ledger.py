"""The shared request ledger holds on both serving engines.

Random arrival streams, tenants, widths, small queue limits and tight
budgets drive the gateway (echo ladders, some of them faulty) and the
token scheduler (a simulated model, sometimes fault-injected). Whatever
each engine decides, every submission is admitted or rejected, every
admitted request resolves exactly once, and every completion lands in
one tier::

    submitted == admitted + sum(rejected)
    admitted  == completed + shed + failed
    completed == sum(tier_counts)
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.llm import LLMConfig, SimulatedLLM
from repro.llm import prompts as P
from repro.llm.faults import FaultInjectingLLM, FaultProfile, LLMTransientError
from repro.serve import Gateway, RateLimiter, TierStep, TokenScheduler

TENANTS = ("tenant-a", "tenant-b", "tenant-c")

PROMPTS = (
    P.qa_prompt("Who directed Starfall?",
                facts=["Ava Chen directed Starfall."]),
    P.chat_prompt("hello there"),
    P.summarization_prompt("Ava Chen directed Starfall. Starfall won three "
                           "awards. The film premiered in 2019."),
)

workloads = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=0.5),
              st.sampled_from(TENANTS), st.integers(0, len(PROMPTS) - 1)),
    min_size=1, max_size=40)


def _arrivals(workload):
    now = 0.0
    for gap, tenant, pick in workload:
        now += gap
        yield now, tenant, pick


def assert_ledger(engine, results):
    assert engine.submitted == len(results)
    assert engine.submitted == engine.admitted + sum(engine.rejected.values())
    assert engine.admitted == engine.completed + engine.shed + engine.failed
    assert engine.completed == sum(engine.tier_counts.values())
    statuses = [result.status for result in results]
    assert statuses.count("completed") == engine.completed
    assert statuses.count("shed") == engine.shed
    assert statuses.count("failed") == engine.failed
    assert statuses.count("rejected") == sum(engine.rejected.values())
    stats = engine.stats()
    for key in ("submitted", "admitted", "completed", "shed", "failed"):
        assert stats[key] == getattr(engine, key)


def _echo_ladder(fail_every: int):
    calls = {"n": 0}

    def full(request):
        calls["n"] += 1
        if fail_every and calls["n"] % fail_every == 0:
            raise LLMTransientError("primary down")
        if fail_every and calls["n"] % (fail_every + 1) == 0:
            raise KeyError("handler bug")
        return f"full:{request.question}"

    return {"echo": [TierStep("full", 0.4, full),
                     TierStep("degraded", 0.1, lambda r: "degraded"),
                     TierStep("busy", 0.01, lambda r: "busy")]}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(workload=workloads, capacity=st.integers(1, 3),
       queue_limit=st.integers(1, 3), budget=st.floats(0.05, 2.0),
       fail_every=st.integers(0, 4), throttle=st.booleans())
def test_gateway_ledger(workload, capacity, queue_limit, budget, fail_every,
                        throttle):
    limiter = RateLimiter(tenant_rate=4.0, tenant_burst=2) if throttle \
        else None
    gateway = Gateway(_echo_ladder(fail_every), capacity=capacity,
                      queue_limit=queue_limit, budget=budget,
                      limiter=limiter)
    results = [gateway.offer(tenant, "echo", PROMPTS[pick], arrival)
               for arrival, tenant, pick in _arrivals(workload)]
    assert_ledger(gateway, results)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(workload=workloads, max_batch=st.integers(1, 3),
       queue_limit=st.integers(1, 3), budget=st.floats(0.05, 2.0),
       fault_rate=st.sampled_from([0.0, 0.3]),
       policy=st.sampled_from(["continuous", "run_to_completion"]))
def test_scheduler_ledger(workload, max_batch, queue_limit, budget,
                          fault_rate, policy):
    llm = SimulatedLLM(LLMConfig(seed=0))
    if fault_rate:
        llm = FaultInjectingLLM(llm, FaultProfile.uniform(fault_rate, seed=0))
    scheduler = TokenScheduler(llm, max_batch=max_batch,
                               queue_limit=queue_limit, budget=budget,
                               policy=policy)
    for arrival, tenant, pick in _arrivals(workload):
        scheduler.submit(tenant, "mixed", PROMPTS[pick], arrival)
    assert_ledger(scheduler, scheduler.drain())
