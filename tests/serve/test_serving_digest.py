"""Byte-identity of the serving experiments: the serve path's golden digest.

Every serving number is simulated on a fake clock, so each experiment's
report is an exact function of its arguments. The digest covers, at the
quick benchmark sizes:

* ``to_dict()`` and ``gateway_stats`` of the overload replay at 1× and 2×;
* the replicated replay's clean and partitioned reports plus their
  replication detail;
* ``to_dict()`` of the streaming replay: continuous at 1× and 2×,
  run-to-completion at 2×, no prefix cache at 2×, and fault-injected
  streams at ``fault_rate=0.3``.

A refactor of ``repro.serve`` that changes any admission, scheduling or
degradation decision changes the digest.
"""

import hashlib
import json

from repro.serve import (overload_experiment, serving_observability,
                         streaming_experiment)

#: SHA-256 of the reports; update only for a deliberate change to what
#: the serving engines decide or report.
GOLDEN_SERVING_DIGEST = \
    "3869034dd57f593a7de25227463c2ab59b4219ff1965a85b9e952d9bfb97cf8c"


def _overload(load_factor: float):
    report = overload_experiment(
        dataset="enterprise", mix_name="mixed", capacity=4,
        load_factor=load_factor, n_requests=80, seed=0, queue_limit=32,
        budget=4.0, obs=serving_observability())
    return {"report": report.to_dict(), "gateway_stats": report.gateway_stats}


def _partitioned(partition: bool):
    report = overload_experiment(
        dataset="enterprise", mix_name="mixed", capacity=4, load_factor=2.0,
        n_requests=60, seed=0, replicas=2, partition=partition,
        obs=serving_observability())
    return {"report": report.to_dict(), "detail": report.detail}


def _streaming(**kwargs):
    options = dict(dataset="enterprise", mix_name="stream", max_batch=8,
                   load_factor=2.0, n_requests=100, seed=0, queue_limit=64,
                   budget=4.0)
    options.update(kwargs)
    return streaming_experiment(obs=serving_observability(),
                                **options).to_dict()


def serving_reports() -> dict:
    """Every covered report, keyed by run name, computed afresh."""
    return {
        "overload_1x": _overload(1.0),
        "overload_2x": _overload(2.0),
        "clean_2x": _partitioned(False),
        "partitioned_2x": _partitioned(True),
        "continuous_1x": _streaming(load_factor=1.0),
        "continuous_2x": _streaming(),
        "run_to_completion_2x": _streaming(policy="run_to_completion"),
        "nocache_2x": _streaming(prefix_cache=False),
        "faults_2x": _streaming(fault_rate=0.3),
    }


def serving_digest(reports: dict) -> str:
    text = json.dumps(reports, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestServingIdentity:
    def test_reports_match_golden_digest(self):
        assert serving_digest(serving_reports()) == GOLDEN_SERVING_DIGEST
