"""Shared helpers for the benchmark harness.

Each benchmark module regenerates one artifact of the paper (a table or
figure, or one per-RQ experiment from DESIGN.md §3), prints the rows the
paper reports, and asserts the qualitative *shape* that must reproduce
(who wins, by roughly what factor). Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import os

# One BLAS thread per process, set before anything imports numpy, as
# ``e2e/run.py`` does. OpenBLAS otherwise starts a thread per core, and on
# the small matrices these benchmarks use the hand-offs cost more than the
# parallelism gains: on a 2-vCPU VM, ``clustered_index``'s quick-mode
# ``after_s`` read about 0.09 s unpinned against about 0.02 s pinned.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark an expensive experiment with a single round."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)


@pytest.fixture
def once(benchmark):
    """Fixture form of :func:`run_once`."""
    def runner(fn, *args, **kwargs):
        return run_once(benchmark, fn, *args, **kwargs)
    return runner
