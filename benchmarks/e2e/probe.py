"""Machine-speed calibration for the end-to-end benchmark.

The reference machine (a shared 2-vCPU x86-64 VM) alternates, every
few seconds, between a fast state and one about 1.7x slower, which
swamps any regression bound worth gating. So every timing is expressed
at a *reference* machine speed: a fixed pure-Python probe (nothing from
``repro``) is timed around each chunk of measured operations, and each
operation's wall time is scaled by ``REFERENCE_PROBE_S / probe``. Probe
time itself is never counted in any metric.

The kernel allocates small objects, groups them in a dict of lists and
sorts the keys, because that is the shape of the system's hot paths. Of
the kernels tried, its slowdown in the VM's slow state matched the
workloads' own most closely (1.60-1.66x against 1.61-1.72x); a
cache-resident string-and-dict loop overstated it (1.8x) and random
lookups in a large dict more so (2.1x).

``REFERENCE_PROBE_S`` is the median probe on the reference machine
(2 vCPU x86-64 VM, CPython 3.11, fast state);
``python3 benchmarks/e2e/probe.py`` prints the probe of the machine it
runs on.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence

#: Median :func:`probe` seconds on the reference machine.
REFERENCE_PROBE_S = 0.0013

#: Kernel runs per probe; the probe is their median, which drops a run
#: that a scheduler hiccup landed on.
KERNEL_RUNS = 3

#: Probes taken on each side of a one-shot phase (set-up, recovery).
BRACKET_PROBES = 5


class _Item:
    __slots__ = ("index", "key", "pair")

    def __init__(self, index: int, key: str, pair: tuple):
        self.index = index
        self.key = key
        self.pair = pair


def _kernel() -> int:
    """About 1.3 ms of allocation, dict-of-lists grouping and a keyed sort."""
    groups = {}
    for i in range(1200):
        item = _Item(i, "n%d" % (i * 31 % 977), (i, i * 7))
        groups.setdefault(item.key, []).append(item)
    ranked = sorted(groups, key=lambda key: (len(groups[key]), key))
    return sum(len(groups[key]) for key in ranked[:50])


def probe() -> float:
    """Seconds one probe takes right now (median of the kernel runs)."""
    runs = []
    for _ in range(KERNEL_RUNS):
        start = time.perf_counter()
        _kernel()
        runs.append(time.perf_counter() - start)
    return statistics.median(runs)


def bracket() -> List[float]:
    """:data:`BRACKET_PROBES` probes back to back."""
    return [probe() for _ in range(BRACKET_PROBES)]


def scale_of(probes: Sequence[float]) -> float:
    """Factor turning raw seconds into reference-speed seconds."""
    return REFERENCE_PROBE_S / statistics.median(probes)


class PhaseClock:
    """Times one-shot phases, each normalised by the probes around it.

    Every :meth:`time` call runs the phase between two brackets of
    probes (the bracket after one phase is the one before the next) and
    returns ``(reference seconds, raw seconds, result)``.
    """

    def __init__(self):
        self._before = bracket()

    def time(self, phase):
        start = time.perf_counter()
        result = phase()
        raw = time.perf_counter() - start
        after = bracket()
        scale = scale_of(self._before + after)
        self._before = after
        return raw * scale, raw, result


class ChunkClock:
    """Normalises per-operation wall times chunk by chunk.

    Call :meth:`probe` before the first operation; :meth:`close_chunk`
    then probes again and scales the chunk's raw operation times by the
    mean of the two probes around it.
    """

    def __init__(self):
        self.probes: List[float] = []

    def probe(self) -> None:
        """Take one probe at a chunk boundary."""
        self.probes.append(probe())

    def close_chunk(self, raw: Sequence[float]) -> List[float]:
        """Probe, then return ``raw`` at reference speed."""
        self.probe()
        factor = REFERENCE_PROBE_S / ((self.probes[-2] + self.probes[-1])
                                      / 2.0)
        return [value * factor for value in raw]

    def iqr_frac(self) -> float:
        """Inter-quartile range of all probes as a share of their median."""
        q1, median, q3 = statistics.quantiles(self.probes, n=4)
        return (q3 - q1) / median


if __name__ == "__main__":
    samples = [probe() for _ in range(300)]
    print(f"probe median {statistics.median(samples):.6f} s, "
          f"10th percentile {statistics.quantiles(samples, n=10)[0]:.6f} s "
          f"(reference {REFERENCE_PROBE_S} s)")
