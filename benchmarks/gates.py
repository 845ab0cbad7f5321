"""The one gate behind every gated ``test_bench_*.py``.

A gated bench measures its results, then calls :func:`finish`, which
writes ``BENCH_<name>.json`` at the repo root and judges the run with
one assert:

* every absolute bound the bench states (``bounds``), on every run;
* under ``REPRO_BENCH_GATE=1``, one of two gates against the committed
  ``benchmarks/BENCH_<name>_baseline.json`` for the current mode
  (``REPRO_BENCH_QUICK=1`` selects quick mode, else full):

  - :func:`exact` for the FakeClock benches, whose results are pure
    functions of the seed: the whole ``results`` mapping must equal the
    baseline's, and every differing field is named by its dotted path;
  - :func:`per_path` for the wall-clock benches: every leg that
    :func:`legs` timed (a dict with ``runs``) is judged against the
    baseline leg at the same path with ``verdict`` from
    ``e2e/run.py``, lower is better, at :data:`BOUND`. A leg that
    reads ``worse`` or ``unresolved`` fails.

A gated run without a baseline for its mode fails. To record one, run the
bench gated off in that mode and copy ``results`` from
``BENCH_<name>.json`` into ``modes.<mode>`` of the baseline file.

Every leaf of ``results`` is labelled ``measured`` (wall-clock time on
this machine, or a count taken from the run) or ``modelled`` (simulated
seconds, or a figure derived from a model such as a critical path)
under ``labels`` in the written file.
"""

from __future__ import annotations

import gc
import importlib.util
import json
import os
import re
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, \
    Sequence, Tuple

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
GATE = os.environ.get("REPRO_BENCH_GATE") == "1"
MODE = "quick" if QUICK else "full"

ROOT = Path(__file__).resolve().parent.parent

#: Measured rounds per leg, after :data:`WARMUP` discarded ones.
ROUNDS = 15
WARMUP = 1

#: Per-path bound: a leg's median may read at most 25% slower than its
#: baseline's, and neither side's inter-quartile spread may exceed 25% of
#: its median.
BOUND = 0.25

#: ``modelled`` prefix that covers every field.
ALL = ("",)


def _e2e_run():
    """``e2e/run.py`` (which loads ``e2e/probe.py``), imported by path as
    ``e2e_run``, the name its own smoke test uses."""
    if "e2e_run" not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            "e2e_run", ROOT / "benchmarks" / "e2e" / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules["e2e_run"] = module
        spec.loader.exec_module(module)
    return sys.modules["e2e_run"]


_run = _e2e_run()
probe = _run.probe
verdict = _run.verdict


# ----------------------------------------------------------------------
# Timing
# ----------------------------------------------------------------------
def leg(runs: Sequence[float]) -> Dict[str, Any]:
    """A timed leg: reference seconds per round with their quartiles."""
    q1, median, q3 = _run.quartiles(runs)
    return {"median": median, "q1": q1, "q3": q3, "runs": list(runs)}


def legs(runs: Mapping[str, Callable[[], Any]]) -> Dict[str, Dict[str, Any]]:
    """Time every callable :data:`ROUNDS` times, interleaved round by round.

    Each run is timed on its own between two probes, after a full
    collection and with the collector off (as ``timeit`` does: a
    collection lands on whichever run crosses its threshold); its seconds
    are scaled to the reference machine speed by the mean of those probes
    (``probe.ChunkClock``), so a machine that changes speed mid-bench
    moves every leg alike.
    """
    clock = probe.ChunkClock()
    clock.probe()
    samples: Dict[str, List[float]] = {name: [] for name in runs}
    for index in range(WARMUP + ROUNDS):
        for name, run in runs.items():
            gc.collect()
            gc.disable()
            try:
                start = perf_counter()
                run()
                elapsed = perf_counter() - start
            finally:
                gc.enable()
            (seconds,) = clock.close_chunk([elapsed])
            if index >= WARMUP:
                samples[name].append(seconds)
    return {name: leg(values) for name, values in samples.items()}


def before_after(before: Callable[[], Any],
                 after: Callable[[], Any]) -> Dict[str, Any]:
    """Legs ``before_s`` and ``after_s`` plus their ungated ``speedup``,
    the ratio of the medians."""
    row: Dict[str, Any] = legs({"before_s": before, "after_s": after})
    row["speedup"] = row["before_s"]["median"] / row["after_s"]["median"]
    return row


# ----------------------------------------------------------------------
# Results file
# ----------------------------------------------------------------------
def _leaves(value: Any, path: str = "") -> Iterator[Tuple[str, Any]]:
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else str(key))
    else:
        yield path, value


def dumps(payload: Mapping[str, Any]) -> str:
    """Indented JSON with each list of numbers (a leg's runs) on one line."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    return re.sub(r"\[([-+0-9.eE,\s]+)\]",
                  lambda match: "[" + " ".join(match.group(1).split()) + "]",
                  text) + "\n"


def write(name: str, results: Mapping[str, Any],
          modelled: Sequence[str] = ()) -> Path:
    """Write ``BENCH_<name>.json``: ``results`` plus a ``measured`` or
    ``modelled`` label for every leaf. A leaf is modelled when its dotted
    path is, or lies under, one of the ``modelled`` prefixes."""
    def label(path: str) -> str:
        return "modelled" if any(
            prefix == "" or path == prefix or path.startswith(prefix + ".")
            for prefix in modelled) else "measured"

    payload = {
        "generated_by": f"benchmarks/test_bench_{name}.py",
        "quick": QUICK,
        "results": results,
        "labels": {path: label(path) for path, _ in _leaves(results)},
    }
    path = ROOT / f"BENCH_{name}.json"
    path.write_text(dumps(payload), encoding="utf-8")
    print(f"  wrote {path}")
    return path


# ----------------------------------------------------------------------
# Gates
# ----------------------------------------------------------------------
def _baseline(name: str) -> Optional[Dict[str, Any]]:
    """The committed results for the current mode, or ``None``."""
    path = ROOT / "benchmarks" / f"BENCH_{name}_baseline.json"
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))["modes"].get(MODE)


def _diff(expected: Any, measured: Any, path: str) -> Iterator[str]:
    if isinstance(expected, dict) and isinstance(measured, dict):
        for key in sorted(set(expected) | set(measured)):
            sub = f"{path}.{key}" if path else key
            if key not in measured:
                yield f"{sub}: baseline {expected[key]!r}, not measured"
            elif key not in expected:
                yield f"{sub}: measured {measured[key]!r}, not in baseline"
            else:
                yield from _diff(expected[key], measured[key], sub)
    elif expected != measured:
        yield f"{path}: baseline {expected!r} != measured {measured!r}"


def exact(results: Mapping[str, Any], expected: Mapping[str, Any]
          ) -> List[str]:
    """Every field where ``results`` (as JSON reads it back) differs from
    the baseline, by dotted path."""
    return list(_diff(expected, json.loads(json.dumps(results)), ""))


def _timed_legs(value: Any, path: str = "") -> Iterator[Tuple[str, Any]]:
    if isinstance(value, dict):
        if "runs" in value:
            yield path, value
            return
        for key, item in value.items():
            yield from _timed_legs(item, f"{path}.{key}" if path else key)


def per_path(results: Mapping[str, Any], expected: Mapping[str, Any]
             ) -> List[str]:
    """Judge every timed leg against the baseline leg at the same path;
    print one line per leg and return the failing ones."""
    measured = dict(_timed_legs(results))
    committed = dict(_timed_legs(expected))
    failures = [f"{path}: in the baseline, not measured"
                for path in committed if path not in measured]
    for path, row in measured.items():
        base = committed.get(path)
        if base is None:
            failures.append(f"{path}: measured, not in the baseline")
            continue
        outcome = verdict(base["runs"], row["runs"], "lower", BOUND)
        line = (f"{path}: {row['median'] * 1e3:.3f} ms "
                f"[{row['q1'] * 1e3:.3f}, {row['q3'] * 1e3:.3f}] against "
                f"{base['median'] * 1e3:.3f} ms "
                f"[{base['q1'] * 1e3:.3f}, {base['q3'] * 1e3:.3f}]: "
                f"{outcome}")
        print(f"  {line}")
        if outcome in ("worse", "unresolved"):
            failures.append(line)
    return failures


def finish(name: str, results: Mapping[str, Any],
           gate: Optional[Callable[[Mapping[str, Any], Mapping[str, Any]],
                                   List[str]]],
           bounds: Mapping[str, bool] = {},
           modelled: Sequence[str] = ()) -> None:
    """Write the results, then assert once on every failed bound and,
    when gated, every failure ``gate`` finds against the baseline.

    ``bounds`` maps a description of each absolute bound (with the value
    it read) to whether it held.
    """
    write(name, results, modelled)
    failures = [f"bound: {text}" for text, held in bounds.items()
                if not held]
    if GATE and gate is not None:
        expected = _baseline(name)
        if expected is None:
            failures.append(
                f"no {MODE}-mode baseline in "
                f"benchmarks/BENCH_{name}_baseline.json")
        else:
            failures.extend(gate(results, expected))
    assert not failures, \
        f"BENCH_{name}: {len(failures)} check(s) failed:\n  " + \
        "\n  ".join(failures)
