"""End-to-end benchmark: four graded workloads timed from outside.

Run one workload, as a measuring harness calls it::

    python3 benchmarks/e2e/run.py --workload serve_mixed --seed 0 \\
        --seconds 20 --trace 0

or every workload, each in a fresh interpreter, one after another::

    python3 benchmarks/e2e/run.py --seed 0 [--trace] [--out runs.jsonl]

and compare two sets of runs written with ``--out``::

    python3 benchmarks/e2e/run.py compare A.jsonl B.jsonl

A run sets the workload up several times (``setup_s`` is the median),
warms its caches, then drives operations in a closed loop for
``--seconds``, grading every output outside the timed region. All
timings are probe-normalised (see ``probe.py``); raw wall-clock values
are recorded beside them as ``<metric>_wall``. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
``end_to_end`` metrics of ``BENCHMARK.json`` (``--trace 0``) or its
``per_layer`` metrics (``--trace 1``, a separate run that alternates
traced and untraced chunks). The exit code is 0 only when every output
was correct.
"""

from __future__ import annotations

import os

# One thread per run: numpy's BLAS pool would otherwise start a thread per
# core for vectors far too small to benefit.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import compileall
import gc
import importlib.util
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"


def _local(name: str):
    """Import ``<name>.py`` from this directory as ``e2e_<name>``; the
    file names (``trace`` in particular) would shadow stdlib modules if
    this directory went on ``sys.path``."""
    module_name = f"e2e_{name}"
    if module_name not in sys.modules:
        spec = importlib.util.spec_from_file_location(module_name,
                                                      HERE / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[module_name] = module
        spec.loader.exec_module(module)
    return sys.modules[module_name]


probe = _local("probe")
tracing = _local("trace")
workloads = _local("workloads")


def _fail(message: str, code: int = 2) -> None:
    print(f"run.py: {message}", file=sys.stderr)
    raise SystemExit(code)


def _load_json(path: Path) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _source_tree() -> None:
    """Put the checkout's ``src`` first on the path, compiled.

    Fails (rc 2, no result line) when the checkout has no source tree, so
    the benchmark can never time some other installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no source tree at {SRC}; run from a full checkout")
    # Byte-compiling is the build step: every run then imports the same
    # .pyc files whatever PYTHONDONTWRITEBYTECODE says.
    compileall.compile_dir(str(SRC / "repro"), quiet=1, workers=1)
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        _fail(f"imported repro from {repro.__file__}, not {SRC}")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of sorted ``ordered``."""
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return [values[0]] * 3
    return list(statistics.quantiles(values, n=4))


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
#: Chunks per block. Timings are computed per block of
#: ``BLOCK_CHUNKS * chunk_ops`` operations and reported as the median
#: over blocks, so a block the VM's speed changed under is outvoted.
#: 1,000 operations leave 10 samples beyond each block's p99.
BLOCK_CHUNKS = 5

#: Latency percentiles reported per block.
PERCENTILES = (50, 95, 99)


class Blocks:
    """Per-block throughput and latency percentiles of one time series.

    Only the open block's samples are held, so the benchmark's own
    memory does not grow with the number of operations (``peak_rss_mb``
    measures the system, not the sample store).
    """

    def __init__(self):
        self.rows: List[Tuple[float, ...]] = []
        self._open: List[float] = []
        self._chunks = 0
        self.seconds = 0.0
        self.ops = 0

    def add(self, times: Sequence[float]) -> None:
        """Append one chunk of operation seconds."""
        self._open.extend(times)
        self.seconds += sum(times)
        self.ops += len(times)
        self._chunks += 1
        if self._chunks == BLOCK_CHUNKS:
            self._close()

    def _close(self) -> None:
        times = sorted(self._open)
        self.rows.append((len(times) / sum(times),)
                         + tuple(percentile(times, q) * 1e3
                                 for q in PERCENTILES))
        self._open, self._chunks = [], 0

    def metrics(self, suffix: str = "") -> Dict[str, float]:
        """Median over blocks (a run shorter than a block is one block)."""
        if not self.rows:
            self._close()
        columns = list(zip(*self.rows))
        names = ["throughput_ops"] + [f"latency_p{q}_ms"
                                      for q in PERCENTILES]
        return {name + suffix: statistics.median(column)
                for name, column in zip(names, columns)}


class Measurement:
    """Operation timings (normalised and raw) and grading tallies."""

    def __init__(self):
        self.norm = Blocks()          # untraced chunks, reference speed
        self.wall = Blocks()          # untraced chunks, raw seconds
        self.traced_norm = Blocks()   # traced chunks
        self.traced_wall_s = 0.0
        self.outcomes: Counter = Counter()
        self.counters: Counter = Counter()   # public-stat deltas, traced
        self.attempted = 0


def _measure(workload, seconds: float, chunk: int, tracer
             ) -> Tuple[Measurement, Any]:
    """Closed loop over ``workload`` for ``seconds``, in probed chunks.

    With a tracer, chunks alternate untraced and traced, so both see the
    same cache state and machine speed; the loop then stops after a
    traced chunk.
    """
    clock = probe.ChunkClock()
    result = Measurement()
    clock.probe()
    previous = workload.counters()
    deadline = perf_counter() + seconds
    index = 0
    traced = False
    while True:
        if traced:
            tracer.install()
        raw = []
        for _ in range(chunk):
            if traced:
                tracer.begin_op(index)
            start = perf_counter()
            try:
                output = workload.run(index)
            except Exception as exc:  # a failed operation, graded below
                output = exc
            elapsed = perf_counter() - start
            if traced:
                tracer.end_op()
            raw.append(elapsed)
            _tally(result.outcomes, workload, index, output)
            index += 1
        if traced:
            tracer.uninstall()
        norm = clock.close_chunk(raw)
        current = workload.counters()
        if traced:
            result.traced_norm.add(norm)
            result.traced_wall_s += sum(raw)
            for key, value in current.items():
                result.counters[key] += value - previous.get(key, 0)
        else:
            result.norm.add(norm)
            result.wall.add(raw)
        previous = current
        if perf_counter() >= deadline and (tracer is None or traced):
            break
        traced = tracer is not None and not traced
    result.attempted = index
    return result, clock


def _tally(outcomes: Counter, workload, index: int, output) -> None:
    if isinstance(output, Exception):
        outcomes["error"] += 1
        return
    outcome = workload.grade(index, output)
    for key in ("error", "degraded", "wrong", "graded", "right"):
        outcomes[key] += getattr(outcome, key)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool, spec: Dict[str, Any]) -> Dict[str, Any]:
    """Set up, warm, measure and grade one workload; return its record.

    ``setup_s`` is the import, the median of ``setup_repeats`` builds and
    one warm-up pass, each normalised by the probes on either side.
    """
    workload_spec = spec["workloads"][name]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{name}-{os.getpid()}"
    phases = probe.PhaseClock()
    import_s, import_wall, _ = phases.time(
        lambda: workloads.import_modules(name))
    builds = []
    workload = None
    try:
        for _ in range(spec["setup_repeats"]):
            if workload is not None:
                workload.close()
                workload = None
                gc.collect()
            norm, raw, workload = phases.time(lambda: workloads.build(
                name, workload_spec, seed, quick, str(workdir)))
            builds.append((norm, raw, {key: value * norm / raw for key, value
                                       in workload.phases.items()}))
        warmup_s, warmup_wall, warm = phases.time(workload.warmup)
        warm_tally: Counter = Counter()
        for output in warm:
            _tally(warm_tally, workload, -1, output)
        gc.collect()
        tracer = tracing.Tracer() if trace else None
        chunk = max(1, spec["chunk_ops"] // (20 if quick else 1))
        measured, clock = _measure(workload, seconds, chunk, tracer)
        finish, finish_wrong = workload.finish(phases.time)
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = measured.outcomes
    attempted = measured.attempted + len(warm)
    failed = sum(tally["error"] + tally["degraded"] + tally["wrong"]
                 for tally in (outcomes, warm_tally)) + finish_wrong
    metrics: Dict[str, float] = {
        "setup_s": import_s + statistics.median(b[0] for b in builds)
        + warmup_s,
        "setup_s_wall": import_wall + statistics.median(b[1] for b in builds)
        + warmup_wall,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": outcomes["error"] / measured.attempted,
        "ops": measured.attempted,
    }
    if name.startswith("serve_"):
        metrics["degraded_rate"] = outcomes["degraded"] / measured.attempted
        # Graded on the warm-up pass: every distinct question once.
        metrics["answer_accuracy"] = (warm_tally["right"]
                                      / warm_tally["graded"])
    for key, (norm, raw) in finish.items():
        metrics[key] = norm
        metrics[f"{key}_wall"] = raw
    metrics.update(measured.norm.metrics())
    metrics.update(measured.wall.metrics("_wall"))

    record: Dict[str, Any] = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "quick": quick,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }
    if tracer is not None:
        setup = {f"setup.{key}_s": statistics.median(b[2][key]
                                                     for b in builds)
                 for key in builds[0][2]}
        setup.update({"setup.import_s": import_s,
                      "setup.warmup_s": warmup_s})
        record["layers"], record["self_ms_per_op"], record["accounting"] = \
            _layers(tracer, measured, clock, setup)
        record["spans_file"] = str(OUT / f"spans-{name}.jsonl")
        tracer.write_spans(record["spans_file"])
    return record


def _layers(tracer, measured: Measurement, clock,
            setup: Dict[str, float]) -> Tuple[Dict[str, float], ...]:
    ops = tracer.ops
    total = tracer.total_seconds()
    counters = tracer.counters
    traced = measured.traced_norm
    layers: Dict[str, float] = {}
    self_ms: Dict[str, float] = {}
    # Traced wall seconds -> reference-speed ms per op.
    to_ms = traced.seconds / measured.traced_wall_s * 1e3
    for span in (tracing.ROOT,) + tracing.SPANS:
        calls, self_s = tracer.spans[span]
        if span != tracing.ROOT:
            layers[f"{span}.calls_per_op"] = calls / ops
        layers[f"{span}.self_frac"] = self_s / total
        self_ms[span] = self_s / ops * to_ms

    def rate(hits: str, span: str) -> float:
        calls = tracer.spans[span][0]
        return counters[hits] / calls if calls else 0.0

    untraced = measured.norm
    layers.update(setup)
    layers.update({
        "llm.cache.hit_rate": rate("llm.cache.hits", "llm.cache"),
        "llm.tokens_per_op": counters["llm.tokens"] / ops,
        "kg.read.rows_per_op": counters["kg.read.rows"] / ops,
        "sparql.rows_per_op": counters["sparql.rows"] / ops,
        "kg.label.cache_hit_rate": rate("kg.label.hits", "kg.label"),
        "kg.replication.hedges_per_op": measured.counters["hedges"] / ops,
        "kg.replication.failovers_per_op":
            measured.counters["failovers"] / ops,
        "agent.steps_per_op": counters["agent.steps"] / ops,
        "kg.wal.bytes_per_op": counters["kg.wal.bytes"] / ops,
        # Tail latency from the same run's untraced chunks: too noisy on a
        # shared VM to gate at 10%, so reported per layer.
        "latency_p95_ms": untraced.metrics()["latency_p95_ms"],
        "latency_p99_ms": untraced.metrics()["latency_p99_ms"],
        "trace.overhead_frac": 1.0 - (untraced.seconds / untraced.ops)
        / (traced.seconds / traced.ops),
        "trace.op_ms": traced.seconds / traced.ops * 1e3,
        "probe.iqr_frac": clock.iqr_frac(),
    })
    accounting = {
        "root_s": total,
        "self_sum_s": sum(entry[1] for entry in tracer.spans.values()),
        "timed_s": measured.traced_wall_s,
    }
    return layers, self_ms, accounting


def _print_record(record: Dict[str, Any], bench: Dict[str, Any],
                  spec: Dict[str, Any]) -> None:
    """Every metric by name with its unit, then the JSON result line."""
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]
             + spec["gated_extras"] + spec["reported"]}
    metrics = record["metrics"]
    print(f"== {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} ops={record['attempted']} "
          f"failed={record['failed']}")
    for key in sorted(metrics):
        unit = units.get(key, units.get(key[:-len("_wall")], "")
                         if key.endswith("_wall") else "")
        print(f"  {key:<34} {metrics[key]:>14.6g} {unit}")
    if "layers" in record:
        print(f"  {'span':<20} {'calls/op':>10} {'self ms/op':>11} "
              f"{'self %':>7}")
        layers = record["layers"]
        for span, ms in record["self_ms_per_op"].items():
            calls = layers.get(f"{span}.calls_per_op", 1.0)
            share = layers[f"{span}.self_frac"]
            if calls or share:
                print(f"  {span:<20} {calls:>10.3f} {ms:>11.5f} "
                      f"{share * 100:>6.2f}%")
        for key in sorted(layers):
            if not key.endswith((".calls_per_op", ".self_frac")):
                print(f"  {key:<34} {layers[key]:>14.6g} "
                      f"{units.get(key, '')}")
    kind = "per_layer" if record["trace"] else "end_to_end"
    source = record.get("layers", {}) if record["trace"] else metrics
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": source[m["name"]],
                                "unit": m["unit"]}
                    for m in bench[kind]},
    }
    print(json.dumps(result))


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def _read_records(path: str) -> Dict[str, List[Dict[str, Any]]]:
    runs: Dict[str, List[Dict[str, Any]]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    runs.setdefault(record["workload"], []).append(record)
    return runs


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> str:
    """Verdict on run set ``b`` (the change) against ``a`` (the parent).

    ``worse`` or ``better`` when the medians differ by more than the
    bound, ``unresolved`` when either set's inter-quartile spread is wider
    than the bound (unless every run of ``b`` beats every run of ``a``),
    else ``within bound``. Exact metrics (``bound == 0``) read ``same``
    only when the medians are equal.
    """
    a_q, b_q = quartiles(a), quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    if bound == 0:
        if a_q[1] == b_q[1]:
            return "same"
        return "worse" if sign * (b_q[1] - a_q[1]) > 0 else "better"
    worse_by = sign * (b_q[1] - a_q[1]) / abs(a_q[1])
    spread = max((a_q[2] - a_q[0]) / abs(a_q[1]),
                 (b_q[2] - b_q[0]) / abs(b_q[1]))
    all_better = max(sign * v for v in b) < min(sign * v for v in a)
    if spread > bound and not all_better:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > bound:
        return "better"
    return "within bound"


def compare(path_a: str, path_b: str, bench: Dict[str, Any],
            spec: Dict[str, Any]) -> int:
    """Print per-workload medians, quartiles and verdicts; rc 1 on any
    worse verdict. Metrics under ``reported`` in ``spec.json`` are shown
    but not gated."""
    runs_a, runs_b = _read_records(path_a), _read_records(path_b)
    gated = [dict(m, workloads=None) for m in bench["end_to_end"]] \
        + spec["gated_extras"] + spec["reported"]
    worse = 0
    print(f"{'workload':<17} {'metric':<16} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30}  verdict")
    for name in sorted(set(runs_a) | set(runs_b)):
        if name not in runs_a or name not in runs_b:
            print(f"{name:<17} only in {'A' if name in runs_a else 'B'}")
            continue
        for metric in gated:
            if metric["workloads"] and name not in metric["workloads"]:
                continue
            key = metric["name"]
            a = [r["metrics"][key] for r in runs_a[name]]
            b = [r["metrics"][key] for r in runs_b[name]]
            result = (verdict(a, b, metric["better"], metric["bound"])
                      if "bound" in metric else "not gated")
            worse += result == "worse"
            qa, qb = quartiles(a), quartiles(b)
            print(f"{name:<17} {key:<16} "
                  f"{qa[1]:>12.6g} [{qa[0]:.6g}, {qa[2]:.6g}] "
                  f"{qb[1]:>12.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  {result}")
    return 1 if worse else 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def _parser(workloads: Sequence[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads,
                        help="run only this workload (default: all, each "
                             "in a fresh interpreter)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="1/20th sizes, for smoke tests only")
    parser.add_argument("--out", help="append each run's record (JSON "
                                      "lines) to this file")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    bench_path = ROOT / "BENCHMARK.json"
    if not bench_path.is_file():
        _fail(f"missing {bench_path}")
    bench = _load_json(bench_path)
    spec = _load_json(HERE / "spec.json")
    names = [w["name"] for w in bench["workloads"]]
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            _fail("usage: run.py compare A.jsonl B.jsonl")
        return compare(argv[1], argv[2], bench, spec)
    args = _parser(names).parse_args(argv)
    _source_tree()
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    if args.workload is None:
        code = 0
        for name in names:
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(seconds), "--trace", str(args.trace)]
            if args.quick:
                command.append("--quick")
            if args.out:
                command += ["--out", args.out]
            code = max(code, subprocess.run(command, check=False).returncode)
        return code
    record = run_workload(args.workload, args.seed, seconds,
                          bool(args.trace), args.quick, spec)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    _print_record(record, bench, spec)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
