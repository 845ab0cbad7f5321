"""Smoke test of the end-to-end benchmark at ``--quick`` size.

Run with ``pytest benchmarks/e2e -q``. Quick runs use 1/20th of every
size and a fraction of a second of load: they check the benchmark's
plumbing and its correctness checks, never performance.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
QUICK = ["--quick", "--seconds", "0.3"]


def _load_run():
    spec = importlib.util.spec_from_file_location("e2e_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["e2e_run"] = module
    spec.loader.exec_module(module)
    return module


run = _load_run()


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(tmp_path, workload, trace):
    out = tmp_path / "runs.jsonl"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--trace", str(trace), "--out", str(out), *QUICK],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCH[kind]}
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    if trace:
        record = json.loads(out.read_text(encoding="utf-8"))
        accounting = record["accounting"]
        # Self times of all spans sum to the root operation time, and the
        # root spans cover the timed operation time.
        assert accounting["self_sum_s"] == pytest.approx(
            accounting["root_s"], rel=0.01)
        assert accounting["root_s"] == pytest.approx(
            accounting["timed_s"], rel=0.01)
        shares = [v for k, v in record["layers"].items()
                  if k.endswith(".self_frac")]
        assert sum(shares) == pytest.approx(1.0, rel=0.01)


def _corrupt_answer(result):
    result.answer = "corrupted"
    return result


#: One deliberately wrong output per workload.
CORRUPT = {
    "serve_mixed": _corrupt_answer,
    "serve_agent": _corrupt_answer,
    "sparql_analytics": lambda rows: rows + [{"p": "corrupted"}],
    "kg_ingest": lambda lookups: lookups[:-1],
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_correctness_checks_fire_on_a_corrupted_answer(monkeypatch, capsys,
                                                       workload):
    build = run.workloads.build

    def corrupted_build(*args, **kwargs):
        workload_ = build(*args, **kwargs)
        honest = workload_.run
        workload_.run = lambda index: CORRUPT[workload](honest(index))
        return workload_

    monkeypatch.setattr(run.workloads, "build", corrupted_build)
    code = run.main(["--workload", workload, "--seed", "0", *QUICK])
    result = _last_json(capsys.readouterr().out)
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0


def test_exits_without_a_result_outside_a_full_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert run.verdict(base, base, "lower", 0.05) == "within bound"
    assert run.verdict(base, [v * 1.2 for v in base], "lower", 0.05) == "worse"
    assert run.verdict(base, [v * 0.8 for v in base], "lower", 0.05) == \
        "better"
    assert run.verdict(base, [v * 0.8 for v in base], "higher", 0.05) == \
        "worse"
    assert run.verdict(base, [50.0, 150.0, 100.0, 60.0, 140.0], "lower",
                       0.05) == "unresolved"
    assert run.verdict([0.8] * 3, [0.8] * 3, "higher", 0) == "same"
    assert run.verdict([0.8] * 3, [0.7] * 3, "higher", 0) == "worse"


def test_compare_reads_run_files(tmp_path, capsys):
    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: 1.0 for m in BENCH["end_to_end"]}
    metrics.update({"error_rate": 0.0, "degraded_rate": 0.0,
                    "answer_accuracy": 0.8})
    files = []
    for name, scale in (("a", 1.0), ("b", 2.0)):
        path = tmp_path / f"{name}.jsonl"
        records = [{"workload": "serve_mixed", "trace": 0,
                    "metrics": dict(metrics, latency_p50_ms=scale)}] * 3
        path.write_text("".join(json.dumps(r) + "\n" for r in records),
                        encoding="utf-8")
        files.append(str(path))
    assert run.compare(files[0], files[0], BENCH, spec) == 0
    assert run.compare(files[0], files[1], BENCH, spec) == 1
    assert "worse" in capsys.readouterr().out
