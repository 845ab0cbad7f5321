"""The benchmark gate helper (``benchmarks/gates.py``) on synthetic results.

The helper decides whether a gated bench run passes: exact equality for
the deterministic benches, per-leg verdicts against committed medians
for the wall-clock ones. These tests feed it made-up results, so they
need no timing and no benchmark run.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_GATES = Path(__file__).resolve().parent.parent / "benchmarks" / "gates.py"


def _load_gates():
    if "bench_gates" not in sys.modules:
        spec = importlib.util.spec_from_file_location("bench_gates", _GATES)
        module = importlib.util.module_from_spec(spec)
        sys.modules["bench_gates"] = module
        spec.loader.exec_module(module)
    return sys.modules["bench_gates"]


gates = _load_gates()

#: Per-round seconds of ``batch_ner``'s legs, spread about 4%.
_SPREAD = [0.98, 1.0, 1.02, 0.99, 1.01, 0.97, 1.03, 1.0, 0.99, 1.01, 1.0,
           0.98, 1.02, 1.0, 1.0]


def _leg(median: float, spread=_SPREAD) -> dict:
    return gates.leg([median * factor for factor in spread])


def _pair(before: float, after: float) -> dict:
    return {"batch_ner": {"before_s": _leg(before), "after_s": _leg(after),
                          "speedup": before / after}}


class TestExact:
    BASELINE = {"overload_2x": {"goodput": 18.2, "replication": {
        "reads": 594, "failovers": 20}}, "goodput_ratio": 1.85}

    def test_equal_results_pass(self):
        measured = json.loads(json.dumps(self.BASELINE))
        assert gates.exact(measured, self.BASELINE) == []

    def test_one_field_drift_names_its_dotted_path(self):
        measured = json.loads(json.dumps(self.BASELINE))
        measured["overload_2x"]["replication"]["failovers"] = 22
        failures = gates.exact(measured, self.BASELINE)
        assert len(failures) == 1
        assert failures[0].startswith("overload_2x.replication.failovers:")
        assert "20" in failures[0] and "22" in failures[0]

    def test_missing_and_added_fields_fail(self):
        measured = json.loads(json.dumps(self.BASELINE))
        del measured["goodput_ratio"]
        measured["overload_2x"]["tokens_out"] = 0
        failures = gates.exact(measured, self.BASELINE)
        assert [f.split(":")[0] for f in failures] == \
            ["goodput_ratio", "overload_2x.tokens_out"]

    def test_results_compare_as_json_reads_them(self):
        # A tuple is written as a list; the baseline holds the list.
        assert gates.exact({"workers": (1, 4)}, {"workers": [1, 4]}) == []


class TestPerPath:
    BASELINE = _pair(1.89e-3, 0.71e-3)

    def test_unchanged_legs_pass(self):
        assert gates.per_path(_pair(1.89e-3, 0.71e-3), self.BASELINE) == []

    def test_both_legs_faster_by_one_factor_passes(self):
        # Shared work got faster: both legs read ``better``.
        measured = _pair(1.89e-3 * 0.4, 0.71e-3 * 0.4)
        assert gates.per_path(measured, self.BASELINE) == []

    def test_before_leg_faster_alone_passes(self):
        # The ``batch_ner`` drift: the ratio falls below any floor, yet
        # neither path got slower.
        assert gates.per_path(_pair(0.9e-3, 0.71e-3), self.BASELINE) == []

    def test_one_leg_one_and_a_half_times_slower_fails(self):
        failures = gates.per_path(_pair(1.89e-3, 0.71e-3 * 1.5),
                                  self.BASELINE)
        assert len(failures) == 1
        assert failures[0].startswith("batch_ner.after_s:")
        assert failures[0].endswith("worse")

    def test_one_leg_a_third_slower_fails(self):
        failures = gates.per_path(_pair(1.89e-3 * 1.33, 0.71e-3),
                                  self.BASELINE)
        assert [f.split(":")[0] for f in failures] == ["batch_ner.before_s"]

    def test_both_legs_slower_together_fail(self):
        # A ratio sees nothing here.
        failures = gates.per_path(_pair(1.89e-3 * 1.4, 0.71e-3 * 1.4),
                                  self.BASELINE)
        assert len(failures) == 2

    def test_spread_wider_than_the_bound_is_unresolved(self):
        wide = [0.6, 1.4, 0.7, 1.3, 1.0, 0.65, 1.35, 1.0, 0.7, 1.3, 1.0,
                0.6, 1.4, 1.0, 1.0]
        measured = _pair(1.89e-3, 0.71e-3)
        measured["batch_ner"]["after_s"] = _leg(0.71e-3, wide)
        failures = gates.per_path(measured, self.BASELINE)
        assert len(failures) == 1
        assert failures[0].startswith("batch_ner.after_s:")
        assert failures[0].endswith("unresolved")

    def test_legs_must_match_the_baseline(self):
        measured = _pair(1.89e-3, 0.71e-3)
        measured["vocab"] = {"after_s": _leg(1e-3)}
        del measured["batch_ner"]["before_s"]
        failures = gates.per_path(measured, self.BASELINE)
        assert sorted(f.split(":")[0] for f in failures) == \
            ["batch_ner.before_s", "vocab.after_s"]


class TestFinish:
    @pytest.fixture
    def repo(self, tmp_path, monkeypatch):
        (tmp_path / "benchmarks").mkdir()
        monkeypatch.setattr(gates, "ROOT", tmp_path)
        monkeypatch.setattr(gates, "GATE", True)
        return tmp_path

    def _baseline(self, repo: Path, modes: dict) -> None:
        path = repo / "benchmarks" / "BENCH_demo_baseline.json"
        path.write_text(json.dumps({"modes": modes}), encoding="utf-8")

    def test_missing_baseline_under_the_gate_fails(self, repo):
        with pytest.raises(AssertionError, match="no .*-mode baseline"):
            gates.finish("demo", {"x": 1}, gates.exact)
        assert (repo / "BENCH_demo.json").exists()

    def test_baseline_without_this_mode_fails(self, repo):
        other = "full" if gates.MODE == "quick" else "quick"
        self._baseline(repo, {other: {"x": 1}})
        with pytest.raises(AssertionError, match="baseline"):
            gates.finish("demo", {"x": 1}, gates.exact)

    def test_matching_baseline_passes(self, repo):
        self._baseline(repo, {gates.MODE: {"x": 1}})
        gates.finish("demo", {"x": 1}, gates.exact)

    def test_ungated_run_skips_the_baseline(self, repo, monkeypatch):
        monkeypatch.setattr(gates, "GATE", False)
        gates.finish("demo", {"x": 1}, gates.exact)

    def test_every_failure_is_reported_in_one_assert(self, repo):
        self._baseline(repo, {gates.MODE: {"x": 1, "y": 2}})
        with pytest.raises(AssertionError) as raised:
            gates.finish("demo", {"x": 3, "y": 4}, gates.exact,
                         bounds={"tax 20% <= 10%": False, "ok": True})
        message = str(raised.value)
        assert "3 check(s) failed" in message
        for text in ("bound: tax 20% <= 10%", "x: baseline 1", "y: baseline 2"):
            assert text in message

    def test_every_leaf_is_labelled(self, repo):
        results = {"curve": {"4": {"critical_s": 1.0, "total_s": 3.0}},
                   "planner": {"cost_s": _leg(1e-3)}, "curvex": 2}
        gates.finish("demo", results, None,
                     modelled=["curve.4.critical_s", "curvex"])
        written = json.loads((repo / "BENCH_demo.json").read_text())
        assert written["results"] == json.loads(json.dumps(results))
        labels = written["labels"]
        assert labels["curve.4.critical_s"] == "modelled"
        assert labels["curve.4.total_s"] == "measured"
        assert labels["curvex"] == "modelled"
        assert labels["planner.cost_s.runs"] == "measured"
        assert set(labels) == {"curve.4.critical_s", "curve.4.total_s",
                               "planner.cost_s.median", "planner.cost_s.q1",
                               "planner.cost_s.q3", "planner.cost_s.runs",
                               "curvex"}

    def test_all_prefix_labels_everything_modelled(self, repo):
        gates.finish("demo", {"a": {"b": 1}, "c": 2}, None,
                     modelled=gates.ALL)
        written = json.loads((repo / "BENCH_demo.json").read_text())
        assert set(written["labels"].values()) == {"modelled"}


def test_legs_time_every_callable_for_the_fixed_rounds():
    calls = {"a": 0, "b": 0}

    def bump(name):
        calls[name] += 1

    row = gates.legs({"a": lambda: bump("a"), "b": lambda: bump("b")})
    assert calls == {"a": gates.WARMUP + gates.ROUNDS,
                     "b": gates.WARMUP + gates.ROUNDS}
    for leg in row.values():
        assert len(leg["runs"]) == gates.ROUNDS
        assert leg["q1"] <= leg["median"] <= leg["q3"]
