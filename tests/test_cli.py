"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_datasets_lists_all(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("covid", "encyclopedia", "enterprise", "family", "movie"):
            assert name in out

    def test_stats(self, capsys):
        assert main(["stats", "covid"]) == 0
        out = capsys.readouterr().out
        assert "triples: 113" in out

    def test_unknown_dataset_exits(self):
        with pytest.raises(SystemExit):
            main(["stats", "nonexistent"])

    def test_query(self, capsys):
        code = main(["query", "movie",
                     "PREFIX s: <http://repro.dev/schema/> "
                     "SELECT ?m WHERE { ?m a s:Movie } LIMIT 2"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("?m=") == 2

    def test_query_parse_error_returns_2(self, capsys):
        assert main(["query", "movie", "SELECT nonsense"]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_cypher(self, capsys):
        assert main(["cypher", "movie", "MATCH (m:Movie) RETURN count(m)"]) == 0
        assert "?count=" in capsys.readouterr().out

    def test_cypher_parse_error_returns_2(self, capsys):
        assert main(["cypher", "movie", "MATCH (m:Movie) RETURN count("]) == 2
        err = capsys.readouterr().err
        assert "parse error" in err and "Traceback" not in err

    def test_cypher_bad_translation_returns_2(self, capsys):
        # Parses as Cypher but translates to unparseable SPARQL (the escaped
        # quote survives into the label literal): must stay a one-line
        # message, not a traceback.
        query = 'MATCH (a {name: "x\\""})-[:r]->(x) RETURN x'
        assert main(["cypher", "movie", query]) == 2
        err = capsys.readouterr().err
        assert "parse error" in err and "Traceback" not in err

    def test_ask(self, capsys):
        code = main(["--seed", "3", "ask", "movie",
                     "What directed by The Silent Horizon?"])
        assert code == 0
        assert "Liam Berger" in capsys.readouterr().out

    def test_check_true_statement(self, capsys):
        code = main(["--seed", "3", "check", "movie",
                     "The Silent Horizon directed by Liam Berger."])
        assert code == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_validate_clean_dataset(self, capsys):
        assert main(["validate", "covid"]) == 0
        assert "consistent" in capsys.readouterr().out

    def test_table1_and_figure2(self, capsys):
        assert main(["table1"]) == 0
        assert "Fact Checking" in capsys.readouterr().out
        assert main(["figure2"]) == 0
        assert "Freebase" in capsys.readouterr().out

    def test_chat_reads_stdin(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("Hello!\n\n"))
        assert main(["--seed", "3", "chat", "movie"]) == 0
        assert "[greeting]" in capsys.readouterr().out

    def test_ask_no_answer(self, capsys):
        code = main(["ask", "covid", "xyzzy gibberish?"])
        assert code == 0
        assert "no answer" in capsys.readouterr().out


class TestObsCommands:
    def test_trace_then_report(self, tmp_path, capsys):
        out = str(tmp_path / "obs.jsonl")
        assert main(["obs", "trace", "movie", "--out", out,
                     "--workers", "2"]) == 0
        traced = capsys.readouterr().out
        assert "records in" in traced

        assert main(["obs", "report", out]) == 0
        report = capsys.readouterr().out
        # One JSONL export answers all five report sections.
        assert "Per-stage latency" in report
        assert "stage:map" in report and "stage:reduce" in report
        assert "LLM calls and batches" in report and "llm.model" in report
        assert "Cache hit rates" in report and "llm.cache" in report
        assert "kg.cache" in report
        assert "Fault injections" in report
        assert "Executor utilization" in report

    def test_trace_is_deterministic(self, tmp_path, capsys):
        # One worker: every FakeClock reading happens in program order, so
        # the export is byte-identical run to run (parallel runs guarantee
        # only a stable span-tree *shape* — see the determinism suite).
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        for out in (a, b):
            assert main(["obs", "trace", "family", "--out", out,
                         "--workers", "1", "--fault-rate", "0"]) == 0
        capsys.readouterr()
        with open(a, encoding="utf-8") as fa, open(b, encoding="utf-8") as fb:
            assert fa.read() == fb.read()

    def test_report_on_missing_trace_returns_2(self, capsys):
        assert main(["obs", "report", "/nonexistent/trace.jsonl"]) == 2
        err = capsys.readouterr().err
        assert "not found" in err and "Traceback" not in err

    def test_report_on_empty_trace_returns_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["obs", "report", str(empty)]) == 2
        err = capsys.readouterr().err
        assert "no records" in err

    def test_report_on_truncated_trace_returns_2(self, tmp_path, capsys):
        torn = tmp_path / "torn.jsonl"
        torn.write_text('{"kind": "counter", "name": "x"\n')
        assert main(["obs", "report", str(torn)]) == 2
        err = capsys.readouterr().err
        assert "torn.jsonl:1" in err and "Traceback" not in err


class TestKgDurability:
    def test_snapshot_then_recover(self, tmp_path, capsys):
        directory = str(tmp_path / "kg")
        assert main(["kg", "snapshot", "covid", directory]) == 0
        out = capsys.readouterr().out
        assert "snapshot of covid: 113 triples" in out

        assert main(["kg", "recover", directory]) == 0
        out = capsys.readouterr().out
        assert "recovered 113 triples" in out
        assert "0 torn bytes truncated" in out

    def test_snapshot_is_incremental(self, tmp_path, capsys):
        directory = str(tmp_path / "kg")
        assert main(["kg", "snapshot", "covid", directory]) == 0
        assert main(["kg", "snapshot", "covid", directory]) == 0
        out = capsys.readouterr().out
        assert "(0 new)" in out

    def test_recover_truncates_torn_wal(self, tmp_path, capsys):
        directory = str(tmp_path / "kg")
        assert main(["kg", "snapshot", "covid", directory]) == 0
        with open(f"{directory}/wal.log", "ab") as handle:
            handle.write(b"\x00\x00\x00\x30torn tail")
        assert main(["kg", "recover", directory]) == 0
        out = capsys.readouterr().out
        assert "13 torn bytes truncated" in out

    def test_recover_missing_directory_returns_2(self, tmp_path, capsys):
        assert main(["kg", "recover", str(tmp_path / "nope")]) == 0
        # A missing directory recovers to an empty store (mkdir + no state);
        # the report makes that visible rather than erroring.
        assert "recovered 0 triples" in capsys.readouterr().out

    def test_recover_sharded_directory_replays_past_snapshot(self, tmp_path,
                                                             capsys):
        from repro.kg.sharding import DurableShardedTripleStore
        from repro.kg.triples import IRI, Triple
        directory = str(tmp_path / "kg")
        store = DurableShardedTripleStore(directory, shards=4,
                                          snapshot_every=3)
        for i in range(10):
            store.add(Triple(IRI(f"http://ex.org/s{i}"),
                             IRI("http://ex.org/p"), IRI(f"http://ex.org/o{i}")))
        store.close()
        assert main(["kg", "recover", directory]) == 0
        out = capsys.readouterr().out
        assert "recovered 10 triples at lsn 10" in out
        assert "1 WAL records replayed" in out

    def test_recover_per_shard_layout_returns_2(self, tmp_path, capsys):
        shard_dir = tmp_path / "kg" / "shard-00"
        shard_dir.mkdir(parents=True)
        (shard_dir / "wal.log").write_bytes(b"")
        assert main(["kg", "recover", str(tmp_path / "kg")]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert "per-shard logs" in captured.err
        assert "Traceback" not in captured.err


class TestRunResume:
    def test_fresh_run_then_resume_is_byte_identical(self, tmp_path, capsys):
        journal = str(tmp_path / "run.jsonl")
        assert main(["run", "family", "--journal", journal,
                     "--questions", "4", "--batch-size", "2"]) == 0
        first = capsys.readouterr()
        assert main(["run", "--resume", journal]) == 0
        resumed = capsys.readouterr()
        assert resumed.out == first.out
        assert "4 restored" in resumed.err

    def test_fresh_run_requires_dataset_and_journal(self, capsys):
        assert main(["run", "family"]) == 2
        assert "--journal" in capsys.readouterr().err

    def test_resume_missing_journal_returns_2(self, tmp_path, capsys):
        assert main(["run", "--resume", str(tmp_path / "gone.jsonl")]) == 2
        assert "cannot resume" in capsys.readouterr().err

    def test_resume_foreign_journal_returns_2(self, tmp_path, capsys):
        journal = tmp_path / "foreign.jsonl"
        journal.write_text('{"type": "meta", "job": "other:job", '
                           '"config": {"dataset": "family", "seed": 0, '
                           '"model": "chatgpt", "fault_rate": 0.0, '
                           '"workers": 1, "questions": 2, '
                           '"batch_size": 2}}\n')
        assert main(["run", "--resume", str(journal)]) == 2
        assert "belongs to job" in capsys.readouterr().err

    def test_resume_journal_without_config_returns_2(self, tmp_path, capsys):
        journal = tmp_path / "bare.jsonl"
        journal.write_text('{"type": "meta", "job": '
                           '"graphrag:answer_global_batch", "config": {}}\n')
        assert main(["run", "--resume", str(journal)]) == 2
        assert "no run config" in capsys.readouterr().err


class TestServeCommands:
    def test_bench_passes_gate_and_writes_json(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main(["serve", "bench", "enterprise", "--requests", "60",
                     "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "baseline (1x)" in captured
        assert "overload (2x)" in captured
        assert "goodput under 2x overload" in captured
        import json
        reports = json.loads(out.read_text())
        assert set(reports) == {"baseline", "overload"}
        assert reports["overload"]["offered"] == 60

    def test_bench_is_deterministic(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main(["serve", "bench", "enterprise", "--requests", "40",
                         "--out", str(path)]) == 0
        capsys.readouterr()
        assert paths[0].read_text() == paths[1].read_text()

    def test_replay_reconciles(self, capsys):
        code = main(["serve", "replay", "enterprise", "--clients", "4",
                     "--requests-per-client", "3"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "admitted=" in captured and ": ok" in captured

    def test_replay_under_faults_and_throttling(self, tmp_path, capsys):
        jsonl = tmp_path / "serve.jsonl"
        code = main(["serve", "replay", "enterprise", "--clients", "4",
                     "--requests-per-client", "4", "--fault-rate", "0.3",
                     "--tenant-rate", "2.0", "--tenant-burst", "2",
                     "--jsonl", str(jsonl)])
        captured = capsys.readouterr().out
        assert code == 0
        assert ": ok" in captured
        assert jsonl.exists() and jsonl.stat().st_size > 0

    def test_replay_unknown_mix_returns_2(self, capsys):
        assert main(["serve", "replay", "enterprise",
                     "--mix", "nonsense"]) == 2
        assert "unknown mix" in capsys.readouterr().err


class TestStreamServeCommands:
    def test_stream_bench_passes_gate_and_writes_json(self, tmp_path,
                                                      capsys):
        out = tmp_path / "stream.json"
        code = main(["serve", "bench", "family", "--stream",
                     "--requests", "60", "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "continuous vs run-to-completion goodput" in captured
        assert "p50 TTFT" in captured
        import json
        reports = json.loads(out.read_text())
        assert set(reports) == {"continuous_baseline", "continuous_overload",
                                "run_to_completion_baseline",
                                "run_to_completion_overload"}
        for report in reports.values():
            assert report["streamed"] == \
                report["completed_streams"] + report["shed_mid_stream"]

    def test_stream_bench_is_deterministic(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main(["serve", "bench", "family", "--stream",
                         "--requests", "40", "--out", str(path)]) == 0
        capsys.readouterr()
        assert paths[0].read_text() == paths[1].read_text()

    def test_stream_replay_reconciles_under_faults(self, tmp_path, capsys):
        jsonl = tmp_path / "stream.jsonl"
        code = main(["serve", "replay", "family", "--stream",
                     "--clients", "5", "--requests-per-client", "8",
                     "--fault-rate", "0.3", "--jsonl", str(jsonl)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "completed_streams+shed_mid_stream" in captured
        assert ": ok" in captured
        text = jsonl.read_text()
        assert "serve.ttft" in text and "serve.ttft_p50" in text

    def test_stream_replay_run_to_completion_policy(self, capsys):
        code = main(["serve", "replay", "family", "--stream",
                     "--policy", "run_to_completion",
                     "--clients", "4", "--requests-per-client", "5"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "run_to_completion" in captured


class TestShardingCommands:
    def test_kg_stats_unsharded(self, capsys):
        assert main(["kg", "stats", "movie"]) == 0
        out = capsys.readouterr().out
        assert "store=TripleStore" in out
        assert "index fulltext:" in out and "index numeric:" in out
        assert "cache:" in out and "hit_rate=" in out
        assert "label-index:" in out
        assert "shard" not in out

    def test_kg_stats_sharded(self, capsys):
        assert main(["kg", "stats", "movie", "--shards", "4"]) == 0
        out = capsys.readouterr().out
        assert "store=ShardedTripleStore" in out
        for i in range(4):
            assert f"shard {i:02d}:" in out

    def test_sparql_explain(self, capsys):
        code = main(["sparql", "explain", "movie",
                     "PREFIX s: <http://repro.dev/schema/> "
                     "SELECT ?m ?y WHERE { ?m s:releaseYear ?y "
                     "FILTER (?y > 2005) }"])
        assert code == 0
        out = capsys.readouterr().out
        assert "QUERY PLAN" in out and "planner=cost" in out
        assert "access=NUMERIC(releaseYear)" in out
        assert "pushed FILTER" in out
        assert "rows:" in out

    def test_sparql_explain_sharded_shows_broadcast(self, capsys):
        code = main(["sparql", "explain", "movie", "--shards", "4",
                     "PREFIX s: <http://repro.dev/schema/> "
                     "SELECT ?m WHERE { ?m s:hasGenre ?g }"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[4 shards]" in out
        assert "@broadcast(4)" in out

    def test_sparql_explain_parse_error_returns_2(self, capsys):
        assert main(["sparql", "explain", "movie", "SELECT nonsense"]) == 2
        err = capsys.readouterr().err
        assert "parse error" in err and "Traceback" not in err

    def test_query_planner_modes_agree(self, capsys):
        query = ("PREFIX s: <http://repro.dev/schema/> "
                 "SELECT ?m WHERE { ?m s:releaseYear ?y "
                 "FILTER (?y > 2010) } ORDER BY ?m")
        outputs = {}
        for mode in ("greedy", "cost", "parse"):
            assert main(["query", "movie", "--planner", mode, query]) == 0
            outputs[mode] = capsys.readouterr().out
        assert outputs["greedy"] == outputs["cost"] == outputs["parse"]
        assert outputs["cost"].count("?m=") > 0


class TestAgentCommands:
    def test_agent_eval_prints_gate_numbers(self, capsys):
        assert main(["agent", "eval", "family", "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert "agent accuracy" in out
        assert "single-shot accuracy" in out
        assert "traces @ workers 1/4: identical" in out

    def test_agent_run_writes_replayable_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "episode.jsonl"
        code = main(["--seed", "1", "agent", "run", "movie",
                     "List what starring the sequel of "
                     "The Hidden Labyrinth?", "--trace", str(trace_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Thought:" in out and "Action:" in out
        assert "final:" in out and "stop=final" in out
        assert main(["agent", "show", str(trace_path)]) == 0
        shown = capsys.readouterr().out
        assert "question:" in shown and "final:" in shown

    def test_agent_run_tool_subset(self, capsys):
        code = main(["agent", "run", "movie", "hello there",
                     "--tools", "entity_search,neighbors"])
        assert code == 0

    def test_agent_run_unknown_tool_returns_2(self, capsys):
        code = main(["agent", "run", "movie", "anything?",
                     "--tools", "entity_search,warp_drive"])
        assert code == 2
        err = capsys.readouterr().err
        assert "warp_drive" in err and "Traceback" not in err

    def test_agent_run_unknown_dataset_returns_2(self, capsys):
        assert main(["agent", "run", "nonexistent", "anything?"]) == 2
        err = capsys.readouterr().err
        assert "unknown dataset" in err and "Traceback" not in err

    def test_agent_eval_unknown_dataset_returns_2(self, capsys):
        assert main(["agent", "eval", "nonexistent"]) == 2
        err = capsys.readouterr().err
        assert "unknown dataset" in err and "Traceback" not in err

    def test_agent_show_malformed_trace_returns_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        assert main(["agent", "show", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "malformed trace" in err and "Traceback" not in err

    def test_agent_show_missing_file_returns_2(self, capsys, tmp_path):
        assert main(["agent", "show", str(tmp_path / "nope.jsonl")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_agent_run_exports_obs(self, capsys, tmp_path):
        obs_path = tmp_path / "obs.jsonl"
        code = main(["--seed", "1", "agent", "run", "movie",
                     "List what starring the sequel of "
                     "The Hidden Labyrinth?", "--obs-out", str(obs_path)])
        assert code == 0
        text = obs_path.read_text()
        assert "agent:episode" in text and "agent:step" in text
