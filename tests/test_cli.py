import hashlib
import json
import os
import sqlite3
from contextlib import closing

import pytest

from sqlbench import evaluate
from sqlbench.cli import main
from sqlbench.fuzz import build_test_suite

from conftest import FIXTURE_QUESTIONS, ONE_CPU, make_network1_db, run_python


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def prompts_file(workdir, fixture_benchmark_path, db_root):
    out = workdir / "prompts.jsonl"
    rc = run("prompt", "--benchmark", fixture_benchmark_path, "--db-root", db_root,
             "--prompt", "create+select:3", "--out", out)
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def gold_predictions(workdir, prompts_file, fixture_benchmark_path):
    out = workdir / "predictions.jsonl"
    rc = run("predict", "--prompts", prompts_file, "--backend", "gold",
             "--benchmark", fixture_benchmark_path, "--out", out)
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def outcomes_file(workdir, gold_predictions, fixture_benchmark_path, db_root):
    out = workdir / "outcomes.jsonl"
    rc = run("eval", "--benchmark", fixture_benchmark_path, "--db-root", db_root,
             "--predictions", gold_predictions, "--suite-k", "4", "--suite-seed", "7",
             "--cache", workdir / "suites", "--out", out)
    assert rc == 0
    return out


class TestPrompt:
    def test_one_record_per_example(self, prompts_file):
        records = read_jsonl(prompts_file)
        assert len(records) == len(FIXTURE_QUESTIONS)
        assert all(r["prompt"].endswith("SELECT") for r in records)
        assert all(r["est_tokens"] > 0 for r in records)

    def test_manifest_sidecar(self, prompts_file):
        manifest = json.loads((prompts_file.parent / "prompts.jsonl.manifest.json").read_text())
        assert manifest["config"]["prompt"] == "create+select:3"
        assert len(manifest["config_hash"]) == 16
        assert manifest["skipped"] == []

    def test_over_budget_examples_skipped_not_fatal(self, workdir, fixture_benchmark_path,
                                                    db_root, capsys):
        out = workdir / "tiny.jsonl"
        rc = run("prompt", "--benchmark", fixture_benchmark_path, "--db-root", db_root,
                 "--prompt", "create+select:3", "--context-tokens", "120",
                 "--completion-reserve", "10", "--out", out)
        assert rc == 0
        assert read_jsonl(out) == []
        assert "budget" in capsys.readouterr().err

    def test_shots_without_train_errors(self, workdir, fixture_benchmark_path, db_root):
        rc = run("prompt", "--benchmark", fixture_benchmark_path, "--db-root", db_root,
                 "--prompt", "question", "--shots", "2", "--out", workdir / "x.jsonl")
        assert rc == 2

    def test_few_shot_writes_support_sidecar(self, workdir, fixture_benchmark_path, db_root):
        out = workdir / "fewshot.jsonl"
        rc = run("prompt", "--benchmark", fixture_benchmark_path, "--db-root", db_root,
                 "--train", fixture_benchmark_path, "--prompt", "create+select:3",
                 "--shots", "2", "--seed", "1", "--out", out)
        assert rc == 0
        support = json.loads((workdir / "fewshot.support.json").read_text())
        assert support["n"] == 2 and len(support["examples"]) == 2
        assert all(r["shots_used"] == 2 for r in read_jsonl(out))

    def test_unlexable_train_gold_reported(self, workdir, fixture_benchmark_path, db_root,
                                           capsys):
        train = workdir / "train_unlexable.json"
        train.write_text(json.dumps([
            {"db_id": "network_1", "question": "q0", "query": "SELECT a FROM t WHERE a = ?1"},
            {"db_id": "network_1", "question": "q1", "query": "SELECT count(*) FROM Likes"},
        ]))
        out = workdir / "unlexable.jsonl"
        rc = run("prompt", "--benchmark", fixture_benchmark_path, "--db-root", db_root,
                 "--train", train, "--prompt", "question", "--shots", "2", "--out", out)
        assert rc == 0
        assert "warning: train: e0000: excluded from templates" in capsys.readouterr().err
        support = json.loads((workdir / "unlexable.support.json").read_text())
        assert support["n"] == 1 and len(support["examples"]) == 1
        assert all(r["shots_used"] == 1 for r in read_jsonl(out))

    def test_train_without_lexable_gold_refused(self, workdir, fixture_benchmark_path,
                                                db_root, capsys):
        train = workdir / "train_all_unlexable.json"
        train.write_text(json.dumps([
            {"db_id": "network_1", "question": "q0", "query": "SELECT a FROM t WHERE a = ?1"},
            {"db_id": "network_1", "question": "q1", "query": "SELECT b FROM t WHERE b = ?2"},
        ]))
        out = workdir / "all-unlexable.jsonl"
        rc = run("prompt", "--benchmark", fixture_benchmark_path, "--db-root", db_root,
                 "--train", train, "--prompt", "question", "--shots", "2", "--out", out)
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(" (")[0] for line in lines] == [
            "warning: train: e0000: excluded from templates",
            "warning: train: e0001: excluded from templates",
            "error: training split has no template groups",
        ]
        assert not out.exists()

    def test_config_file_supplies_defaults(self, workdir, fixture_benchmark_path, db_root):
        cfg = workdir / "run.yaml"
        cfg.write_text(
            f"benchmark: {fixture_benchmark_path}\ndb_root: {db_root}\n"
            f"prompt: question\nout: {workdir / 'from_config.jsonl'}\n"
        )
        assert run("prompt", "--config", cfg) == 0
        records = read_jsonl(workdir / "from_config.jsonl")
        assert records and "Using valid SQLite" in records[0]["prompt"]

    def test_train_recorded_only_for_few_shot(self, workdir, fixture_benchmark_path,
                                              db_root):
        other_train = workdir / "other_train.json"
        other_train.write_text(fixture_benchmark_path.read_text())
        configs = []
        for name, shots, train in (("a", 2, fixture_benchmark_path), ("b", 2, other_train),
                                   ("zero", 0, other_train)):
            out = workdir / f"train-{name}.jsonl"
            assert run("prompt", "--benchmark", fixture_benchmark_path, "--db-root", db_root,
                       "--prompt", "question", "--shots", shots, "--train", train,
                       "--out", out) == 0
            configs.append(json.loads((workdir / f"train-{name}.jsonl.manifest.json")
                                      .read_text()))
        few_a, few_b, zero = configs
        assert few_a["config"]["train"] == str(fixture_benchmark_path)
        assert few_a["config_hash"] != few_b["config_hash"]
        assert "train" not in zero["config"]

    def test_without_benchmark_refused(self, workdir, db_root, capsys):
        out = workdir / "no-benchmark.jsonl"
        assert run("prompt", "--db-root", db_root, "--out", out) == 2
        assert "--benchmark or the config key benchmark" in capsys.readouterr().err
        assert not out.exists()


class TestConfig:
    def test_missing_config_file_refused(self, workdir, db_root, capsys):
        cfg = workdir / "no-such.yaml"
        rc = run("suite", "--config", cfg, "--db", db_root / "network_1" / "network_1.sqlite",
                 "--cache", workdir / "no-config-suites")
        assert rc == 2
        assert str(cfg) in capsys.readouterr().err
        assert not (workdir / "no-config-suites").exists()

    def test_invalid_yaml_refused(self, workdir, db_root, capsys):
        cfg = workdir / "broken.yaml"
        cfg.write_text("suite_k: [2\n")
        rc = run("suite", "--config", cfg, "--db", db_root / "network_1" / "network_1.sqlite",
                 "--cache", workdir / "broken-suites")
        assert rc == 2
        assert str(cfg) in capsys.readouterr().err
        assert not (workdir / "broken-suites").exists()

    @pytest.fixture(scope="class")
    def run_yaml(self, workdir, fixture_benchmark_path, db_root):
        """One file holding keys of the prompt, predict and eval stages."""
        cfg = workdir / "all-stages.yaml"
        cfg.write_text(
            f"benchmark: {fixture_benchmark_path}\ndb_root: {db_root}\n"
            "prompt: question\nbackend: gold\ntemperature: 0\n"
            f"suite_k: 2\ncache: {workdir / 'suites'}\n"
        )
        return cfg

    def test_one_file_serves_every_stage(self, workdir, run_yaml):
        prompts, preds = workdir / "all.prompts.jsonl", workdir / "all.predictions.jsonl"
        assert run("prompt", "--config", run_yaml, "--out", prompts) == 0
        assert run("predict", "--config", run_yaml, "--prompts", prompts, "--out", preds) == 0
        out = workdir / "all.outcomes.jsonl"
        assert run("eval", "--config", run_yaml, "--predictions", preds, "--out", out) == 0
        assert all(r["ts"] for r in read_jsonl(out))

    def test_yaml_integer_temperature_recorded_as_float(self, workdir, run_yaml,
                                                        prompts_file):
        out = workdir / "temp0.jsonl"
        assert run("predict", "--config", run_yaml, "--prompts", prompts_file,
                   "--out", out) == 0
        manifest_text = (workdir / "temp0.jsonl.manifest.json").read_text()
        assert '"temperature": 0.0' in manifest_text

    def test_flag_wins_over_config(self, workdir, run_yaml):
        out = workdir / "flag-wins.jsonl"
        assert run("prompt", "--config", run_yaml, "--prompt", "create",
                   "--out", out) == 0
        manifest = json.loads((workdir / "flag-wins.jsonl.manifest.json").read_text())
        assert manifest["config"]["prompt"] == "create"
        assert "CREATE TABLE" in read_jsonl(out)[0]["prompt"]

    @pytest.mark.parametrize("key", ["timout_ms", "suite-k"])
    def test_unknown_key_refused(self, workdir, gold_predictions, fixture_benchmark_path,
                                 db_root, key, capsys):
        cfg = workdir / f"typo-{key}.yaml"
        cfg.write_text(f"{key}: 2\n")
        out = workdir / f"typo-{key}.jsonl"
        rc = run("eval", "--config", cfg, "--benchmark", fixture_benchmark_path,
                 "--db-root", db_root, "--predictions", gold_predictions, "--suite-k", "2",
                 "--cache", workdir / "suites", "--out", out)
        assert rc == 2
        err = capsys.readouterr().err
        assert repr(key) in err and str(cfg) in err
        assert not out.exists()

    def test_empty_key_takes_the_default(self, workdir, fixture_benchmark_path, db_root):
        cfg = workdir / "empty-key.yaml"
        cfg.write_text("shots:\nseed:\n")
        out = workdir / "empty-key.jsonl"
        assert run("prompt", "--config", cfg, "--benchmark", fixture_benchmark_path,
                   "--db-root", db_root, "--out", out) == 0
        config = json.loads((workdir / "empty-key.jsonl.manifest.json").read_text())["config"]
        assert (config["shots"], config["seed"]) == (0, 0)

    @pytest.mark.parametrize("line,shown", [
        ("suite_k: many", "suite_k 'many'"),
        ("suite_k: 4.7", "suite_k 4.7"),
        ("suite_seed: true", "suite_seed True"),
        ("suite_k: [4]", "suite_k [4]"),
        ("suite_seed: {seed: 1}", "suite_seed {'seed': 1}"),
    ], ids=["text", "float", "bool", "list", "mapping"])
    def test_value_of_wrong_type_refused(self, tmp_path, db_root, capsys, line, shown):
        cfg = tmp_path / "bad-value.yaml"
        cfg.write_text(line + "\n")
        rc = run("suite", "--config", cfg, "--db", db_root / "network_1" / "network_1.sqlite",
                 "--cache", tmp_path / "bad-value-suites")
        assert rc == 2
        assert f"error: {shown} in {cfg}" in capsys.readouterr().err
        assert not (tmp_path / "bad-value-suites").exists()


class TestPredict:
    def test_gold_backend_round_trips_gold_sql(self, gold_predictions):
        records = read_jsonl(gold_predictions)
        by_id = {r["example_id"]: r["sql"] for r in records}
        assert by_id["e0001"] == "SELECT name FROM Highschooler"

    def test_defaults_match_decoding_setup(self, gold_predictions):
        config = json.loads(
            (gold_predictions.parent / "predictions.jsonl.manifest.json").read_text())["config"]
        assert (config["max_tokens"], config["temperature"]) == (200, 0.0)

    def test_manifest_carries_prompt_provenance(self, gold_predictions):
        manifest = json.loads(
            (gold_predictions.parent / "predictions.jsonl.manifest.json").read_text())
        assert manifest["prompt_config"]["prompt"] == "create+select:3"
        assert manifest["prompt_config_hash"]

    def test_replay_backend(self, workdir, prompts_file):
        replay = workdir / "replay.jsonl"
        records = read_jsonl(prompts_file)
        replay.write_text("".join(
            json.dumps({"example_id": r["example_id"],
                        "raw_completion": " count(*) FROM Highschooler;"}) + "\n"
            for r in records))
        out = workdir / "replayed.jsonl"
        rc = run("predict", "--prompts", prompts_file, "--backend", "replay",
                 "--replay-file", replay, "--out", out)
        assert rc == 0
        assert all(r["sql"] == "SELECT count(*) FROM Highschooler"
                   for r in read_jsonl(out))

    def test_replay_missing_key_fails(self, workdir, prompts_file, capsys):
        replay = workdir / "partial.jsonl"
        replay.write_text(json.dumps({"example_id": "e0000",
                                      "raw_completion": "1"}) + "\n")
        rc = run("predict", "--prompts", prompts_file, "--backend", "replay",
                 "--replay-file", replay, "--out", workdir / "junk.jsonl")
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_sql_out_plain_lines(self, workdir, fixture_benchmark_path, db_root):
        """One line per benchmark example, in benchmark order, empty for the
        examples the prompt stage skipped."""
        prompts, sql_out = workdir / "budget.prompts.jsonl", workdir / "budget.sql"
        assert run("prompt", "--benchmark", fixture_benchmark_path, "--db-root", db_root,
                   "--context-tokens", "264", "--completion-reserve", "10",
                   "--out", prompts) == 0
        skipped = json.loads((workdir / "budget.prompts.jsonl.manifest.json").read_text())[
            "skipped"]
        assert len(skipped) == 4
        golds = [sql for _, sql in FIXTURE_QUESTIONS]
        # the second into a directory that does not exist yet
        for sql_out in (sql_out, workdir / "sql-dir" / "budget.sql"):
            assert run("predict", "--prompts", prompts, "--backend", "gold",
                       "--benchmark", fixture_benchmark_path, "--out", workdir / "p2.jsonl",
                       "--sql-out", sql_out) == 0
            assert sql_out.read_text().splitlines() == [
                "" if f"e{i:04d}" in skipped else sql for i, sql in enumerate(golds)]

    def test_sql_out_needs_prompt_manifest(self, workdir, prompts_file, capsys):
        """Refused before any completion is asked for: the empty replay file
        would fail the first one with exit 1."""
        bare, replay = workdir / "bare.prompts.jsonl", workdir / "empty-replay.jsonl"
        bare.write_text(prompts_file.read_text())
        replay.write_text("")
        out = workdir / "bare.predictions.jsonl"
        assert run("predict", "--prompts", bare, "--replay-file", replay, "--out", out,
                   "--sql-out", workdir / "bare.sql") == 2
        assert f"{bare}.manifest.json" in capsys.readouterr().err
        assert not out.exists() and not (workdir / "bare.sql").exists()

    def test_replay_without_replay_file_errors(self, workdir, prompts_file, capsys):
        rc = run("predict", "--prompts", prompts_file, "--backend", "replay",
                 "--out", workdir / "junk2.jsonl")
        assert rc == 2
        assert "--replay-file" in capsys.readouterr().err

    def test_unknown_backend(self, workdir, prompts_file, capsys):
        cfg = workdir / "nope.yaml"
        cfg.write_text("backend: nope\n")
        out = workdir / "junk3.jsonl"
        rc = run("predict", "--config", cfg, "--prompts", prompts_file, "--out", out)
        assert rc == 2
        assert "'nope'" in capsys.readouterr().err
        assert not out.exists()


class TestEval:
    def test_oracle_outcomes_all_correct(self, outcomes_file):
        records = read_jsonl(outcomes_file)
        assert len(records) == len(FIXTURE_QUESTIONS)
        assert all(r["valid"] and r["ex"] and r["ts"] for r in records)

    def test_manifest_records_gold_broken(self, outcomes_file, db_root):
        manifest = json.loads(
            (outcomes_file.parent / "outcomes.jsonl.manifest.json").read_text())
        assert manifest["gold_broken"] == []
        assert manifest["n_outcomes"] == len(FIXTURE_QUESTIONS)
        # suite provenance sits outside the config, so config_hash does not move
        suite = build_test_suite(db_root / "network_1" / "network_1.sqlite", 4, 7,
                                 outcomes_file.parent / "suites", db_id="network_1")
        assert manifest["suites"] == {"network_1": {
            "source_sha256": hashlib.sha256(suite.variants[0].read_bytes()).hexdigest(),
            "suite_hash": suite.content_hash}}
        assert "suites" not in manifest["config"]
        assert manifest["model"] == ""

    def test_manifest_counts_queries(self, workdir, fixture_benchmark_path, db_root,
                                     monkeypatch):
        golds = [sql for _, sql in FIXTURE_QUESTIONS]
        # verbatim gold, the same query respaced, and an invalid one, in turn
        sqls = [(gold, gold + " ", "SELECT nocol FROM Friend")[i % 3]
                for i, gold in enumerate(golds)]
        preds = workdir / "mixed.predictions.jsonl"
        preds.write_text("".join(json.dumps({"example_id": f"e{i:04d}", "sql": sql}) + "\n"
                                 for i, sql in enumerate(sqls)))
        calls = []
        execute_sql = evaluate.execute_sql

        def counting_execute_sql(*args):
            calls.append(args[1])
            return execute_sql(*args)

        monkeypatch.setattr(evaluate, "execute_sql", counting_execute_sql)
        counts = []
        for out in ("cold.jsonl", "warm.jsonl"):
            calls.clear()
            assert run("eval", "--benchmark", fixture_benchmark_path, "--db-root", db_root,
                       "--predictions", preds, "--suite-k", "4", "--suite-seed", "7",
                       "--cache", workdir / "queries-suites", "--out", workdir / out) == 0
            manifest = json.loads((workdir / f"{out}.manifest.json").read_text())
            assert manifest["queries"] == len(calls)
            counts.append(len(calls))
        assert counts[0] > counts[1] > 0

    def test_without_db_root_refused(self, workdir, gold_predictions,
                                     fixture_benchmark_path, capsys):
        out = workdir / "no-db-root.jsonl"
        assert run("eval", "--benchmark", fixture_benchmark_path,
                   "--predictions", gold_predictions, "--out", out) == 2
        assert "--db-root or the config key db_root" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [0, -5])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_timeout_below_one_refused(self, workdir, gold_predictions,
                                       fixture_benchmark_path, db_root, capsys, value, source):
        out = workdir / f"timeout-{source}{value}.jsonl"
        config = workdir / f"timeout{value}.yaml"
        config.write_text(f"timeout_ms: {value}\n")
        setting = (f"--timeout-ms={value}",) if source == "flag" else ("--config", config)
        assert run("eval", "--benchmark", fixture_benchmark_path, "--db-root", db_root,
                   "--predictions", gold_predictions, "--suite-k", "2",
                   "--cache", workdir / "suites", "--out", out, *setting) == 2
        err = capsys.readouterr().err
        assert err == f"error: timeout_ms must be at least 1, not {value}\n"
        assert not out.exists()

    def test_benchmark_mismatch_refused(self, workdir, gold_predictions,
                                        fixture_benchmark_path, db_root, capsys):
        other = workdir / "other_bench.json"
        other.write_text(fixture_benchmark_path.read_text())
        rc = run("eval", "--benchmark", other, "--db-root", db_root,
                 "--predictions", gold_predictions, "--suite-k", "2",
                 "--cache", workdir / "suites", "--out", workdir / "mm.jsonl")
        assert rc == 2
        assert "allow-mismatch" in capsys.readouterr().err

    def test_allow_mismatch_overrides(self, workdir, gold_predictions,
                                      fixture_benchmark_path, db_root):
        other = workdir / "other_bench2.json"
        other.write_text(fixture_benchmark_path.read_text())
        rc = run("eval", "--benchmark", other, "--db-root", db_root,
                 "--predictions", gold_predictions, "--suite-k", "2",
                 "--cache", workdir / "suites", "--allow-mismatch",
                 "--out", workdir / "mm2.jsonl")
        assert rc == 0

    def test_duplicate_prediction_id_refused(self, workdir, gold_predictions,
                                             fixture_benchmark_path, db_root, capsys):
        lines = gold_predictions.read_text().splitlines()
        first_id = json.loads(lines[0])["example_id"]
        dup = workdir / "dup_predictions.jsonl"
        dup.write_text("\n".join(lines + [lines[0]]) + "\n")
        out = workdir / "dup.jsonl"
        rc = run("eval", "--benchmark", fixture_benchmark_path, "--db-root", db_root,
                 "--predictions", dup, "--suite-k", "2",
                 "--cache", workdir / "suites", "--out", out)
        assert rc == 2
        assert repr(first_id) in capsys.readouterr().err
        assert not out.exists()


class TestReport:
    def test_metrics_markdown(self, outcomes_file, capsys):
        rc = run("report", "metrics", "--runs", outcomes_file)
        assert rc == 0
        out = capsys.readouterr().out
        assert "100.0" in out and "VA" in out

    def test_metrics_csv_to_file(self, workdir, outcomes_file):
        # the second into a directory that does not exist yet
        for dest in (workdir / "metrics.csv", workdir / "metrics-dir" / "metrics.csv"):
            rc = run("report", "metrics", "--runs", outcomes_file, "--format", "csv",
                     "--out", dest)
            assert rc == 0
            assert "va_pct" in dest.read_text()

    def test_runs_differing_by_model_get_their_own_rows(
            self, workdir, prompts_file, outcomes_file, fixture_benchmark_path, db_root):
        ids = [r["example_id"] for r in read_jsonl(prompts_file)]
        runs = []
        for model, completion in (("model-a", " count(*) FROM Highschooler;"),
                                  ("model-b", " name FROM Highschooler;")):
            replay = workdir / f"replay-{model}.jsonl"
            replay.write_text("".join(json.dumps({"example_id": i, "raw_completion": completion})
                                      + "\n" for i in ids))
            preds, out = workdir / f"preds-{model}.jsonl", workdir / f"outcomes-{model}.jsonl"
            assert run("predict", "--prompts", prompts_file, "--backend", "replay",
                       "--replay-file", replay, "--model", model, "--out", preds) == 0
            assert run("eval", "--benchmark", fixture_benchmark_path, "--db-root", db_root,
                       "--predictions", preds, "--suite-k", "2",
                       "--cache", workdir / "suites", "--out", out) == 0
            runs.append(out)
        dest = workdir / "by-model.json"
        assert run("report", "metrics", "--runs", outcomes_file, *runs,
                   "--format", "json", "--out", dest) == 0
        labels = [r["label"] for r in json.loads(dest.read_text())]
        assert sorted(labels) == ["fixture_dev / create+select:3",
                                  "fixture_dev / model-a / create+select:3",
                                  "fixture_dev / model-b / create+select:3"]

    def test_few_shot_label(self, workdir, fixture_benchmark_path, db_root):
        prompts, preds = workdir / "4shot.prompts.jsonl", workdir / "4shot.predictions.jsonl"
        out = workdir / "4shot.outcomes.jsonl"
        assert run("prompt", "--benchmark", fixture_benchmark_path, "--db-root", db_root,
                   "--train", fixture_benchmark_path, "--prompt", "create", "--shots", "4",
                   "--out", prompts) == 0
        assert run("predict", "--prompts", prompts, "--backend", "gold", "--model", "m",
                   "--benchmark", fixture_benchmark_path, "--out", preds) == 0
        assert run("eval", "--benchmark", fixture_benchmark_path, "--db-root", db_root,
                   "--predictions", preds, "--suite-k", "2", "--cache", workdir / "suites",
                   "--out", out) == 0
        dest = workdir / "4shot.json"
        assert run("report", "metrics", "--runs", out, "--format", "json",
                   "--out", dest) == 0
        assert [r["label"] for r in json.loads(dest.read_text())] == [
            "fixture_dev / m / create / 4-shot"]

    def test_runs_sharing_a_label_keep_their_gold_broken_counts(self, tmp_path):
        for name, n_broken in (("run1", 3), ("run2", 0)):
            outcomes = tmp_path / f"{name}.jsonl"
            outcomes.write_text(json.dumps({"example_id": "e0", "valid": True, "ex": True,
                                            "ts": True}) + "\n")
            manifest = {"config": {"benchmark": "dev.json"}, "model": "m",
                        "prompt_config": {"prompt": "create"},
                        "gold_broken": [f"b{i}" for i in range(n_broken)]}
            (tmp_path / f"{name}.jsonl.manifest.json").write_text(json.dumps(manifest))
        dest = tmp_path / "metrics.json"
        assert run("report", "metrics", "--runs", tmp_path / "run*.jsonl", "--format", "json",
                   "--out", dest) == 0
        rows = json.loads(dest.read_text())
        assert [(r["label"], r["n_gold_broken"]) for r in rows] == [
            ("dev / m / create", 3), ("dev / m / create", 0)]

    def test_zero_shot_label_omits_shots(self, workdir, outcomes_file):
        dest = workdir / "zero-shot.json"
        assert run("report", "metrics", "--runs", outcomes_file, "--format", "json",
                   "--out", dest) == 0
        [row] = json.loads(dest.read_text())
        assert row["label"] == "fixture_dev / create+select:3"

    def test_no_matching_runs(self, workdir, capsys):
        rc = run("report", "metrics", "--runs", workdir / "nope-*.jsonl")
        assert rc == 2

    def test_breakdown(self, outcomes_file, capsys):
        rc = run("report", "breakdown", "--runs", outcomes_file)
        assert rc == 0
        assert "Test-Suite Correct" in capsys.readouterr().out

    def test_curve_needs_two_shot_counts(self, outcomes_file, capsys):
        rc = run("report", "curve", "--runs", outcomes_file)
        assert rc == 2


class TestSuiteCommand:
    def test_without_db_refused(self, workdir, capsys):
        assert run("suite", "--cache", workdir / "no-db-suites") == 2
        assert "--db or the config key db" in capsys.readouterr().err
        assert not (workdir / "no-db-suites").exists()

    def test_generates_variants(self, workdir, db_root, capsys):
        rc = run("suite", "--db", db_root / "network_1" / "network_1.sqlite",
                 "--suite-k", "3", "--suite-seed", "5", "--cache", workdir / "pregen")
        assert rc == 0
        assert "3 variants" in capsys.readouterr().out
        made = list((workdir / "pregen" / "network_1" / "5").glob("*/variant_*.db"))
        assert len(made) == 3


class TestDatabasePaths:
    def test_uri_characters_in_db_root(self, tmp_path, monkeypatch, fixture_benchmark_path,
                                       prompts_file):
        """A db_root holding `#`, `?` and `%20`, given relative to the working
        directory, names the same files as a plain path would."""
        cwd = tmp_path / "cwd"
        db_root = "run#1?x%20y/db"
        (cwd / db_root / "network_1").mkdir(parents=True)
        make_network1_db(cwd / db_root / "network_1" / "network_1.sqlite")
        monkeypatch.chdir(cwd)
        before = sorted(p.name for p in cwd.iterdir())
        out = tmp_path / "out"
        prompts, preds = out / "prompts.jsonl", out / "predictions.jsonl"
        outcomes, report = out / "outcomes.jsonl", out / "report.json"
        assert run("prompt", "--benchmark", fixture_benchmark_path, "--db-root", db_root,
                   "--prompt", "create+select:3", "--out", prompts) == 0
        assert run("predict", "--prompts", prompts, "--backend", "gold",
                   "--benchmark", fixture_benchmark_path, "--out", preds) == 0
        assert run("eval", "--benchmark", fixture_benchmark_path, "--db-root", db_root,
                   "--predictions", preds, "--suite-k", "2", "--cache", out / "suites",
                   "--out", outcomes) == 0
        assert run("report", "metrics", "--runs", outcomes, "--format", "json",
                   "--out", report) == 0
        assert read_jsonl(prompts) == read_jsonl(prompts_file)
        [row] = json.loads(report.read_text())
        assert (row["va_pct"], row["ex_pct"], row["ts_pct"]) == (100.0, 100.0, 100.0)
        assert row["n_evaluated"] == len(FIXTURE_QUESTIONS)
        assert sorted(p.name for p in cwd.iterdir()) == before


def make_dangling_db(root):
    """Under root, the database `dangling`: a 10-row table with a foreign key
    to a missing table."""
    db = root / "dangling" / "dangling.sqlite"
    db.parent.mkdir(parents=True)
    with closing(sqlite3.connect(db)) as conn:
        conn.execute("CREATE TABLE a (id int primary key, x int REFERENCES ghost(id))")
        conn.executemany("INSERT INTO a VALUES (?, ?)", [(i, i) for i in range(10)])
        conn.commit()


@pytest.fixture
def dangling_fk_root(tmp_path):
    """A database root holding make_dangling_db's database, and a benchmark of
    one example on it."""
    make_dangling_db(tmp_path / "dbroot")
    bench = tmp_path / "bench.json"
    bench.write_text(json.dumps([{"db_id": "dangling", "question": "q",
                                  "query": "SELECT count(*) FROM a"}]))
    return tmp_path / "dbroot", bench


DANGLING_WARNING = ("warning: suite dangling: table a: foreign key x references missing "
                    "table ghost; the table is empty in every variant\n")


class TestSuiteWarnings:
    def test_suite_logs_schema_warnings_once(self, dangling_fk_root, tmp_path, capsys):
        db_root, _ = dangling_fk_root
        db = db_root / "dangling" / "dangling.sqlite"
        argv = ("suite", "--db", db, "--suite-k", "4", "--cache", tmp_path / "cache")
        assert run(*argv) == 0
        assert capsys.readouterr().err == DANGLING_WARNING
        suite = build_test_suite(db, 4, 0, tmp_path / "cache")
        for variant in suite.variants[1:]:
            with closing(sqlite3.connect(variant)) as conn:
                assert conn.execute("SELECT count(*) FROM a").fetchone() == (0,)
        assert run(*argv) == 0  # reused: no warning
        assert capsys.readouterr().err == ""

    def test_eval_logs_schema_warnings_once(self, dangling_fk_root, tmp_path, capsys):
        db_root, bench = dangling_fk_root
        preds = tmp_path / "predictions.jsonl"
        preds.write_text(json.dumps({"example_id": "e0000", "sql": "SELECT count(*) FROM a"})
                         + "\n")
        errs = []
        for name in ("cold", "warm"):
            assert run("eval", "--benchmark", bench, "--db-root", db_root,
                       "--predictions", preds, "--suite-k", "2", "--cache", tmp_path / "cache",
                       "--out", tmp_path / f"{name}.jsonl") == 0
            errs.append(capsys.readouterr().err)
        assert errs == [DANGLING_WARNING, ""]


    def test_prompt_logs_schema_warnings(self, dangling_fk_root, tmp_path, capsys):
        db_root, bench = dangling_fk_root
        assert run("prompt", "--benchmark", bench, "--db-root", db_root,
                   "--out", tmp_path / "prompts.jsonl") == 0
        assert capsys.readouterr().err == (
            "warning: dangling: table a: foreign key x references missing table ghost\n")

    def test_self_reference_logged_once(self, tmp_path, capsys):
        db = tmp_path / "emp.sqlite"
        with closing(sqlite3.connect(db)) as conn:
            conn.execute("CREATE TABLE emp (id int primary key, boss int REFERENCES emp(id))")
            conn.executemany("INSERT INTO emp VALUES (?, ?)", [(i, i // 2) for i in range(20)])
            conn.commit()
        argv = ("suite", "--db", db, "--suite-k", "4", "--cache", tmp_path / "cache")
        assert run(*argv) == 0
        assert capsys.readouterr().err == (
            "warning: suite emp: table emp: foreign key boss references its own table; "
            "the table is empty in every variant\n")
        suite = build_test_suite(db, 4, 0, tmp_path / "cache")
        for variant in suite.variants[1:]:
            with closing(sqlite3.connect(variant)) as conn:
                assert conn.execute("SELECT count(*) FROM emp").fetchone() == (0,)
        assert run(*argv) == 0  # reused: no warning
        assert capsys.readouterr().err == ""

    def test_inherited_emptiness_logged_once(self, tmp_path, capsys):
        db = tmp_path / "emp.sqlite"
        with closing(sqlite3.connect(db)) as conn:
            conn.execute("CREATE TABLE emp (id int primary key, boss int REFERENCES emp(id))")
            conn.execute("CREATE TABLE task (id int primary key, owner int REFERENCES emp(id))")
            conn.executemany("INSERT INTO emp VALUES (?, ?)", [(i, i // 2) for i in range(20)])
            conn.executemany("INSERT INTO task VALUES (?, ?)", [(i, i % 20) for i in range(30)])
            conn.commit()
        argv = ("suite", "--db", db, "--suite-k", "3", "--cache", tmp_path / "cache")
        assert run(*argv) == 0
        assert capsys.readouterr().err == (
            "warning: suite emp: table emp: foreign key boss references its own table; "
            "the table is empty in every variant\n"
            "warning: suite emp: table task: foreign key owner references emp, which is "
            "empty in every variant; the table is empty in every variant\n")
        suite = build_test_suite(db, 3, 0, tmp_path / "cache")
        for variant in suite.variants[1:]:
            with closing(sqlite3.connect(variant)) as conn:
                for table in ("emp", "task"):
                    assert conn.execute(f"SELECT count(*) FROM {table}").fetchone() == (0,)
        assert run(*argv) == 0  # reused: no warning
        assert capsys.readouterr().err == ""


@pytest.fixture
def unusable_root(tmp_path):
    """A database root holding network_1, no file for `gone` and a `junk` file
    that is not SQLite, and a benchmark that interleaves examples on all three."""
    root = tmp_path / "dbroot"
    for db_id in ("network_1", "gone", "junk"):
        (root / db_id).mkdir(parents=True)
    make_network1_db(root / "network_1" / "network_1.sqlite")
    (root / "junk" / "junk.sqlite").write_bytes(b"not a database " * 100)
    items = []
    for i, (question, sql) in enumerate(FIXTURE_QUESTIONS[:4]):
        items.append({"db_id": "network_1", "question": question, "query": sql})
        items.append({"db_id": ("gone", "junk")[i % 2], "question": question, "query": sql})
    bench = tmp_path / "bench.json"
    bench.write_text(json.dumps(items))
    return root, bench


def unusable_reason(root, db_id):
    """Why the database db_id of unusable_root cannot be opened."""
    db_file = root / db_id / f"{db_id}.sqlite"
    return {"gone": f"database file not found: {db_file}",
            "junk": f"cannot read database {db_file}: file is not a database"}[db_id]


def skip_line(root, db_id):
    """The warning prompt and eval print for a database they cannot open."""
    return f"warning: {db_id}: {unusable_reason(root, db_id)}; its examples are skipped"


class TestUnusableDatabases:
    def test_every_stage_skips_them_and_goes_on(self, unusable_root, tmp_path, capsys):
        root, bench = unusable_root
        prompts, preds = tmp_path / "prompts.jsonl", tmp_path / "predictions.jsonl"
        outcomes, report = tmp_path / "outcomes.jsonl", tmp_path / "report.json"
        skips = [skip_line(root, "gone"), skip_line(root, "junk")]
        assert run("prompt", "--benchmark", bench, "--db-root", root, "--out", prompts) == 0
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "its examples are skipped" in line] == skips
        assert "Traceback" not in err
        assert {r["db_id"] for r in read_jsonl(prompts)} == {"network_1"}
        assert run("predict", "--prompts", prompts, "--backend", "gold",
                   "--benchmark", bench, "--out", preds) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert run("eval", "--benchmark", bench, "--db-root", root, "--predictions", preds,
                   "--suite-k", "2", "--cache", tmp_path / "cache", "--out", outcomes) == 0
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "its examples are skipped" in line] == skips
        assert "Traceback" not in err
        assert run("report", "metrics", "--runs", outcomes, "--format", "json",
                   "--out", report) == 0
        [row] = json.loads(report.read_text())
        assert (row["va_pct"], row["ex_pct"], row["ts_pct"]) == (100.0, 100.0, 100.0)
        assert row["n_evaluated"] == 4

    @pytest.mark.parametrize("style", ["question", "apidocs", "create", "select:1"])
    def test_only_question_prompts_need_no_database(self, unusable_root, tmp_path, capsys,
                                                    style):
        root, bench = unusable_root
        prompts = tmp_path / "prompts.jsonl"
        assert run("prompt", "--benchmark", bench, "--db-root", root, "--prompt", style,
                   "--out", prompts) == 0
        skips = [line for line in capsys.readouterr().err.splitlines()
                 if "its examples are skipped" in line]
        db_ids = [r["db_id"] for r in read_jsonl(prompts)]
        if style == "question":  # shows no schema, so it opens no database
            assert skips == []
            assert db_ids == [r["db_id"] for r in json.loads(bench.read_text())]
        else:
            assert skips == [skip_line(root, "gone"), skip_line(root, "junk")]
            assert set(db_ids) == {"network_1"}

    @pytest.mark.parametrize("db_id", ["gone", "junk"])
    def test_suite_refuses_them(self, unusable_root, tmp_path, capsys, db_id):
        root, _ = unusable_root
        cache = tmp_path / "cache"
        assert run("suite", "--db", root / db_id / f"{db_id}.sqlite", "--cache", cache) == 2
        assert capsys.readouterr().err == f"error: {unusable_reason(root, db_id)}\n"
        assert not list(cache.rglob(".build-*"))


# A prompt run through the CLI in a child interpreter, on a benchmark of
# n_dbs databases. Prints its exit code, stderr lines, prompts file,
# manifest, how many processes read a schema and whether the calling process
# was one of them. A forked child reads a schema only once every child has
# claimed a database, or after 10 s, so each child claims one. pin "one"
# pins the interpreter to one CPU.
FORKED_PROMPT = (
    "import contextlib, io, json, os, sys, time\n"
    "from pathlib import Path\n"
    "from sqlbench import cli, parallel\n"
    "root, bench, work, pin, n_dbs = sys.argv[1:]\n"
    "os.chdir(work)\n"
    "if pin == 'one':\n"
    "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
    "caller, n_children = os.getpid(), parallel._processes(int(n_dbs))\n"
    "real = cli._schema_section\n"
    "def marked(*args):\n"
    "    mark = Path('pids', str(os.getpid()))\n"
    "    if not mark.exists():\n"
    "        mark.touch()\n"
    "        deadline = time.monotonic() + 10\n"
    "        while (os.getpid() != caller and len(list(Path('pids').iterdir())) < n_children\n"
    "               and time.monotonic() < deadline):\n"
    "            time.sleep(0.01)\n"
    "    return real(*args)\n"
    "cli._schema_section = marked\n"
    "Path('pids').mkdir()\n"
    "err = io.StringIO()\n"
    "with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):\n"
    "    code = cli.main(['prompt', '--benchmark', bench, '--db-root', root,\n"
    "                     '--prompt', 'create+select:2', '--context-tokens', '800',\n"
    "                     '--out', 'prompts.jsonl'])\n"
    "print(json.dumps({\n"
    "    'code': code, 'stderr': err.getvalue().splitlines(),\n"
    "    'prompts': Path('prompts.jsonl').read_text(),\n"
    "    'manifest': Path('prompts.jsonl.manifest.json').read_text(),\n"
    "    'pids': len(list(Path('pids').iterdir())),\n"
    "    'caller': Path('pids', str(caller)).exists()}))\n")


class TestForkedPrompt:
    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or ONE_CPU,
                        reason="needs sched_setaffinity and two usable CPUs")
    def test_same_output_as_one_process(self, unusable_root, tmp_path):
        # network_1, gone and junk of unusable_root, and dangling, whose
        # introspection warns; one question too long for the token budget
        root, bench = unusable_root
        make_dangling_db(root)
        items = json.loads(bench.read_text())
        for i in (1, 4, 7):
            items.insert(i, {"db_id": "dangling", "question": "how many", "query": "SELECT 1"})
        items.insert(3, {**items[0], "question": "why " * 1000})
        bench.write_text(json.dumps(items))
        got = {}
        for pin in ("one", "all"):
            (tmp_path / pin).mkdir()
            # -W error: a fork with a thread running warns from Python 3.12
            proc = run_python(FORKED_PROMPT, root, bench, tmp_path / pin, pin, 4,
                              flags=("-W", "error"))
            assert proc.returncode == 0, proc.stderr
            got[pin] = json.loads(proc.stdout)
        one, every = (got.pop(pin) for pin in ("one", "all"))
        assert (one.pop("pids"), one.pop("caller")) == (1, True)
        # the caller claims no database while its children run
        n = min(len(os.sched_getaffinity(0)), 4)
        assert (every.pop("pids"), every.pop("caller")) == (n, False)
        assert every == one
        assert one["code"] == 0
        # each database's warnings where its first example is reached, among
        # the budget warning of another database's example
        assert one["stderr"] == [
            "warning: dangling: table a: foreign key x references missing table ghost",
            skip_line(root, "gone"),
            "warning: e0003: prompt exceeds budget (800 tokens) even with no support "
            "examples; skipped",
            skip_line(root, "junk")]
        assert {json.loads(line)["db_id"] for line in one["prompts"].splitlines()} == {
            "network_1", "dangling"}


@pytest.fixture
def cyclic_root(tmp_path):
    """A database root holding network_1 and `cyclic`, whose two 20-row tables
    reference each other in a way no fuzzed variant can satisfy, and a
    benchmark with one example on each."""
    root = tmp_path / "dbroot"
    for db_id in ("network_1", "cyclic"):
        (root / db_id).mkdir(parents=True)
    make_network1_db(root / "network_1" / "network_1.sqlite")
    with closing(sqlite3.connect(root / "cyclic" / "cyclic.sqlite")) as conn:
        conn.execute("CREATE TABLE a (id INTEGER PRIMARY KEY, b_id INTEGER REFERENCES b(id))")
        conn.execute("CREATE TABLE b (id INTEGER PRIMARY KEY REFERENCES a(id), name TEXT)")
        conn.executemany("INSERT INTO a VALUES (?, ?)", [(i, i) for i in range(1, 21)])
        conn.executemany("INSERT INTO b VALUES (?, ?)", [(i, f"n{i}") for i in range(1, 21)])
        conn.commit()
    bench = tmp_path / "bench.json"
    bench.write_text(json.dumps([
        {"db_id": "cyclic", "question": "q", "query": "SELECT count(*) FROM a"},
        {"db_id": "network_1", "question": "q", "query": "SELECT count(*) FROM Likes"}]))
    return root, bench


CYCLIC_REASON = "cannot satisfy cyclic foreign keys for table a"


class TestUnbuildableSuites:
    def test_suite_refuses_them(self, cyclic_root, tmp_path, capsys):
        root, _ = cyclic_root
        cache = tmp_path / "cache"
        assert run("suite", "--db", root / "cyclic" / "cyclic.sqlite", "--suite-k", "4",
                   "--cache", cache) == 2
        assert capsys.readouterr().err == f"error: {CYCLIC_REASON}\n"
        assert not list(cache.rglob(".build-*"))

    def test_eval_skips_them_and_goes_on(self, cyclic_root, tmp_path, capsys):
        root, bench = cyclic_root
        preds, outcomes = tmp_path / "predictions.jsonl", tmp_path / "outcomes.jsonl"
        preds.write_text("".join(json.dumps({"example_id": example_id, "sql": sql}) + "\n"
                                 for example_id, sql in (("e0000", "SELECT count(*) FROM a"),
                                                         ("e0001", "SELECT count(*) FROM Likes"))))
        assert run("eval", "--benchmark", bench, "--db-root", root, "--predictions", preds,
                   "--suite-k", "4", "--cache", tmp_path / "cache", "--out", outcomes) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"warning: cyclic: {CYCLIC_REASON}; its examples are skipped",
            "warning: e0000: no test suite for its database; skipped"]
        [outcome] = read_jsonl(outcomes)
        assert (outcome["example_id"], outcome["ts"]) == ("e0001", True)


def literal_root(tmp_path, golds, rows):
    """A database root holding one database `notes` with a table
    t(name, note) of rows, and a benchmark with one example per gold."""
    db = tmp_path / "dbroot" / "notes" / "notes.sqlite"
    db.parent.mkdir(parents=True)
    with closing(sqlite3.connect(db)) as conn:
        conn.execute("CREATE TABLE t (name TEXT, note TEXT)")
        conn.executemany("INSERT INTO t VALUES (?, ?)", rows)
        conn.commit()
    bench = tmp_path / "bench.json"
    bench.write_text(json.dumps([{"db_id": "notes", "question": "q", "query": gold}
                                 for gold in golds]))
    return tmp_path / "dbroot", bench


def oracle_run(tmp_path, root, bench, k="4"):
    """prompt, gold predict, eval and report metrics on bench; returns the
    report row, the eval manifest and the predictions."""
    prompts, preds = tmp_path / "prompts.jsonl", tmp_path / "predictions.jsonl"
    outcomes, report = tmp_path / "outcomes.jsonl", tmp_path / "report.json"
    assert run("prompt", "--benchmark", bench, "--db-root", root, "--out", prompts) == 0
    assert run("predict", "--prompts", prompts, "--backend", "gold", "--benchmark", bench,
               "--out", preds) == 0
    assert run("eval", "--benchmark", bench, "--db-root", root, "--predictions", preds,
               "--suite-k", k, "--cache", tmp_path / "cache", "--out", outcomes) == 0
    assert run("report", "metrics", "--runs", outcomes, "--format", "json",
               "--out", report) == 0
    [row] = json.loads(report.read_text())
    manifest = json.loads((tmp_path / "outcomes.jsonl.manifest.json").read_text())
    return row, manifest, read_jsonl(preds)


class TestGoldBackend:
    def test_stop_strings_inside_literals_score_100(self, tmp_path, capsys):
        golds = ["SELECT name FROM t WHERE note = 'a;b'",
                 "SELECT name FROM t WHERE note LIKE '%#%'",
                 "SELECT name FROM t WHERE note = 'x--y'"]
        root, bench = literal_root(tmp_path, golds, [("n1", "a;b"), ("n2", "1#2"),
                                                     ("n3", "x--y"), ("n4", "plain")])
        row, manifest, preds = oracle_run(tmp_path, root, bench)
        assert (row["va_pct"], row["ex_pct"], row["ts_pct"]) == (100.0, 100.0, 100.0)
        assert row["n_evaluated"] == 3
        assert [p["sql"] for p in preds] == golds
        # the raw completion is still the body after SELECT
        assert preds[0]["raw_completion"] == "name FROM t WHERE note = 'a;b'"
        assert "warning" not in capsys.readouterr().err

    def test_gold_prediction_runs_no_query(self, tmp_path):
        # lowercase, a trailing `;`, and a line break: each is its own gold's text
        golds = ["select name from t", "SELECT count(*) FROM t;",
                 "SELECT name\n  FROM t WHERE note = 'plain'"]
        root, bench = literal_root(tmp_path, golds, [("n1", "plain"), ("n2", "other")])
        row, manifest, preds = oracle_run(tmp_path, root, bench)
        assert (row["va_pct"], row["ex_pct"], row["ts_pct"]) == (100.0, 100.0, 100.0)
        assert manifest["queries"] == manifest["gold_store"]["misses"] == 3 * (1 + 4)
        sql_out = tmp_path / "gold.sql"
        assert run("predict", "--prompts", tmp_path / "prompts.jsonl", "--backend", "gold",
                   "--benchmark", bench, "--out", tmp_path / "again.jsonl",
                   "--sql-out", sql_out) == 0
        assert sql_out.read_text().splitlines() == [
            "select name from t", "SELECT count(*) FROM t;",
            "SELECT name FROM t WHERE note = 'plain'"]


class TestQuotedNames:
    def test_table_names_holding_a_quote(self, tmp_path, capsys):
        db = tmp_path / "dbroot" / "weird" / "weird.sqlite"
        db.parent.mkdir(parents=True)
        with closing(sqlite3.connect(db)) as conn:
            conn.execute('CREATE TABLE "we""ird" (id INTEGER PRIMARY KEY, name TEXT)')
            conn.execute('CREATE TABLE "ki""d" (id INTEGER PRIMARY KEY, '
                         'parent INTEGER REFERENCES "we""ird"(id))')
            conn.executemany('INSERT INTO "we""ird" VALUES (?, ?)',
                             [(i, f"n{i}") for i in range(1, 11)])
            conn.executemany('INSERT INTO "ki""d" VALUES (?, ?)',
                             [(i, i % 10 + 1) for i in range(1, 21)])
            conn.commit()
        golds = ['SELECT name FROM "we""ird" WHERE id < 5',
                 'SELECT count(*) FROM "ki""d" JOIN "we""ird" ON parent = "we""ird".id']
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps([{"db_id": "weird", "question": "q", "query": gold}
                                     for gold in golds]))
        assert run("suite", "--db", db, "--suite-k", "4", "--cache", tmp_path / "cache") == 0
        row, manifest, _ = oracle_run(tmp_path, tmp_path / "dbroot", bench)
        assert capsys.readouterr().err == ""
        assert (row["va_pct"], row["ex_pct"], row["ts_pct"]) == (100.0, 100.0, 100.0)
        assert row["n_evaluated"] == 2
        prompt = read_jsonl(tmp_path / "prompts.jsonl")[0]["prompt"]
        # the sample rows of both tables, under the names as the prompt shows them
        assert 'SELECT * FROM "we""ird" LIMIT 3;' in prompt and " n1" in prompt
        assert 'SELECT * FROM "ki""d" LIMIT 3;' in prompt
        suite = build_test_suite(db, 4, 0, tmp_path / "cache")
        for variant in suite.variants[1:-1]:  # the last variant is the empty one
            with closing(sqlite3.connect(variant)) as conn:
                assert conn.execute('SELECT count(*) FROM "ki""d"').fetchone()[0] > 0
                assert conn.execute('SELECT count(*) FROM "ki""d" WHERE parent NOT IN '
                                    '(SELECT id FROM "we""ird")').fetchone() == (0,)

class TestAnnotate:
    def test_skeleton_from_outcomes(self, workdir, tmp_path_factory):
        outdir = tmp_path_factory.mktemp("ann")
        outcomes = outdir / "outcomes.jsonl"
        outcomes.write_text("".join(
            json.dumps({"example_id": f"e{i}", "valid": True, "invalid_reason": None,
                        "ex": False, "ts": False, "timing_ms": 1.0}) + "\n"
            for i in range(6)))
        # the second into a directory that does not exist yet
        for dest in (outdir / "skeleton.jsonl", outdir / "new" / "skeleton.jsonl"):
            rc = run("annotate", "--outcomes", outcomes, "--n", "4", "--seed", "3",
                     "--out", dest)
            assert rc == 0
            records = read_jsonl(dest)
            assert len(records) == 4
            assert all(r["category"] == "" for r in records)


@pytest.fixture
def bad_input_files(tmp_path, fixture_benchmark_path, db_root, prompts_file,
                    gold_predictions):
    """The names the bad-input table's command lines are formatted with."""
    files = {"missing": tmp_path / "missing.jsonl", "notjson": tmp_path / "notjson.jsonl",
             "empty": tmp_path / "empty.jsonl", "outcomes": tmp_path / "outcomes.jsonl",
             "annotations": tmp_path / "annotations.jsonl",
             "oldreplay": tmp_path / "old-replay.jsonl"}
    files["notjson"].write_text("not json\n")
    files["empty"].write_text("")
    files["outcomes"].write_text(json.dumps({"example_id": "e0000", "valid": True,
                                             "invalid_reason": None, "ex": False,
                                             "ts": False}) + "\n")
    files["annotations"].write_text("\n" + json.dumps({"example_id": "e0000",
                                                        "category": "Bogus"}) + "\n")
    files["oldreplay"].write_text(json.dumps({"example_id": "e0000", "completion": "1"})
                                  + "\n")
    files["mixed_train"] = tmp_path / "mixed-train.json"
    files["mixed_train"].write_text(json.dumps([
        {"db_id": "network_1", "question": "q", "query": "SELECT 1", "template_id": tid}
        for tid in (1, "T")]))
    for name, artifact, manifest in (
            ("run_no_config", files["outcomes"], {"model": "m"}),
            ("run_list", files["outcomes"], [1]),
            ("run_prompt_config_text", files["outcomes"], {"config": {}, "prompt_config": "x"}),
            ("run_gold_broken_number", files["outcomes"], {"config": {}, "gold_broken": 5}),
            ("run_shots_bool", files["outcomes"], {"config": {}, "prompt_config": {"shots": True}}),
            ("preds_list", gold_predictions, [1]),
            ("preds_prompt_config_text", gold_predictions, {"config": {}, "prompt_config": "x"}),
            ("prompts_text", prompts_file, "s")):
        files[name] = tmp_path / f"{name}.jsonl"
        files[name].write_text(artifact.read_text())
        (tmp_path / f"{name}.jsonl.manifest.json").write_text(json.dumps(manifest))
    return {**files, "bench": fixture_benchmark_path, "db_root": db_root,
            "db": db_root / "network_1" / "network_1.sqlite", "prompts": prompts_file,
            "predictions": gold_predictions, "cache": tmp_path / "cache",
            "out": tmp_path / "out.jsonl"}


# (command line, what its one error line names)
BAD_INPUTS = {
    "prompt-missing-benchmark": (
        "prompt --benchmark {missing} --db-root {db_root} --out {out}", "{missing}"),
    "prompt-unknown-style": (
        "prompt --benchmark {bench} --db-root {db_root} --prompt bogus --out {out}",
        "prompt style 'bogus'"),
    "prompt-zero-rows": (
        "prompt --benchmark {bench} --db-root {db_root} --prompt select:0 --out {out}",
        "prompt style select:0"),
    "prompt-train-template-id-not-text": (
        "prompt --benchmark {bench} --db-root {db_root} --shots 1 --train {mixed_train} "
        "--out {out}", "{mixed_train}: item at index 0: field 'template_id' is not a str"),
    "prompt-reserve-over-context": (
        "prompt --benchmark {bench} --db-root {db_root} --context-tokens 100 "
        "--completion-reserve 200 --out {out}", "completion_reserve 200"),
    "predict-missing-prompts": (
        "predict --prompts {missing} --backend gold --benchmark {bench} --out {out}",
        "{missing}"),
    "predict-missing-replay": (
        "predict --prompts {prompts} --replay-file {missing} --out {out}", "{missing}"),
    "predict-replay-not-json": (
        "predict --prompts {prompts} --replay-file {notjson} --out {out}", "{notjson}:1"),
    "predict-replay-without-raw-completion": (
        "predict --prompts {prompts} --replay-file {oldreplay} --out {out}",
        "{oldreplay}:1: missing field 'raw_completion'"),
    "predict-negative-temperature": (
        "predict --prompts {prompts} --backend gold --benchmark {bench} --temperature -1 "
        "--out {out}", "temperature"),
    "eval-missing-predictions": (
        "eval --benchmark {bench} --db-root {db_root} --predictions {missing} --out {out}",
        "{missing}"),
    "eval-predictions-not-json": (
        "eval --benchmark {bench} --db-root {db_root} --predictions {notjson} --out {out}",
        "{notjson}:1"),
    "eval-zero-suite": (
        "eval --benchmark {bench} --db-root {db_root} --predictions {predictions} "
        "--suite-k 0 --cache {cache} --out {out}", "suite size k"),
    "suite-zero-suite": ("suite --db {db} --suite-k 0 --cache {cache}", "suite size k"),
    "report-empty-outcomes": ("report metrics --runs {empty} --out {out}", "{empty}"),
    "report-missing-annotations": (
        "report breakdown --runs {outcomes} --annotations {missing} --out {out}", "{missing}"),
    "report-unknown-category": (
        "report breakdown --runs {outcomes} --annotations {annotations} --out {out}",
        "{annotations}:2: 'Bogus'"),
    "annotate-missing-outcomes": ("annotate --outcomes {missing} --out {out}", "{missing}"),
    "report-manifest-without-config": (
        "report metrics --runs {run_no_config} --out {out}",
        "{run_no_config}.manifest.json: missing field 'config'"),
    "report-manifest-not-object": (
        "report metrics --runs {run_list} --out {out}",
        "{run_list}.manifest.json: not a JSON object"),
    "report-prompt-config-not-object": (
        "report metrics --runs {run_prompt_config_text} --out {out}",
        "{run_prompt_config_text}.manifest.json: field 'prompt_config'"),
    "report-gold-broken-not-list": (
        "report metrics --runs {run_gold_broken_number} --out {out}",
        "{run_gold_broken_number}.manifest.json: field 'gold_broken'"),
    "report-shots-not-int": (
        "report metrics --runs {run_shots_bool} --out {out}",
        "{run_shots_bool}.manifest.json: prompt_config: field 'shots' is not a int"),
    "eval-manifest-not-object": (
        "eval --benchmark {bench} --db-root {db_root} --predictions {preds_list} "
        "--cache {cache} --out {out}", "{preds_list}.manifest.json: not a JSON object"),
    "eval-prompt-config-not-object": (
        "eval --benchmark {bench} --db-root {db_root} --predictions {preds_prompt_config_text} "
        "--cache {cache} --out {out}",
        "{preds_prompt_config_text}.manifest.json: field 'prompt_config'"),
    "predict-manifest-not-object": (
        "predict --prompts {prompts_text} --backend gold --benchmark {bench} --out {out}",
        "{prompts_text}.manifest.json: not a JSON object"),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_exits_2_with_one_error_line(bad_input_files, capsys, case):
    argv, names = BAD_INPUTS[case]
    assert main(argv.format(**bad_input_files).split()) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and names.format(**bad_input_files) in errors[0]
    assert "Traceback" not in err
    assert not bad_input_files["out"].exists()
    assert not bad_input_files["cache"].exists()


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
