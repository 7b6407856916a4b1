import hashlib
import json

import pytest

from sqlbench.cli import main
from sqlbench.fuzz import build_test_suite

from conftest import FIXTURE_QUESTIONS


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
def gold_predictions(workdir, prompts_file, fixture_benchmark_path, db_root):
    out = workdir / "predictions.jsonl"
    rc = run("predict", "--prompts", prompts_file, "--backend", "gold",
             "--benchmark", fixture_benchmark_path, "--db-root", db_root, "--out", out)
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

    def test_config_file_supplies_defaults(self, workdir, fixture_benchmark_path, db_root):
        cfg = workdir / "run.yaml"
        cfg.write_text(
            f"benchmark: {fixture_benchmark_path}\ndb_root: {db_root}\n"
            f"prompt: question\nout: {workdir / 'from_config.jsonl'}\n"
        )
        assert run("prompt", "--config", cfg) == 0
        records = read_jsonl(workdir / "from_config.jsonl")
        assert records and "Using valid SQLite" in records[0]["prompt"]


class TestPredict:
    def test_gold_backend_round_trips_gold_sql(self, gold_predictions):
        records = read_jsonl(gold_predictions)
        by_id = {r["example_id"]: r["sql"] for r in records}
        assert by_id["e0001"] == "SELECT name FROM Highschooler"

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

    def test_sql_out_plain_lines(self, workdir, prompts_file, fixture_benchmark_path,
                                 db_root):
        sql_out = workdir / "pred.sql"
        rc = run("predict", "--prompts", prompts_file, "--backend", "gold",
                 "--benchmark", fixture_benchmark_path, "--db-root", db_root,
                 "--out", workdir / "p2.jsonl", "--sql-out", sql_out)
        assert rc == 0
        lines = sql_out.read_text().splitlines()
        assert len(lines) == len(FIXTURE_QUESTIONS)
        assert lines[1] == "SELECT name FROM Highschooler"

    def test_unknown_backend(self, workdir, prompts_file):
        rc = run("predict", "--prompts", prompts_file, "--backend", "replay",
                 "--out", workdir / "junk2.jsonl")
        assert rc == 2  # replay without --replay-file


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
        dest = workdir / "metrics.csv"
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
    def test_generates_variants(self, workdir, db_root, capsys):
        rc = run("suite", "--db", db_root / "network_1" / "network_1.sqlite",
                 "--suite-k", "3", "--suite-seed", "5", "--cache", workdir / "pregen")
        assert rc == 0
        assert "3 variants" in capsys.readouterr().out
        made = list((workdir / "pregen" / "network_1" / "5").glob("*/variant_*.db"))
        assert len(made) == 3


class TestAnnotate:
    def test_skeleton_from_outcomes(self, workdir, tmp_path_factory):
        outdir = tmp_path_factory.mktemp("ann")
        outcomes = outdir / "outcomes.jsonl"
        outcomes.write_text("".join(
            json.dumps({"example_id": f"e{i}", "valid": True, "invalid_reason": None,
                        "ex": False, "ts": False, "timing_ms": 1.0}) + "\n"
            for i in range(6)))
        dest = outdir / "skeleton.jsonl"
        rc = run("annotate", "--outcomes", outcomes, "--n", "4", "--seed", "3",
                 "--out", dest)
        assert rc == 0
        records = read_jsonl(dest)
        assert len(records) == 4
        assert all(r["category"] == "" for r in records)


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
