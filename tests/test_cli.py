"""End-to-end tests for the command-line interface."""

import json
import tracemalloc

import pytest

from mmspec.cli import build_parser, main
from mmspec.harness import demo_dataset_path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A trained model pair plus a ready-to-run config file."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["train", "--out", str(root / "models")]) == 0
    cfg = {
        "target_model": "models/target.json",
        "draft_model": "models/draft.json",
        "dataset": str(demo_dataset_path()),
        "template": "plain",
    }
    (root / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    return root


class TestTrain:
    def test_writes_model_pair(self, tmp_path, capsys):
        assert main(["train", "--out", str(tmp_path / "m")]) == 0
        assert (tmp_path / "m" / "target.json").exists()
        assert (tmp_path / "m" / "draft.json").exists()
        assert "wrote" in capsys.readouterr().out

    def test_missing_corpus_is_a_clean_error(self, tmp_path, capsys):
        rc = main(["train", "--corpus", str(tmp_path / "nope.txt"), "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_corpus_error_names_file_and_line(self, tmp_path, capsys):
        corpus = tmp_path / "bad.txt"
        corpus.write_text("a naive line\na na\u00efve line\n", encoding="utf-8")
        assert main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "m")]) == 1
        assert capsys.readouterr().err == f"error: {corpus}:2: character '\u00ef' is not in the alphabet\n"
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize(
        "flags, reason",
        [
            pytest.param(
                ["--target-order", "1000000"],
                "x 999999 window ids is more than the 4194304 cells an order-1000000 model may use",
                id="huge-order",
            ),
            pytest.param(["--draft-order", "0"], "order must be >= 1, got 0", id="zero-order"),
            pytest.param(["--target-alpha", "0"], "smoothing alpha must be > 0", id="zero-alpha"),
            pytest.param(["--draft-alpha", "nan"], "smoothing alpha must be > 0", id="nan-alpha"),
            pytest.param(["--draft-alpha", "inf"], "alpha * vocab size finite", id="infinite-alpha"),
        ],
    )
    def test_bad_flag_is_one_clean_error(self, tmp_path, capsys, flags, reason):
        """A bad order or alpha fails with one error line, writes nothing, and a
        huge order is refused before training allocates its window matrix."""
        tracemalloc.start()
        try:
            rc = main(["train", *flags, "--out", str(tmp_path / "m")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1 and reason in err
        assert peak < 4 << 20
        assert not (tmp_path / "m").exists()


class TestRun:
    def test_full_sweep(self, workspace, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["run", "--config", str(workspace / "config.json"), "--out", str(out)])
        assert rc == 0
        assert (out / "report.csv").exists()
        assert (out / "report.json").exists()
        stdout = capsys.readouterr().out
        assert "wrote" in stdout
        assert "gamma=3" in stdout and "gamma=5" in stdout
        assert "mean_tau=" in stdout

    def test_gamma_flag_restricts_sweep(self, workspace, tmp_path):
        out = tmp_path / "out"
        rc = main(
            ["run", "--config", str(workspace / "config.json"), "--out", str(out), "--gamma", "3"]
        )
        assert rc == 0
        payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert [entry["gamma"] for entry in payload["per_gamma"]] == [3]
        assert payload["config"]["gammas"] == [3]

    def test_seed_flag_overrides_config(self, workspace, tmp_path):
        out = tmp_path / "out"
        rc = main(
            ["run", "--config", str(workspace / "config.json"), "--out", str(out), "--seed", "7"]
        )
        assert rc == 0
        payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert payload["config"]["seed"] == 7

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_gamma_flag_rejected_before_loading(self, tmp_path, capsys):
        """The override is validated with the config, before the (missing)
        model and dataset files are opened."""
        cfg = tmp_path / "config.json"
        missing = {"target_model": "t.json", "draft_model": "d.json", "dataset": "x.jsonl"}
        cfg.write_text(json.dumps(missing), encoding="utf-8")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--gamma", "0"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: gamma must be >= 1")

    @pytest.mark.parametrize("override", [[], ["--gamma", "3"]], ids=["file", "gamma-override"])
    def test_repeated_gamma_rejected_before_loading(self, tmp_path, capsys, override):
        """A config whose gammas repeat fails with the file and field named,
        with or without a ``--gamma`` override, before any model is opened."""
        cfg = tmp_path / "config.json"
        repeated = {"target_model": "t.json", "draft_model": "d.json", "dataset": "x.jsonl", "gammas": [3, 3]}
        cfg.write_text(json.dumps(repeated), encoding="utf-8")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), *override])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg}: gammas must not repeat")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "fields, override, reason",
        [
            ({"gammas": [100000000], "max_new_tokens": 2}, [], "gamma 100000000 is more than max_new_tokens 2"),
            ({"max_new_tokens": 5}, ["--gamma", "9"], "gamma 9 is more than max_new_tokens 5"),
        ],
        ids=["file", "gamma-override"],
    )
    def test_gamma_past_token_budget_rejected_before_loading(self, tmp_path, capsys, fields, override, reason):
        """A gamma above max_new_tokens drafts tokens no block can emit (10**8
        of them for two tokens): one error line names it and the config file
        before any model is opened."""
        cfg = tmp_path / "config.json"
        paths = {"target_model": "t.json", "draft_model": "d.json", "dataset": "x.jsonl"}
        cfg.write_text(json.dumps({**paths, **fields}), encoding="utf-8")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), *override])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1
        assert reason in err and str(cfg) in err
        assert not (tmp_path / "out").exists()

    def test_unknown_config_key(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        obj = json.loads((workspace / "config.json").read_text(encoding="utf-8"))
        obj["order"] = 3
        bad.write_text(json.dumps(obj), encoding="utf-8")
        rc = main(["run", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "unknown config fields" in capsys.readouterr().err

    def test_matches_harness_csv(self, workspace, tmp_path):
        """The CLI is a thin shell over run_experiment: same bytes out."""
        from mmspec.harness import ExperimentConfig, run_experiment

        main(["run", "--config", str(workspace / "config.json"), "--out", str(tmp_path / "a")])
        cfg = ExperimentConfig.from_file(workspace / "config.json")
        run_experiment(cfg, tmp_path / "b")
        assert (tmp_path / "a" / "report.csv").read_bytes() == (
            tmp_path / "b" / "report.csv"
        ).read_bytes()


class TestTrace:
    def test_prints_annotated_generation(self, workspace, capsys):
        rc = main(["trace", "--config", str(workspace / "config.json"), "--prompt-id", "p00"])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "prompt p00" in stdout
        assert "legend:" in stdout

    def test_gamma_flag(self, workspace, capsys):
        rc = main(
            [
                "trace",
                "--config", str(workspace / "config.json"),
                "--prompt-id", "p01",
                "--gamma", "5",
            ]
        )
        assert rc == 0
        assert "gamma=5" in capsys.readouterr().out

    def test_unknown_prompt_id(self, workspace, capsys):
        rc = main(["trace", "--config", str(workspace / "config.json"), "--prompt-id", "p99"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: prompt id 'p99' not in {demo_dataset_path()}\n"


class TestParser:
    def test_command_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_prog_name(self):
        assert build_parser().prog == "mmspec"
