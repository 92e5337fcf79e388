"""End-to-end tests for the command-line interface."""

import json
import re
import shutil
import signal
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from mmspec.cli import build_parser, main
from mmspec.harness import MAX_NEW_TOKENS, ExperimentConfig, demo_dataset_path


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

    @pytest.mark.parametrize("field", ["target_model", "draft_model", "dataset"])
    def test_empty_path_field_named(self, workspace, tmp_path, capsys, field):
        """An empty path resolved to the config's directory ("Is a directory: '.'")."""
        cfg = tmp_path / "config.json"
        obj = json.loads((workspace / "config.json").read_text(encoding="utf-8"))
        cfg.write_text(json.dumps({**obj, field: ""}), encoding="utf-8")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: config field {field} must name a file, got ''\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field", ["target_model", "draft_model", "dataset"])
    @pytest.mark.parametrize("command", ["run", "trace"])
    def test_unopenable_path_names_field(self, workspace, tmp_path, capsys, field, command):
        """A missing file, or a directory, is one error line naming the field and the path."""
        obj = json.loads((workspace / "config.json").read_text(encoding="utf-8"))
        obj = {**obj, "target_model": str(workspace / "models" / "target.json"),
               "draft_model": str(workspace / "models" / "draft.json")}
        argv = {"run": ["--out", str(tmp_path / "out")], "trace": ["--prompt-id", "p00"]}[command]
        for value, reason in (("missing.json", "No such file or directory"), (".", "Is a directory")):
            cfg = tmp_path / "config.json"
            cfg.write_text(json.dumps({**obj, field: value}), encoding="utf-8")
            assert main([command, "--config", str(cfg), *argv]) == 1
            assert capsys.readouterr().err == f"error: {field} {tmp_path / value}: {reason}\n"
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
        from mmspec.harness import run_experiment

        main(["run", "--config", str(workspace / "config.json"), "--out", str(tmp_path / "a")])
        cfg = ExperimentConfig.from_file(workspace / "config.json")
        run_experiment(cfg, tmp_path / "b")
        assert (tmp_path / "a" / "report.csv").read_bytes() == (
            tmp_path / "b" / "report.csv"
        ).read_bytes()


class TestNotUtf8:
    """A byte that is not UTF-8 in any file the CLI reads is one error line
    naming the file and the byte's offset, and for the line-based dataset
    and corpus the byte's line, which only a newline ends, before anything
    is written."""

    @pytest.mark.parametrize("reader", ["dataset", "config", "corpus", "model"])
    def test_names_file_and_line(self, workspace, tmp_path, reader, capsys):
        models = workspace / "models"
        cfg = {
            "target_model": str(models / "target.json"),
            "draft_model": str(models / "draft.json"),
            "dataset": str(demo_dataset_path()),
        }
        if reader == "corpus":
            bad = "a plain\x0cline\u2028\na caf".encode() + b"\xff line\n"  # only the newline ends a line
            path = tmp_path / "corpus.txt"
            argv = ["train", "--corpus", str(path), "--out", str(tmp_path / "out")]
        elif reader == "config":
            bad = json.dumps(cfg, indent=1).encode().replace(b"draft.json", b"draft\xff.json")
            path = tmp_path / "config.json"
            argv = ["run", "--config", str(path), "--out", str(tmp_path / "out")]
        elif reader == "model":
            bad = (models / "draft.json").read_bytes().replace(b'"format"', b'"form\xfft"')
            path = tmp_path / "draft.json"
            cfg["draft_model"] = str(path)
            (tmp_path / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
            argv = ["run", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]
        else:
            bad = b'{"id": "a", "prompt_text": "x"}\x0c\r\n{"id": "b", "prompt_text": "caf\xff"}\n'
            path = tmp_path / "dataset.jsonl"
            cfg["dataset"] = str(path)
            (tmp_path / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
            argv = ["run", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]
        path.write_bytes(bad)
        at = bad.index(b"\xff")
        assert main(argv) == 1
        newlines = bad[:at].count(b"\n")
        line = "" if reader in ("config", "model") else f":{newlines + 1}"
        assert capsys.readouterr().err == f"error: {path}{line}: not UTF-8 (invalid start byte at byte {at})\n"
        assert not (tmp_path / "out").exists()


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


class Runaway(BaseException):
    """Raised by the alarm of a fuzz case that runs too long; ``main`` catches only Exception."""


class TestConfigFuzz:
    """Seeded mutations of a config file and of the ``run``/``trace`` flags:
    type swaps, NaN and infinities, huge and negative numbers, empty strings,
    unknown templates and modes, repeated gammas, missing and unknown fields,
    truncated JSON, and huge ``--gamma``/``--seed`` values.  Each case either
    finishes, with one report row per (record, gamma) and no row longer than
    its ``max_new_tokens``, or prints exactly one ``error:`` line naming the
    config file or a file it names.  A traceback, a silent run, a run whose
    ``max_new_tokens`` passes ``MAX_NEW_TOKENS`` or a case still running
    after 5 s fails."""

    HOSTILE = (
        "", "x", "markdown", "beam", None, True, False, 0, 1, -1, 2**16 + 1, 10**9, 2**64, -(2**63), 10**30,
        0.5, 1e-300, 1e300, float("nan"), float("inf"), float("-inf"),
        [], [0], [1, 1], [2, 1, 2], [10**9], [2**64], [-3], [1.5], [True], ["1"], [[1]], {}, {"gammas": [1]},
    )
    VALID = {
        "gammas": ([1], [2], [1, 3]),
        "mode": ("greedy", "stochastic"),
        "max_new_tokens": (1, 2, 5, 8),
        "seed": (0, 7, 2**64 - 1),
        "template": ("plain", "chat", "caption", "sqa"),
        "cost_c": (0.3, 1.0, 1e-300),
        "draft_uses_image": (False, True),
        "stop_on_eos": (False, True),
    }
    OUT_OF_RANGE = {
        "gammas": ([], [0], [-3], [1, 1], [2, 1, 2], [9], [10**9], [2**64]),
        "mode": ("", "beam", "GREEDY"),
        "max_new_tokens": (0, -1, 2**16 + 1, 10**9, 10**30),
        "seed": (-1, 2**64, 10**30),
        "template": ("", "markdown", "Chat"),
        "cost_c": (0, -1.0, 1.5, float("nan"), float("inf"), 1e300),
    }
    GAMMA_FLAGS = ("0", "-1", "1", "2", "3", "9", str(10**30), str(2**64))
    SEED_FLAGS = ("-1", "0", "5", str(2**64 - 1), str(2**64), str(10**30))
    RECORDS = ({"id": "a", "prompt_text": "What is on the table?", "image_ctx": [3, 4]},
               {"id": "b", "prompt_text": "Where is the dog?"})

    def mutate(self, rng, base):
        obj = dict(base)
        for _ in range(int(rng.integers(1, 4))):
            # mostly the fields with a valid range, sometimes a path, an unknown field or a missing one
            fields = list(self.VALID) if rng.random() < 0.75 else ["target_model", "draft_model", "dataset", "extra"]
            field = fields[int(rng.integers(len(fields)))]
            roll = rng.random()
            if roll < 0.1:
                obj.pop(field, None)
                continue
            if roll < 0.4 or field not in self.VALID:
                options = self.HOSTILE
            else:
                options = self.OUT_OF_RANGE.get(field, ()) if roll < 0.65 else ()
                options = options or self.VALID[field]
            obj[field] = options[int(rng.integers(len(options)))]
        text = json.dumps(obj)
        return text[: int(rng.integers(len(text)))] if rng.random() < 0.08 else text

    def flags(self, rng, out):
        command = ("run", "trace")[int(rng.integers(2))]
        argv = ["--out", str(out)] if command == "run" else ["--prompt-id", ("a", "b", "zz")[int(rng.integers(3))]]
        if rng.random() < 0.3:
            argv += ["--gamma", self.GAMMA_FLAGS[int(rng.integers(len(self.GAMMA_FLAGS)))]]
        if rng.random() < 0.3:
            argv += ["--seed", self.SEED_FLAGS[int(rng.integers(len(self.SEED_FLAGS)))]]
        return command, argv

    def test_mutations_run_or_name_the_file(self, workspace, tmp_path, capsys):
        (tmp_path / "data.jsonl").write_text("".join(json.dumps(r) + "\n" for r in self.RECORDS), encoding="utf-8")
        base = {
            "target_model": str(workspace / "models" / "target.json"),
            "draft_model": str(workspace / "models" / "draft.json"),
            "dataset": "data.jsonl",
            "gammas": [1, 2],
            "mode": "stochastic",
            "max_new_tokens": 6,
            "seed": 0,
            "template": "chat",
            "cost_c": 0.3,
            "draft_uses_image": False,
            "stop_on_eos": True,
        }
        cfg, out = tmp_path / "config.json", tmp_path / "out"

        def alarm(signum, frame):
            raise Runaway(f"case {case} still running after 5 s")

        previous = signal.signal(signal.SIGALRM, alarm)
        rng = np.random.default_rng(19)
        outcomes = Counter()
        try:
            for case in range(300):
                text = self.mutate(rng, base)
                command, argv = self.flags(rng, out)
                cfg.write_text(text, encoding="utf-8")
                shutil.rmtree(out, ignore_errors=True)
                signal.setitimer(signal.ITIMER_REAL, 5.0)
                try:
                    rc = main([command, "--config", str(cfg), *argv])
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                stdout, err = capsys.readouterr()
                where = f"case {case}: {command} {argv} {text}"
                if rc == 1:
                    assert err.startswith("error: ") and err.count("\n") == 1, where
                    if str(cfg) not in err:  # then the config parsed, and the error is about a file it names
                        obj = json.loads(text)
                        named = [tmp_path / obj[f] for f in ("target_model", "draft_model", "dataset") if obj[f]]
                        assert any(str(path) in err for path in named), where
                    outcomes["error"] += 1
                    continue
                assert rc == 0 and not err, where
                assert ("legend:" if command == "trace" else "wrote") in stdout, where
                limit = ExperimentConfig.from_file(cfg).max_new_tokens
                assert limit <= MAX_NEW_TOKENS, where
                if command == "run":
                    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
                    rows = (out / "report.csv").read_text(encoding="utf-8").splitlines()[1:]
                    assert len(rows) == len(self.RECORDS) * len(report["config"]["gammas"]), where
                    assert all(0 < int(row.split(",")[3]) <= limit for row in rows), where
                else:
                    assert 0 < int(re.search(r"tokens=(\d+)", stdout).group(1)) <= limit, where
                outcomes[command] += 1
        finally:
            signal.signal(signal.SIGALRM, previous)
        assert min(outcomes["run"], outcomes["trace"]) >= 5 and outcomes["error"] >= 150, outcomes
