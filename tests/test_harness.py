"""Tests for the benchmark harness: tokenizer, templates, datasets, runs."""

import csv
import json
import os
import re
from collections import Counter
from dataclasses import asdict, fields, replace
from pathlib import Path
from statistics import fmean

import numpy as np
import pytest

from helpers import bundled_corpus, csv_writer_report

from mmspec.harness import (
    CAPTION_INSTRUCTION,
    CHAT_PREAMBLE,
    CSV_COLUMNS,
    CharTokenizer,
    DEFAULT_ALPHABET,
    ExperimentConfig,
    MissingFieldError,
    PromptRecord,
    TEMPLATES,
    UnknownPromptError,
    demo_corpus_path,
    demo_dataset_path,
    generate_for_prompt,
    load_dataset,
    qualitative_trace,
    render_template,
    run_experiment,
    train_models,
)
from mmspec import engine, harness, models
from mmspec.core import MultimodalPrompt, RngState, Vocab
from mmspec.engine import SpdConfig
from mmspec.metrics import PromptRun, RunReport
from mmspec.models import (
    EmptyCorpusError,
    MultimodalTargetLm,
    TextOnlyDraftLm,
    TrainingError,
    load_ngram,
    save_ngram,
    train_ngram,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("models")
    train_models(demo_corpus_path(), out)
    return out


@pytest.fixture(scope="module")
def identity_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("identity")
    train_models(demo_corpus_path(), out, target_order=3, draft_order=3)
    return out


@pytest.fixture(scope="module")
def demo_cfg(model_dir):
    return ExperimentConfig(
        target_model=str(model_dir / "target.json"),
        draft_model=str(model_dir / "draft.json"),
        dataset=str(demo_dataset_path()),
        template="plain",
    )


def load_pair(cfg):
    target = MultimodalTargetLm(load_ngram(cfg.target_model))
    draft = TextOnlyDraftLm(load_ngram(cfg.draft_model))
    return target, draft


def rendered_prompts(cfg):
    tok = CharTokenizer()
    prompts = []
    for rec in load_dataset(cfg.dataset):
        text = render_template(cfg.template, rec, tok)
        prompts.append((rec.prompt_id, MultimodalPrompt(image_ctx=rec.image_ctx, text=text)))
    return prompts


class TestCharTokenizer:
    def test_roundtrip(self):
        tok = CharTokenizer()
        text = "USER: What is on the table?  ASSISTANT:"
        assert tok.decode(tok.encode(text)) == text

    def test_vocab_layout(self):
        tok = CharTokenizer()
        size = len(DEFAULT_ALPHABET)
        assert tok.vocab.size == size + 1
        assert tok.vocab.eos == size
        assert tok.encode("\n !") == [0, 1, 2]
        assert tok.encode("cab") == [DEFAULT_ALPHABET.index(ch) for ch in "cab"]

    def test_default_alphabet_is_distinct(self):
        assert len(set(DEFAULT_ALPHABET)) == len(DEFAULT_ALPHABET)

    def test_unknown_character(self):
        with pytest.raises(ValueError, match="not in the alphabet"):
            CharTokenizer().encode("ab~")

    def test_decode_eos_marker(self):
        tok = CharTokenizer()
        a, b, eos = *tok.encode("ab"), tok.vocab.eos
        assert tok.decode([a, eos, b], eos_marker="<eos>") == "a<eos>b"
        assert tok.decode([a, eos]) == "a"

    def test_decode_out_of_range(self):
        for bad in (CharTokenizer().vocab.size, -1):
            with pytest.raises(ValueError):
                CharTokenizer().decode([bad])


class TestTemplates:
    def test_plain_text(self):
        tok = CharTokenizer()
        rec = PromptRecord(prompt_id="x", prompt_text="The table holds")
        assert tok.decode(render_template("plain", rec, tok)) == "The table holds"

    def test_plain_pretokenized(self):
        tok = CharTokenizer()
        rec = PromptRecord(prompt_id="x", tokens=(0, 2, 1))
        assert render_template("plain", rec, tok) == (0, 2, 1)

    def test_chat_structure(self):
        tok = CharTokenizer()
        rec = PromptRecord(prompt_id="x", prompt_text="Where is the dog?")
        text = tok.decode(render_template("chat", rec, tok))
        assert text.startswith(CHAT_PREAMBLE)
        assert text.endswith("Where is the dog?  ASSISTANT:")
        # The image slot between "USER: " and the question line is left empty.
        assert text.count("USER: ") == 1
        assert text.split("USER: ")[1].startswith(" \n")

    def test_chat_requires_question(self):
        tok = CharTokenizer()
        with pytest.raises(MissingFieldError):
            render_template("chat", PromptRecord(prompt_id="x", prompt_text=""), tok)
        with pytest.raises(MissingFieldError):
            render_template("chat", PromptRecord(prompt_id="x", tokens=(1,)), tok)

    def test_caption_uses_fixed_instruction(self):
        tok = CharTokenizer()
        rec = PromptRecord(prompt_id="x", prompt_text="ignored")
        text = tok.decode(render_template("caption", rec, tok))
        assert CAPTION_INSTRUCTION in text
        assert "ignored" not in text
        assert text.endswith("  ASSISTANT:")

    def test_sqa_layout(self):
        tok = CharTokenizer()
        rec = PromptRecord(
            prompt_id="x",
            prompt_text="",
            question="Which object is on the table?",
            options=("plate", "dog"),
            context="A small room.",
        )
        assert tok.decode(render_template("sqa", rec, tok)) == (
            "Question: Which object is on the table?\n"
            "Options: (0) plate (1) dog\n"
            "Context: A small room.\n"
            "Answer: The answer is"
        )

    def test_sqa_context_may_be_empty_but_not_absent(self):
        tok = CharTokenizer()
        rec = PromptRecord(prompt_id="x", prompt_text="", question="Q?", options=("a",), context="")
        assert "Context: \n" in tok.decode(render_template("sqa", rec, tok))
        with pytest.raises(MissingFieldError):
            render_template(
                "sqa",
                PromptRecord(prompt_id="x", prompt_text="", question="Q?", options=("a",)),
                tok,
            )

    def test_sqa_requires_question_and_options(self):
        tok = CharTokenizer()
        with pytest.raises(MissingFieldError):
            render_template(
                "sqa",
                PromptRecord(prompt_id="x", prompt_text="", options=("a",), context=""),
                tok,
            )
        with pytest.raises(MissingFieldError):
            render_template(
                "sqa",
                PromptRecord(prompt_id="x", prompt_text="", question="Q?", context=""),
                tok,
            )

    def test_unknown_template(self):
        with pytest.raises(ValueError, match="unknown template"):
            render_template("markdown", PromptRecord(prompt_id="x", prompt_text="hi"), CharTokenizer())

    def test_every_template_renders(self):
        tok = CharTokenizer()
        rec = PromptRecord(
            prompt_id="x",
            prompt_text="What is shown?",
            question="What is shown?",
            options=("a", "b"),
            context="ctx",
        )
        for template in TEMPLATES:
            assert len(render_template(template, rec, tok)) > 0

    def test_record_needs_exactly_one_payload(self):
        with pytest.raises(ValueError):
            PromptRecord(prompt_id="x")
        with pytest.raises(ValueError):
            PromptRecord(prompt_id="x", prompt_text="hi", tokens=(1,))


class TestLoadDataset:
    def test_bundled_dataset(self):
        records = load_dataset(demo_dataset_path())
        assert len(records) == 20
        ids = [r.prompt_id for r in records]
        assert len(set(ids)) == 20
        vocab_size = len(DEFAULT_ALPHABET) + 1
        for rec in records:
            assert rec.prompt_text
            assert all(0 <= t < vocab_size for t in rec.image_ctx)

    def test_line_number_in_json_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "prompt_text": "x"}\n{oops\n', encoding="utf-8")
        with pytest.raises(ValueError, match=":2:"):
            load_dataset(path)

    @pytest.mark.parametrize("value", ["9" * 5000, "[" * 100000 + "]" * 100000], ids=["long-int", "deep"])
    def test_unparsable_value_names_the_line(self, tmp_path, value):
        """An integer past Python's digit limit and a value nested past the
        recursion limit are JSON errors of their line, not bare ones."""
        path = tmp_path / "deep.jsonl"
        path.write_text('{"id": "a", "prompt_text": "x"}\n{"id": "b", "image_ctx": %s}\n' % value, encoding="utf-8")
        with pytest.raises(ValueError, match=r"deep\.jsonl:2: not valid JSON"):
            load_dataset(path)

    def test_not_utf8_names_the_line_the_reader_counts(self, tmp_path):
        """The line of a bad byte is counted as the records are: a CRLF ends
        a line, and a bare carriage return stays in its line."""
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(b'{"id": "a", "prompt_text": "x"}\r\n\r{"id": "b", "prompt_text": "caf\xe9"}\n')
        with pytest.raises(ValueError, match=rf"latin1\.jsonl:2: not UTF-8 \(invalid continuation byte at byte 65\)"):
            load_dataset(path)

    def test_line_breaks_other_than_newline_stay_in_their_line(self, tmp_path):
        """Only a newline ends a record: a raw U+2028 in an id and a raw
        U+0085 in an unused context field are characters of valid JSON
        strings, and load as written."""
        path = tmp_path / "seps.jsonl"
        recs = [{"id": "q\u2028x", "prompt_text": "the cat"}, {"id": "r", "prompt_text": "a", "context": "c\x85d"}]
        path.write_text("".join(json.dumps(rec, ensure_ascii=False) + "\n" for rec in recs), encoding="utf-8")
        records = load_dataset(path)
        assert [(r.prompt_id, r.context) for r in records] == [("q\u2028x", None), ("r", "c\x85d")]

    def test_crlf_dataset_loads_as_lf(self, tmp_path):
        """A dataset with CRLF line ends gives the records of its LF text."""
        path = tmp_path / "crlf.jsonl"
        path.write_bytes(demo_dataset_path().read_bytes().replace(b"\n", b"\r\n"))
        assert b"\r\n" in path.read_bytes()
        assert load_dataset(path) == load_dataset(demo_dataset_path())

    def test_missing_id(self, tmp_path):
        path = tmp_path / "noid.jsonl"
        path.write_text('{"prompt_text": "x"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="'id'"):
            load_dataset(path)

    def test_unknown_field(self, tmp_path):
        path = tmp_path / "extra.jsonl"
        path.write_text('{"id": "a", "prompt_text": "x", "picture": 1}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="picture"):
            load_dataset(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text(
            '{"id": "a", "prompt_text": "x"}\n{"id": "a", "prompt_text": "y"}\n',
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="duplicate"):
            load_dataset(path)

    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no records"):
            load_dataset(path)

    def test_blank_lines_skipped_and_tokens_parsed(self, tmp_path):
        path = tmp_path / "ok.jsonl"
        path.write_text(
            '{"id": "a", "tokens": [1, 2], "image_ctx": [3]}\n\n{"id": "b", "prompt_text": "y"}\n',
            encoding="utf-8",
        )
        records = load_dataset(path)
        assert [r.prompt_id for r in records] == ["a", "b"]
        assert records[0].tokens == (1, 2)
        assert records[0].image_ctx == (3,)

    @pytest.mark.parametrize(
        "name, fields",
        [
            ("image_ctx", '"image_ctx": [1.5, 2], "prompt_text": "x"'),
            ("image_ctx", '"image_ctx": [true], "prompt_text": "x"'),
            ("image_ctx", '"image_ctx": "12", "prompt_text": "x"'),
            ("tokens", '"tokens": [3.7]'),
            ("tokens", '"tokens": ["3"]'),
            ("prompt_text", '"prompt_text": 5'),
            ("question", '"prompt_text": "x", "question": ["q"]'),
            ("options", '"prompt_text": "x", "options": "ab"'),
            ("options", '"prompt_text": "x", "options": [1]'),
            ("id", '"id": null, "prompt_text": "x"'),
            ("id", '"id": true, "prompt_text": "x"'),
            ("id", '"id": [1], "prompt_text": "x"'),
            ("id", '"id": 3, "prompt_text": "x"'),
            ("id", '"id": 1.5, "prompt_text": "x"'),
            ("id", '"id": "", "prompt_text": "x"'),
            ("id", '"id": "cr\\rid", "prompt_text": "x"'),
        ],
    )
    def test_wrong_field_type_names_line(self, tmp_path, name, fields):
        """Prompt ids must be non-empty strings without a carriage return,
        token ids JSON integers and text fields strings; nothing is coerced."""
        path = tmp_path / "typed.jsonl"
        if name != "id":
            fields = '"id": "b", ' + fields
        path.write_text('{"id": "a", "prompt_text": "x"}\n{%s}\n' % fields, encoding="utf-8")
        with pytest.raises(ValueError, match=rf"typed\.jsonl:2: '{name}'"):
            load_dataset(path)

    def test_out_of_vocab_ids_name_the_line(self, tmp_path):
        """Seeded cases: an image or prompt token id that is negative, at or
        past the vocabulary size, or past int64, put into one record of the
        bundled dataset, is an error naming the file, the record's line, the
        record and the id."""
        lines = demo_dataset_path().read_text(encoding="utf-8").splitlines()
        size = len(DEFAULT_ALPHABET) + 1
        path = tmp_path / "ids.jsonl"
        rng = np.random.default_rng(90)
        for _ in range(60):
            at = int(rng.integers(len(lines)))
            record = json.loads(lines[at])
            bad = int(rng.choice([-1, -(2**70), size, size + int(rng.integers(1000)), 2**63, 2**70]))
            kind = ("image", "image_ctx") if rng.random() < 0.5 else ("prompt", "tokens")
            ids = [int(i) for i in rng.integers(0, size, int(rng.integers(0, 4)))]
            ids.insert(int(rng.integers(len(ids) + 1)), bad)
            if kind[1] == "tokens":
                record.pop("prompt_text")
            record[kind[1]] = ids
            path.write_text("\n".join([*lines[:at], json.dumps(record), *lines[at + 1 :]]) + "\n", encoding="utf-8")
            reason = f"{path}:{at + 1}: record {record['id']!r}: {kind[0]} token {bad} outside vocab of size {size}"
            with pytest.raises(ValueError, match=re.escape(reason)):
                load_dataset(path)

    def test_conflicting_payload_reports_line(self, tmp_path):
        path = tmp_path / "conflict.jsonl"
        path.write_text('{"id": "a", "prompt_text": "x", "tokens": [1]}\n', encoding="utf-8")
        with pytest.raises(ValueError, match=":1:"):
            load_dataset(path)


class TestDatasetFuzz:
    """Seeded byte flips, truncations, and duplicated and deleted spans of the
    bundled dataset: each mutated file either runs, with a report row for
    every record the file states, or raises a ValueError naming the file.
    Any other exception fails the test."""

    @staticmethod
    def mutate(rng, data):
        at = int(rng.integers(len(data)))
        end = min(len(data), at + int(rng.integers(1, 40)))
        kind = ("flip", "truncate", "duplicate", "delete")[int(rng.integers(4))]
        if kind == "flip":
            return data[:at] + bytes([int(rng.integers(256))]) + data[at + 1 :]
        if kind == "truncate":
            return data[:at]
        if kind == "duplicate":
            return data[:end] + data[at:end] + data[end:]
        return data[:at] + data[end:]

    def test_mutations_run_or_name_the_file(self, model_dir, tmp_path):
        data = demo_dataset_path().read_bytes()
        path = tmp_path / "mutated.jsonl"
        cfg = ExperimentConfig(
            target_model=str(model_dir / "target.json"),
            draft_model=str(model_dir / "draft.json"),
            dataset=str(path),
            gammas=(1,),
            max_new_tokens=2,
            template="plain",
        )
        rng = np.random.default_rng(80)
        outcomes = Counter()
        for _ in range(240):
            mutated = self.mutate(rng, data)
            path.write_bytes(mutated)
            try:
                report = run_experiment(cfg, tmp_path / "out")
            except ValueError as exc:
                assert str(path) in str(exc)
                outcomes["not UTF-8" if "not UTF-8" in str(exc) else "rejected"] += 1
                continue
            stated = [json.loads(line)["id"] for line in mutated.decode("utf-8").splitlines() if line.strip()]
            assert sorted(r.prompt_id for r in report.runs) == sorted(stated)
            outcomes["ran"] += 1
        assert set(outcomes) == {"ran", "rejected", "not UTF-8"}, outcomes


class TestExperimentConfig:
    def base(self, **overrides):
        kw = dict(target_model="t.json", draft_model="d.json", dataset="d.jsonl")
        kw.update(overrides)
        return ExperimentConfig(**kw)

    def test_defaults(self):
        cfg = self.base()
        assert cfg.gammas == (3, 5)
        assert cfg.mode == "greedy"
        assert cfg.template == "chat"
        assert cfg.stop_on_eos is True
        assert 0 < cfg.cost_c < 1

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            self.base(gammas=())
        with pytest.raises(ValueError):
            self.base(gammas=(0,))
        with pytest.raises(ValueError):
            self.base(mode="beam")
        with pytest.raises(ValueError):
            self.base(template="markdown")
        with pytest.raises(ValueError):
            self.base(max_new_tokens=0)
        with pytest.raises(ValueError):
            self.base(cost_c=0.0)
        with pytest.raises(ValueError, match="seed"):
            self.base(seed=-1)
        with pytest.raises(ValueError, match="gamma 9 is more than max_new_tokens 8"):
            self.base(gammas=(3, 9), max_new_tokens=8)
        assert self.base(gammas=(8,), max_new_tokens=8).gammas == (8,)
        for field in ("target_model", "draft_model", "dataset"):  # "" would resolve to the config's directory
            for build in (self.base, lambda **kw: replace(self.base(), **kw)):
                with pytest.raises(ValueError, match=f"^config field {field} must name a file, got ''$"):
                    build(**{field: ""})
        wrong_types = (
            ("cost_c", "cheap"),
            ("max_new_tokens", "many"),
            ("max_new_tokens", True),
            ("seed", 1.5),
            ("gammas", 3),
            ("gammas", [3, "5"]),
            ("stop_on_eos", 1),
            ("template", ["chat"]),
            ("dataset", None),
            ("target_model", 7),
            ("gammas", {"3": 1}),
        )
        for field, value in wrong_types:
            path = tmp_path / "bad.json"
            path.write_text(json.dumps({"target_model": "t", "draft_model": "d", "dataset": "x", field: value}))
            with pytest.raises(ValueError, match=re.escape(str(path)) + f": config field {field} must be"):
                ExperimentConfig.from_file(path)

    def test_repeated_gamma_rejected_naming_file(self, tmp_path):
        """A repeated gamma would run every generation twice and write duplicate rows and aggregates."""
        with pytest.raises(ValueError, match="gammas must not repeat"):
            self.base(gammas=(3, 5, 3))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"target_model": "t", "draft_model": "d", "dataset": "x", "gammas": [3, 3]}))
        with pytest.raises(ValueError, match=re.escape(f"{path}: gammas must not repeat a value, got [3, 3]")):
            ExperimentConfig.from_file(path)

    def test_from_dict_unknown_and_missing_keys(self):
        for extra in ({"order": 3}, {"alphabet": "abc"}):
            with pytest.raises(ValueError, match="unknown config fields"):
                ExperimentConfig.from_dict({"target_model": "t", "draft_model": "d", "dataset": "x", **extra})
        with pytest.raises(ValueError, match="missing required"):
            ExperimentConfig.from_dict({"target_model": "t"})

    def test_max_new_tokens_bounded(self, tmp_path):
        """A huge max_new_tokens with the EOS stop off would grow a run until
        memory runs out: the file, a dict and ``replace`` all reject it."""
        bound = harness.MAX_NEW_TOKENS
        assert self.base(gammas=(1,), max_new_tokens=bound).max_new_tokens == bound
        paths = {"target_model": "t", "draft_model": "d", "dataset": "x"}
        for value in (bound + 1, 10**9, 10**30):
            reason = f"max_new_tokens {value} is more than {bound}"
            with pytest.raises(ValueError, match=reason):
                ExperimentConfig.from_dict({**paths, "max_new_tokens": value, "stop_on_eos": False})
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({**paths, "max_new_tokens": value}), encoding="utf-8")
            with pytest.raises(ValueError, match=re.escape(f"{path}: {reason}")):
                ExperimentConfig.from_file(path)
            with pytest.raises(ValueError, match=reason):
                replace(self.base(), max_new_tokens=value)

    @pytest.mark.parametrize(
        "field, value, shown",
        [
            ("seed", 1.5, "1.5"),
            ("seed", True, "True"),
            ("seed", "3", "'3'"),
            ("max_new_tokens", 8.5, "8.5"),
            ("max_new_tokens", False, "False"),
            ("gammas", (True, 2), "True"),
            ("gammas", (1, 2.9), "2.9"),
            ("gammas", (np.float64(2.0),), repr(np.float64(2.0))),
        ],
    )
    def test_direct_build_rejects_non_integers(self, field, value, shown):
        """Built directly, as the benchmark builds it, or by ``replace``, a
        config rejects a non-integer or bool seed, gamma or max_new_tokens
        by name.  ``gammas=(True, 2.9)`` built as ``(1, 2)``, and a seed of
        1.5 was echoed in the report while the streams used seed 1."""
        reason = re.escape(f"config field {field} must be an integer, got {shown}")
        with pytest.raises(ValueError, match=reason):
            self.base(**{field: value})
        with pytest.raises(ValueError, match=reason):
            replace(self.base(gammas=(1,), max_new_tokens=8), **{field: value})

    @pytest.mark.parametrize(
        "field, value, kind",
        [
            ("cost_c", True, "a number"),
            ("cost_c", "0.5", "a number"),
            ("cost_c", None, "a number"),
            ("stop_on_eos", "no", "a boolean"),
            ("stop_on_eos", 0, "a boolean"),
            ("draft_uses_image", 1, "a boolean"),
            ("draft_uses_image", None, "a boolean"),
            *((path, value, "a string") for path in ("target_model", "draft_model", "dataset") for value in (None, 7)),
            ("gammas", 3, "a list of integers"),
            ("gammas", {"3": 1}, "a list of integers"),
            ("template", "markdown", f"one of {harness.TEMPLATES}"),
            ("mode", ["greedy"], "one of ('stochastic', 'greedy')"),
        ],
    )
    def test_direct_build_rejects_wrong_kinds(self, field, value, kind):
        """Built directly or by ``replace``, a config rejects a cost that is
        not a number, a flag that is not a bool, a path that is not a
        string, gammas that are not a list or tuple, or a template or mode
        that is not one of its choices, by name.  ``cost_c=True`` was echoed
        as ``true``, ``cost_c="0.5"`` raised a bare TypeError,
        ``stop_on_eos="no"`` ran with the EOS stop while the report echoed
        ``"no"``, ``dataset=None`` built and failed in the run as a bare
        TypeError, and ``gammas=3`` and ``mode=["greedy"]`` raised one."""
        reason = re.escape(f"config field {field} must be {kind}, got {value!r}")
        with pytest.raises(ValueError, match=reason):
            self.base(**{field: value})
        with pytest.raises(ValueError, match=reason):
            replace(self.base(gammas=(1,), max_new_tokens=8), **{field: value})

    def test_direct_build_takes_numbers_and_bools(self):
        """An integer or float cost, numpy's float64 among them, and bool flags
        build, and the report echoes them as given."""
        for cost in (1, 0.5, np.float64(0.25)):
            for flag in (True, False):
                cfg = self.base(cost_c=cost, stop_on_eos=flag, draft_uses_image=flag)
                echo = cfg.summary()
                assert (echo["cost_c"], echo["stop_on_eos"], echo["draft_uses_image"]) == (cost, flag, flag)

    def test_direct_build_takes_numpy_integers_as_int(self):
        cfg = self.base(seed=np.uint64(2**64 - 1), gammas=(np.int32(2), 3), max_new_tokens=np.int64(8))
        assert (cfg.seed, cfg.gammas, cfg.max_new_tokens) == (2**64 - 1, (2, 3), 8)
        assert {type(cfg.seed), type(cfg.max_new_tokens), *map(type, cfg.gammas)} == {int}
        assert cfg.summary()["seed"] == 2**64 - 1

    @pytest.mark.parametrize("field", ["target_model", "draft_model", "dataset"])
    def test_empty_path_rejected(self, tmp_path, field):
        """An empty path would resolve to the config's directory."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"target_model": "t", "draft_model": "d", "dataset": "x", field: ""}))
        with pytest.raises(ValueError, match=re.escape(f"{path}: config field {field} must name a file, got ''")):
            ExperimentConfig.from_file(path)

    def test_relative_paths_resolve_against_base_dir(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {"target_model": "t.json", "draft_model": "/abs/d.json", "dataset": "data/x.jsonl"},
            base_dir=tmp_path,
        )
        assert cfg.target_model == str(tmp_path / "t.json")
        assert cfg.draft_model == "/abs/d.json"
        assert cfg.dataset == str(tmp_path / "data" / "x.jsonl")

    def test_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "target_model": "t.json",
                    "draft_model": "d.json",
                    "dataset": "x.jsonl",
                    "gammas": [2],
                    "mode": "stochastic",
                }
            ),
            encoding="utf-8",
        )
        cfg = ExperimentConfig.from_file(path)
        assert cfg.gammas == (2,)
        assert cfg.mode == "stochastic"
        assert cfg.target_model == str(tmp_path / "t.json")

    def test_from_file_rejects_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="cfg.json"):
            ExperimentConfig.from_file(path)
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ValueError, match="JSON object"):
            ExperimentConfig.from_file(path)

    def test_summary_uses_basenames(self, demo_cfg):
        """The echo holds every field, with file names for the path fields."""
        names = {"target_model": "target.json", "draft_model": "draft.json", "dataset": "demo.jsonl"}
        assert demo_cfg.summary() == {**asdict(demo_cfg), **names, "gammas": [3, 5]}


class TestTrainModels:
    def test_writes_loadable_pair(self, model_dir):
        target = load_ngram(model_dir / "target.json")
        draft = load_ngram(model_dir / "draft.json")
        assert target.order == 3
        assert draft.order == 2
        assert target.vocab == draft.vocab == CharTokenizer().vocab

    def test_equal_settings_give_identical_files(self, identity_dir):
        target = (identity_dir / "target.json").read_bytes()
        draft = (identity_dir / "draft.json").read_bytes()
        assert target == draft

    def test_training_is_deterministic(self, model_dir, tmp_path):
        train_models(demo_corpus_path(), tmp_path)
        assert (tmp_path / "target.json").read_bytes() == (model_dir / "target.json").read_bytes()

    def test_rejects_corpus_with_foreign_characters(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("tea\n\ncafé\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(corpus))}:3: character 'é' is not in the alphabet$"):
            train_models(corpus, tmp_path)

    def test_rejects_corpus_line_holding_a_form_feed(self, tmp_path):
        """A form feed ends no line, so it reaches the tokenizer, which names
        it, and the line is not trained as two sequences."""
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("the cat sat\x0con the mat\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(corpus))}:1: character '\\\\x0c' is not in the alphabet$"):
            train_models(corpus, tmp_path)

    def test_crlf_corpus_trains_the_same_models(self, model_dir, tmp_path):
        """A corpus with CRLF line ends trains the bytes of its LF text."""
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(demo_corpus_path().read_bytes().replace(b"\n", b"\r\n"))
        train_models(corpus, tmp_path / "crlf")
        for name in ("target.json", "draft.json"):
            assert (tmp_path / "crlf" / name).read_bytes() == (model_dir / name).read_bytes()

    def test_corpus_is_checked_and_converted_once(self, model_dir, tmp_path, monkeypatch):
        """Both models count one checked id array, and their files are the
        bytes ``train_ngram`` writes for each order."""
        calls = []

        def spy(*args):
            calls.append(args)
            return models._corpus_ids(*args)

        monkeypatch.setattr(harness, "_corpus_ids", spy)
        train_models(demo_corpus_path(), tmp_path, target_order=4, draft_order=2)
        assert len(calls) == 1 and calls[0][2] == (4, 2)
        seqs, vocab = bundled_corpus()
        for name, order in (("target", 4), ("draft", 2)):
            save_ngram(train_ngram(seqs, order, 0.1, vocab), tmp_path / f"{name}-alone.json")
            assert (tmp_path / f"{name}.json").read_bytes() == (tmp_path / f"{name}-alone.json").read_bytes()

    def test_failed_second_write_keeps_previous_pair(self, tmp_path, monkeypatch):
        """Retraining a 3/2 pair as 4/1, with the second model file's write
        failing, keeps both previous files' bytes and leaves no temporary
        file: never a new target beside the old draft."""
        train_models(demo_corpus_path(), tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert set(before) == {"target.json", "draft.json"}
        write_text, calls = Path.write_text, []

        def second_fails(path, *args, **kwargs):
            calls.append(path)
            if len(calls) == 2:
                raise OSError("disk full")
            return write_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", second_fails)
        with pytest.raises(OSError, match="disk full"):
            train_models(demo_corpus_path(), tmp_path, target_order=4, draft_order=1)
        monkeypatch.undo()
        assert len(calls) == 2
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("orders", [(0, 2), (3, -1)])
    def test_rejects_order_below_one_before_training(self, tmp_path, orders):
        with pytest.raises(TrainingError, match=f"order must be >= 1, got {min(orders)}"):
            train_models(demo_corpus_path(), tmp_path, target_order=orders[0], draft_order=orders[1])
        assert not list(tmp_path.iterdir())

    def test_rejects_corpus_of_blank_lines(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("\n  \n\n", encoding="utf-8")
        with pytest.raises(EmptyCorpusError, match=f"^{re.escape(str(corpus))}: training corpus has no non-empty"):
            train_models(corpus, tmp_path)


class TestHarnessGeneration:
    def test_greedy_losslessness_every_gamma(self, demo_cfg):
        """SPD output text equals the baseline text for all prompts and gammas."""
        target, draft = load_pair(demo_cfg)
        cfg = replace(demo_cfg, mode="greedy", max_new_tokens=64, seed=0)
        for gamma in (1, 2, 3, 5):
            for idx, (pid, prompt) in enumerate(rendered_prompts(demo_cfg)):
                baseline, spd, _ = generate_for_prompt(target, draft, prompt, cfg, gamma=gamma, prompt_index=idx)
                assert spd == baseline, f"{pid} diverged at gamma={gamma}"

    def test_baseline_ignores_gamma(self, demo_cfg):
        target, draft = load_pair(demo_cfg)
        _, prompt = rendered_prompts(demo_cfg)[0]
        cfg = replace(demo_cfg, mode="stochastic", max_new_tokens=32, seed=7)
        outs = []
        for gamma in (1, 5):
            baseline, _, _ = generate_for_prompt(target, draft, prompt, cfg, gamma=gamma, prompt_index=0)
            outs.append(baseline)
        assert outs[0] == outs[1]

    def test_greedy_outputs_ignore_seed(self, demo_cfg):
        target, draft = load_pair(demo_cfg)
        _, prompt = rendered_prompts(demo_cfg)[3]
        results = []
        for seed in (0, 123):
            cfg = replace(demo_cfg, mode="greedy", max_new_tokens=48, seed=seed)
            _, spd, _ = generate_for_prompt(target, draft, prompt, cfg, gamma=3, prompt_index=3)
            results.append(spd)
        assert results[0] == results[1]

    def test_stochastic_seed_isolation(self, demo_cfg):
        target, draft = load_pair(demo_cfg)
        prompts = rendered_prompts(demo_cfg)
        differs = False
        for idx, (_, prompt) in enumerate(prompts[:5]):
            runs = []
            for seed in (0, 0, 1):
                cfg = replace(demo_cfg, mode="stochastic", max_new_tokens=32, seed=seed)
                _, spd, _ = generate_for_prompt(target, draft, prompt, cfg, gamma=3, prompt_index=idx)
                runs.append(spd)
            assert runs[0] == runs[1], "same seed must reproduce the same output"
            differs = differs or runs[0] != runs[2]
        assert differs, "different seeds never changed a stochastic output"

    @pytest.mark.parametrize("mode", ["greedy", "stochastic"])
    @pytest.mark.parametrize("stop_on_eos, max_new_tokens", [(True, 64), (False, 23)], ids=["eos-cut", "length-cut"])
    def test_every_block_drafts_gamma_tokens(self, demo_cfg, mode, stop_on_eos, max_new_tokens):
        """A block drafts all gamma tokens before verification, so the trace's
        draft calls are gamma per target call, also where EOS or the length
        limit cut the last block's emission, which some runs here do."""
        cfg = replace(demo_cfg, mode=mode, stop_on_eos=stop_on_eos, max_new_tokens=max_new_tokens)
        target, draft = load_pair(cfg)
        cuts = set()
        for gamma in (2, 5):
            for idx, (_, prompt) in enumerate(rendered_prompts(cfg)):
                _, spd, trace = generate_for_prompt(target, draft, prompt, cfg, gamma=gamma, prompt_index=idx)
                assert trace.draft_calls == gamma * trace.target_calls
                assert trace.total_emitted == len(spd)
                last = trace.blocks[-1]
                if len(last.emitted) <= last.accepted:  # cut: an emission is the accepted prefix and one more token
                    cuts.add("length" if len(spd) == max_new_tokens else "eos")
        assert ("eos" if stop_on_eos else "length") in cuts

    def test_residual_memo_made_on_first_use(self, demo_cfg):
        """A greedy sweep over the demo dataset leaves every row of both
        tables without a residuals dict; a stochastic sweep makes some."""
        target, draft = load_pair(demo_cfg)
        rows = [*target.base.rows.values(), *draft.base.rows.values(), target.base._uniform, draft.base._uniform]
        for mode in ("greedy", "stochastic"):
            cfg = replace(demo_cfg, mode=mode, max_new_tokens=32)
            for idx, (_, prompt) in enumerate(rendered_prompts(demo_cfg)):
                generate_for_prompt(target, draft, prompt, cfg, gamma=3, prompt_index=idx)
            assert any(row.residuals is not None for row in rows) == (mode == "stochastic")


class TestRunExperiment:
    def test_report_shape_and_order(self, demo_cfg, tmp_path):
        report = run_experiment(demo_cfg, tmp_path)
        assert len(report.runs) == 40
        keys = [(r.prompt_id, r.gamma) for r in report.runs]
        assert keys == sorted(keys)
        header = (tmp_path / "report.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_aggregate_matches_rows(self, demo_cfg, tmp_path):
        report = run_experiment(demo_cfg, tmp_path)
        for agg in report.aggregates:
            taus = [r.tau for r in report.runs if r.gamma == agg.gamma]
            assert agg.mean_tau == pytest.approx(fmean(taus), abs=1e-12)

    def test_csv_columns_are_prompt_run_fields(self):
        assert CSV_COLUMNS == tuple(f.name for f in fields(PromptRun))

    @pytest.mark.parametrize("mode", ["greedy", "stochastic"])
    def test_token_rate_ratio_is_spd_tokens_per_modeled_second(self, demo_cfg, tmp_path, mode):
        """The modeled baseline emits one token per second, so the pooled
        ratio is the SPD rows' tokens over their modeled seconds, exactly."""
        report = run_experiment(replace(demo_cfg, mode=mode), tmp_path)
        for agg in report.aggregates:
            runs = [r for r in report.runs if r.gamma == agg.gamma]
            assert agg.token_rate_ratio == sum(r.tokens for r in runs) / sum(r.wall_time_s for r in runs)

    def test_wall_time_is_a_float_for_an_integer_cost(self, demo_cfg, tmp_path):
        """``cost_c: 1`` is a valid config; the modeled clock is still a
        float, as ``PromptRun.wall_time_s`` is typed and the report prints."""
        report = run_experiment(replace(demo_cfg, cost_c=1), tmp_path)
        assert {type(r.wall_time_s) for r in report.runs} == {float}

    def test_byte_identical_reruns(self, demo_cfg, tmp_path):
        run_experiment(demo_cfg, tmp_path / "a")
        run_experiment(demo_cfg, tmp_path / "b")
        for name in ("report.csv", "report.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_matches_golden_reports(self, demo_cfg, tmp_path):
        run_experiment(demo_cfg, tmp_path)
        for name in ("report.csv", "report.json"):
            assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name

    def test_image_blind_draft_plumbing_matches_text_only(self, demo_cfg, tmp_path):
        """Bundled prompts are longer than the draft window, so routing the
        image context to the draft cannot change any report byte."""
        run_experiment(demo_cfg, tmp_path / "plain")
        run_experiment(replace(demo_cfg, draft_uses_image=True), tmp_path / "img")
        assert (tmp_path / "plain" / "report.csv").read_bytes() == (
            tmp_path / "img" / "report.csv"
        ).read_bytes()

    def test_greedy_run_builds_no_rng_state(self, demo_cfg, tmp_path, monkeypatch):
        """Past config validation, a greedy sweep constructs no ``RngState``;
        a stochastic sweep constructs some."""
        built = []
        init = RngState.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        for mode in ("greedy", "stochastic"):
            cfg = replace(demo_cfg, mode=mode, max_new_tokens=16)
            with monkeypatch.context() as patch:
                patch.setattr(RngState, "__init__", counting_init)
                run_experiment(cfg, tmp_path / mode)
            assert (len(built) > 0) == (mode == "stochastic"), mode
            built.clear()

    def test_sweep_is_prompt_major_and_order_free(self, demo_cfg, tmp_path, monkeypatch):
        """The sweep runs each prompt at every gamma, in config order, before
        the next prompt; each (prompt, gamma) output equals a standalone
        call's, made here in the reverse order on freshly loaded models."""
        cfg = replace(demo_cfg, mode="stochastic", gammas=(3, 1), max_new_tokens=24)
        generate, calls = harness.generate_for_prompt, []

        def recording(*args, gamma, prompt_index):
            calls.append(((prompt_index, gamma), generate(*args, gamma=gamma, prompt_index=prompt_index)))
            return calls[-1][1]

        monkeypatch.setattr(harness, "generate_for_prompt", recording)
        run_experiment(cfg, tmp_path)
        prompts = rendered_prompts(cfg)
        assert [key for key, _ in calls] == [(idx, gamma) for idx in range(len(prompts)) for gamma in cfg.gammas]
        target, draft = load_pair(cfg)
        for (idx, gamma), outputs in reversed(calls):
            assert generate(target, draft, prompts[idx][1], cfg, gamma=gamma, prompt_index=idx) == outputs

    def test_each_gamma_builds_one_spd_config(self, demo_cfg, tmp_path, monkeypatch):
        """A sweep builds and checks one ``SpdConfig`` per gamma, shared by
        every prompt, not one per generation."""
        built = []
        check = SpdConfig.__post_init__

        def counting_check(self):
            built.append(self.gamma)
            check(self)

        monkeypatch.setattr(SpdConfig, "__post_init__", counting_check)
        harness._spd_config.cache_clear()
        run_experiment(replace(demo_cfg, gammas=(1, 3), max_new_tokens=8), tmp_path)
        assert sorted(built) == [1, 3]

    def test_identity_pair_fills_every_block(self, identity_dir, tmp_path):
        cfg = ExperimentConfig(
            target_model=str(identity_dir / "target.json"),
            draft_model=str(identity_dir / "draft.json"),
            dataset=str(demo_dataset_path()),
            template="plain",
            gammas=(3,),
            stop_on_eos=False,
        )
        report = run_experiment(cfg, tmp_path)
        for row in report.runs:
            assert row.tau == 4.0
            assert row.tokens == 64
            assert row.target_calls == 16

    def test_invalid_dataset_leaves_no_outputs(self, demo_cfg, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "a", "prompt_text": "x", "image_ctx": [999]}\n', encoding="utf-8")
        cfg = replace(demo_cfg, dataset=str(bad))
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="image token"):
            run_experiment(cfg, out)
        assert not (out / "report.csv").exists()
        assert not (out / "report.json").exists()

    def test_failed_write_removes_partial_outputs(self, demo_cfg, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(json, "dumps", boom)
        with pytest.raises(OSError):
            run_experiment(demo_cfg, tmp_path)
        assert not (tmp_path / "report.csv").exists()
        assert not (tmp_path / "report.json").exists()

    def test_out_of_vocab_prompt_tokens_rejected(self, demo_cfg, tmp_path):
        """Pre-tokenized ids outside [0, V) would otherwise run, and -1 would
        collide with the models' BOS padding."""
        bad = tmp_path / "tokens.jsonl"
        for tokens in ([999, 3], [-1, 3], [3, -5], [3, 2**70]):
            bad.write_text(json.dumps({"id": "q7", "tokens": tokens}) + "\n", encoding="utf-8")
            cfg = replace(demo_cfg, dataset=str(bad))
            with pytest.raises(ValueError, match=r"tokens\.jsonl:1: record 'q7': prompt token"):
                run_experiment(cfg, tmp_path / "out")

    @pytest.mark.parametrize(
        "template, record, error, reason",
        [
            pytest.param("plain", {"id": "a", "tokens": []}, ValueError, "prompt text must be non-empty", id="empty"),
            pytest.param(
                "plain", {"id": "a", "prompt_text": "caf\u00e9"}, ValueError, "'\u00e9' is not in the alphabet",
                id="outside-alphabet",
            ),
            pytest.param("chat", {"id": "a", "tokens": [3]}, MissingFieldError, "'prompt_text'", id="missing-field"),
        ],
    )
    def test_render_errors_name_dataset_and_record(self, demo_cfg, tmp_path, template, record, error, reason):
        """A record that fails to render is reported with the dataset file
        and the record id, under the type the renderer raised."""
        bad = tmp_path / "records.jsonl"
        bad.write_text(json.dumps(record) + "\n", encoding="utf-8")
        cfg = replace(demo_cfg, dataset=str(bad), template=template)
        with pytest.raises(error, match=re.escape(f"{bad}: record 'a': ") + ".*" + reason) as info:
            run_experiment(cfg, tmp_path / "out")
        assert type(info.value) is error

    @pytest.mark.parametrize("role", ["target", "draft"])
    def test_vocab_mismatch_names_model_file(self, demo_cfg, tmp_path, role):
        path = tmp_path / f"small-{role}.json"
        save_ngram(train_ngram([[0, 1, 0]], order=2, alpha=1.0, vocab=Vocab(size=3, eos=2)), path)
        cfg = replace(demo_cfg, **{f"{role}_model": str(path)})
        with pytest.raises(ValueError, match=re.escape(f"{path}: {role} model vocab")):
            run_experiment(cfg, tmp_path / "out")

    @pytest.mark.parametrize(
        "module, name, fails_at",
        [(json, "dumps", 1), (os, "replace", 1), (Path, "write_text", 2)],
        ids=["json-dumps", "os-replace", "second-write"],
    )
    def test_failed_rewrite_keeps_previous_report(self, demo_cfg, tmp_path, monkeypatch, module, name, fails_at):
        """A rewrite that fails, before or while files move into place, or
        while the second file is written after the first, leaves the previous
        report's bytes and no temporary file."""
        run_experiment(demo_cfg, tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert set(before) == {"report.csv", "report.json"}
        original, calls = getattr(module, name), []

        def boom(*args, **kwargs):  # the call numbered fails_at fails; those before it run
            calls.append(args)
            if len(calls) < fails_at:
                return original(*args, **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(module, name, boom)
        with pytest.raises(OSError):
            run_experiment(replace(demo_cfg, gammas=(2,)), tmp_path)
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestReportCsv:
    """Each ``report.csv`` row is one format of its run; only ``csv`` decides how a text cell is quoted."""

    IDS = ("q00", "a,b", 'say "hi"', "two\nlines", "tab\there", " lead", "caf\u00e9 \u56fe", "nul\u0000id", '"', ",")

    def test_rows_match_csv_writer_reference(self, tmp_path):
        floats = [1e-13, 1 / 3, 2.0, 123456789012.5, 1e16, 0.0, 99999999999.95, 4.5e-05, 0.1 + 0.2, 7e22]
        rng = np.random.default_rng(27)
        floats += [float(rng.uniform(-1, 1) * 10.0 ** rng.integers(-20, 21)) for _ in range(30)]
        runs = [
            PromptRun(pid, gamma, mode, 10 + i, 2**40 + i, *(floats[(4 * i + k) % len(floats)] for k in range(4)))
            for i, (pid, gamma, mode) in enumerate(
                (pid, gamma, mode) for pid in self.IDS for gamma in (1, 7) for mode in ("greedy", 'x,"y"')
            )
        ]
        harness._write_report(RunReport(config={}, runs=tuple(runs), aggregates=()), tmp_path)
        assert (tmp_path / "report.csv").read_bytes() == csv_writer_report(runs).encode("utf-8")

    def test_awkward_ids_read_back(self, demo_cfg, tmp_path):
        """Ids holding a comma, a quote, LF, tab, NUL, a leading space or
        non-ASCII text each read back whole, one row per (prompt, gamma)."""
        dataset = tmp_path / "ids.jsonl"
        dataset.write_text("".join(json.dumps({"id": pid, "prompt_text": "The cat"}) + "\n" for pid in self.IDS),
                           encoding="utf-8")
        report = run_experiment(replace(demo_cfg, dataset=str(dataset), gammas=(1, 3), max_new_tokens=8), tmp_path)
        with open(tmp_path / "report.csv", encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == list(CSV_COLUMNS)
        assert [row[:3] for row in rows[1:]] == [[r.prompt_id, str(r.gamma), r.mode] for r in report.runs]
        assert sorted(row[0] for row in rows[1:]) == sorted(self.IDS * 2)


class TestResidualTables:
    """A model pair's residual table is built only where it pays: once per
    loaded pair, on the first rejection of a stochastic run."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls = []

        def spy(target, draft):
            calls.append((target, draft))
            return residual_table(target, draft)

        residual_table = engine.residual_table
        monkeypatch.setattr(engine, "residual_table", spy)
        return calls

    @staticmethod
    def trained(tmp_path, target_order, draft_order):
        train_models(demo_corpus_path(), tmp_path, target_order=target_order, draft_order=draft_order)
        return {"target_model": str(tmp_path / "target.json"), "draft_model": str(tmp_path / "draft.json")}

    def test_greedy_sweep_builds_none(self, demo_cfg, built, tmp_path):
        run_experiment(demo_cfg, tmp_path)
        assert built == []

    def test_identity_pair_never_rejects_and_builds_none(self, demo_cfg, built, tmp_path):
        paths = self.trained(tmp_path, 4, 4)
        cfg = replace(demo_cfg, **paths, mode="stochastic", template="chat", gammas=(7,), max_new_tokens=64)
        cfg = replace(cfg, stop_on_eos=False)  # eight full blocks of eight tokens
        assert run_experiment(cfg, tmp_path / "out").aggregates[0].mean_tau == 8.0
        assert built == []

    def test_stochastic_sweep_builds_one_per_loaded_pair(self, demo_cfg, built, tmp_path):
        cfg = replace(demo_cfg, mode="stochastic", gammas=(1, 3, 5), max_new_tokens=32)
        for run in range(2):
            report = run_experiment(cfg, tmp_path)
            assert min(r.tau for r in report.runs) < 2.0  # some block rejected its first draft
            assert len(built) == run + 1
        assert built[0][0] is not built[1][0] and all(t.residual_draft is d for t, d in built)

    @pytest.mark.parametrize("orders", [(3, 2), (2, 3)], ids=["draft-below-target", "draft-above-target"])
    def test_table_changes_no_output(self, demo_cfg, built, tmp_path, monkeypatch, orders):
        """A stochastic sweep writes the same reports with the table as with
        the lazy path alone; a draft of higher order than the target builds
        no table."""
        cfg = replace(demo_cfg, **self.trained(tmp_path, *orders), mode="stochastic", gammas=(1, 4), max_new_tokens=32)
        run_experiment(cfg, tmp_path / "table")
        assert len(built) == (orders[1] <= orders[0])
        monkeypatch.setattr(engine, "residual_table", lambda target, draft: None)
        run_experiment(cfg, tmp_path / "lazy")
        for name in ("report.csv", "report.json"):
            assert (tmp_path / "table" / name).read_bytes() == (tmp_path / "lazy" / name).read_bytes()


class TestQualitativeTrace:
    @staticmethod
    def output_line(text):
        return next(line for line in text.splitlines() if line.startswith("output: "))

    def test_normal_pair_shows_corrections(self, demo_cfg):
        text = qualitative_trace(demo_cfg, "p00")
        assert "prompt p00" in text
        assert "legend:" in text
        assert "tau=" in text
        assert "{" in self.output_line(text)  # the weaker draft gets corrected somewhere

    def test_identity_pair_never_corrected(self, identity_dir):
        cfg = ExperimentConfig(
            target_model=str(identity_dir / "target.json"),
            draft_model=str(identity_dir / "draft.json"),
            dataset=str(demo_dataset_path()),
            template="plain",
            gammas=(3,),
        )
        out = self.output_line(qualitative_trace(cfg, "p00"))
        assert "[" in out
        assert "{" not in out

    def test_unknown_prompt_id(self, demo_cfg):
        with pytest.raises(UnknownPromptError):
            qualitative_trace(demo_cfg, "p99")

    def test_gamma_defaults_to_first_configured(self, demo_cfg):
        assert "gamma=3" in qualitative_trace(demo_cfg, "p13")
