"""Benchmark harness: tokenization, prompt templates, training, and runs.

The harness turns a plain-text corpus into character-level n-gram models,
renders dataset records through chat-style prompt templates, runs matched
autoregressive and speculative generations per (prompt, gamma), and writes
a CSV of per-prompt metrics plus a JSON aggregate.

Reported times are modeled, not measured: one target pass costs one second
and one draft pass costs ``c`` seconds.  That keeps every byte of the
reports reproducible from the config alone, which real wall clocks cannot
do, while still reflecting the relative-cost accounting the speed-up
metrics are built on.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from dataclasses import asdict, dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import Sequence

from mmspec.core import MultimodalPrompt, RngState, TokenId, Vocab, as_integer, _lines, _read_utf8, _write_atomic
from mmspec.engine import (
    MODES,
    BlockTrace,
    SpdConfig,
    autoregressive_generate,
    spd_generate,
)
from mmspec.metrics import (
    CostModel,
    DEFAULT_DRAFT_COST,
    PromptRun,
    RunReport,
    aggregate,
    block_efficiency,
    mbsu,
    mbsu_c_scaled,
)
from mmspec.models import (
    EmptyCorpusError,
    MultimodalTargetLm,
    PromptConditionedLm,
    TextOnlyDraftLm,
    _corpus_ids,
    _count_ngrams,
    _ngram_text,
    load_ngram,
)

__all__ = [
    "CSV_COLUMNS",
    "CharTokenizer",
    "DEFAULT_ALPHABET",
    "ExperimentConfig",
    "MAX_NEW_TOKENS",
    "MissingFieldError",
    "PromptRecord",
    "TEMPLATES",
    "UnknownPromptError",
    "demo_corpus_path",
    "demo_dataset_path",
    "generate_for_prompt",
    "load_dataset",
    "qualitative_trace",
    "render_template",
    "run_experiment",
    "train_models",
]

DATA_DIR = Path(__file__).resolve().parent / "data"

# Character inventory for the bundled corpus and templates.  The EOS id is
# one past the last character, so vocab size is len(alphabet) + 1.
DEFAULT_ALPHABET = (
    "\n !\"'(),-.0123456789:;?"
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    "abcdefghijklmnopqrstuvwxyz"
)

TEMPLATES = ("plain", "chat", "caption", "sqa")

CHAT_PREAMBLE = (
    "A chat between a curious user and an artificial intelligence assistant. "
    "The assistant gives helpful, detailed, and polite answers to the user's "
    "questions."
)
CAPTION_INSTRUCTION = "Provide a detailed description of the given image"

# Each report column prints the PromptRun field of the same name, and a row is one %-format of them: a float
# as .12g, anything else by str(), a string as csv quotes it (see _write_report).
CSV_COLUMNS = tuple(f.name for f in fields(PromptRun))
_ROW = ",".join("%.12g" if f.type == "float" else "%s" for f in fields(PromptRun)) + "\n"

# Config fields that name files: required, resolved against the config's
# directory, and echoed in reports by file name only.
_PATH_FIELDS = ("target_model", "draft_model", "dataset")

# Largest max_new_tokens a config may ask for: every decoding step keeps a
# token and a row, so an unbounded value runs until memory runs out.
MAX_NEW_TOKENS = 2**16

# Top-level stream ids: the baseline stream ignores gamma on purpose, so the
# baseline output for a prompt is the same whichever gamma is being measured.
_STREAM_BASELINE = 0
_STREAM_SPD = 1


class MissingFieldError(ValueError):
    """Raised when a template needs a record field that is absent or empty."""


class UnknownPromptError(ValueError):
    """Raised when a prompt id is not present in the dataset."""


def demo_corpus_path() -> Path:
    """Bundled demo corpus (plain text, one sequence per line)."""
    return DATA_DIR / "corpus.txt"


def demo_dataset_path() -> Path:
    """Bundled demo dataset (JSON lines of prompt records)."""
    return DATA_DIR / "demo.jsonl"


# --------------------------------------------------------------------------- #
#  Tokenization
# --------------------------------------------------------------------------- #


class CharTokenizer:
    """Character-level codec over :data:`DEFAULT_ALPHABET` plus a reserved EOS id."""

    def __init__(self) -> None:
        self._index = {ch: i for i, ch in enumerate(DEFAULT_ALPHABET)}
        self.vocab = Vocab(size=len(DEFAULT_ALPHABET) + 1, eos=len(DEFAULT_ALPHABET))

    def encode(self, text: str) -> list[TokenId]:
        try:
            return [self._index[ch] for ch in text]
        except KeyError as exc:
            raise ValueError(f"character {exc.args[0]!r} is not in the alphabet") from None

    def decode(self, ids: Sequence[TokenId], eos_marker: str = "") -> str:
        out = []
        for i in ids:
            if i == self.vocab.eos:
                out.append(eos_marker)
            elif 0 <= i < len(DEFAULT_ALPHABET):
                out.append(DEFAULT_ALPHABET[i])
            else:
                raise ValueError(f"token id {i} outside vocab of size {self.vocab.size}")
        return "".join(out)


# --------------------------------------------------------------------------- #
#  Dataset records and templates
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class PromptRecord:
    """One dataset entry: raw text or pre-tokenized ids, plus template fields."""

    prompt_id: str
    image_ctx: tuple[TokenId, ...] = ()
    prompt_text: str | None = None
    tokens: tuple[TokenId, ...] | None = None
    question: str | None = None
    options: tuple[str, ...] | None = None
    context: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "image_ctx", tuple(self.image_ctx))
        if self.tokens is not None:
            object.__setattr__(self, "tokens", tuple(self.tokens))
        if self.options is not None:
            object.__setattr__(self, "options", tuple(self.options))
        if (self.prompt_text is None) == (self.tokens is None):
            raise ValueError(
                f"record {self.prompt_id!r} must carry exactly one of prompt_text / tokens"
            )


def _require(record: PromptRecord, field_name: str, template: str) -> str:
    value = getattr(record, field_name)
    if value is None or value == "" or value == ():
        raise MissingFieldError(f"template {template!r} needs non-empty {field_name!r}")
    return value


def render_template(template: str, record: PromptRecord, tokenizer: CharTokenizer) -> tuple[TokenId, ...]:
    """Render a dataset record into prompt tokens for the given template.

    Model conditioning always places the image context before the whole
    text, whatever the template.

    Raises:
        MissingFieldError: if the template requires a field the record lacks.
        ValueError: for an unknown template id.
    """
    if template not in TEMPLATES:
        raise ValueError(f"unknown template {template!r}; expected one of {TEMPLATES}")
    if template == "plain":
        if record.tokens is not None:
            return tuple(record.tokens)
        text = _require(record, "prompt_text", template)
        return tuple(tokenizer.encode(text))
    if template in ("chat", "caption"):
        if template == "chat":
            question = _require(record, "prompt_text", template)
        else:
            question = CAPTION_INSTRUCTION
        # LLaVA's image slot, between "USER: " and " \n", stays empty in the text.
        return tuple(tokenizer.encode(f"{CHAT_PREAMBLE}  USER:  \n{question}  ASSISTANT:"))
    # sqa: multiple-choice question block; the image precedes the question.
    question = _require(record, "question", template)
    options = _require(record, "options", template)
    if record.context is None:
        raise MissingFieldError("template 'sqa' needs 'context' (may be empty)")
    option_text = " ".join(f"({i}) {opt}" for i, opt in enumerate(options))
    body = (
        f"Question: {question}\n"
        f"Options: {option_text}\n"
        f"Context: {record.context}\n"
        "Answer: The answer is"
    )
    return tuple(tokenizer.encode(body))


# A record's optional JSON fields, named as PromptRecord's and in the order they are checked: a list field with
# the type of its items, a string field with None.
_FIELDS = {"image_ctx": int, "tokens": int, "options": str, "prompt_text": None, "question": None, "context": None}
_NAMES = {"id", *_FIELDS}


def load_dataset(path: str | Path) -> list[PromptRecord]:
    """Read prompt records from a JSON-lines file.

    Raises:
        ValueError: on a byte that is not UTF-8, malformed lines, fields
            of the wrong type (a prompt id must be a non-empty string with
            no carriage return, which ``report.csv`` would not quote), an
            image or prompt token id outside the tokenizer's vocabulary,
            duplicate ids, or an empty dataset, with the file and the
            offending line number in the message.
    """
    path, size = Path(path), CharTokenizer().vocab.size
    records: list[PromptRecord] = []
    seen: set[str] = set()
    for lineno, line in enumerate(_lines(_read_utf8(path)), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # not JSON, an integer too long to convert, or nested too deep
            raise ValueError(f"{path}:{lineno}: not valid JSON ({exc})") from exc
        if not isinstance(obj, dict) or "id" not in obj:
            raise ValueError(f"{path}:{lineno}: expected an object with an 'id' field")
        extra = obj.keys() - _NAMES
        if extra:
            raise ValueError(f"{path}:{lineno}: unknown fields {sorted(extra)}")
        try:
            for key, item in _FIELDS.items():  # one pass, exact types: a bool, float or string id is an error
                if key not in obj:
                    continue
                value = obj[key]
                if item is None and type(value) is not str:
                    raise TypeError(f"{key!r} must be a string, got {value!r}")
                if item is not None and (type(value) is not list or not set(map(type, value)) <= {item}):
                    raise TypeError(f"{key!r} must be a list of {item.__name__}, got {value!r}")
            if type(obj["id"]) is not str or not obj["id"]:
                raise TypeError(f"'id' must be a non-empty string, got {obj['id']!r}")
            if "\r" in obj["id"]:  # csv.writer leaves a lone CR unquoted, so report.csv would split the row there
                raise TypeError(f"'id' must not hold a carriage return, got {obj['id']!r}")
            rec = PromptRecord(prompt_id=obj.pop("id"), **obj)
            ids = rec.image_ctx + rec.tokens if rec.tokens else rec.image_ctx  # one check for both, as most pass
            if ids and not 0 <= min(ids) <= max(ids) < size:
                kind, bad = next((kind, tok) for kind, seq in (("image", rec.image_ctx), ("prompt", rec.tokens))
                                 for tok in seq or () if not 0 <= tok < size)
                raise ValueError(f"record {rec.prompt_id!r}: {kind} token {bad} outside vocab of size {size}")
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        if rec.prompt_id in seen:
            raise ValueError(f"{path}:{lineno}: duplicate prompt id {rec.prompt_id!r}")
        seen.add(rec.prompt_id)
        records.append(rec)
    if not records:
        raise ValueError(f"{path}: dataset has no records")
    return records


# --------------------------------------------------------------------------- #
#  Experiment configuration
# --------------------------------------------------------------------------- #


@dataclass
class ExperimentConfig:
    """Everything a benchmark run depends on, resolvable up front."""

    target_model: str
    draft_model: str
    dataset: str
    gammas: tuple[int, ...] = (3, 5)
    mode: str = "greedy"
    max_new_tokens: int = 64
    seed: int = 0
    template: str = "chat"
    cost_c: float = DEFAULT_DRAFT_COST
    draft_uses_image: bool = False
    stop_on_eos: bool = True

    def __post_init__(self) -> None:
        for name in _PATH_FIELDS:
            path = getattr(self, name)
            if type(path) is not str:
                raise ValueError(f"config field {name} must be a string, got {path!r}")
            if not path:  # "" would resolve to the config's directory
                raise ValueError(f"config field {name} must name a file, got ''")
        for name, choices in (("template", TEMPLATES), ("mode", MODES)):
            if getattr(self, name) not in choices:
                raise ValueError(f"config field {name} must be one of {choices}, got {getattr(self, name)!r}")
        # checked first: a bool or a float passes the range checks below, and the report would echo it
        self.seed = as_integer("config field seed", self.seed)
        self.max_new_tokens = as_integer("config field max_new_tokens", self.max_new_tokens)
        if not isinstance(self.gammas, (list, tuple)):  # an int or a dict would fail below as a bare TypeError
            raise ValueError(f"config field gammas must be a list of integers, got {self.gammas!r}")
        self.gammas = tuple(as_integer("config field gammas", g) for g in self.gammas)
        for name in ("draft_uses_image", "stop_on_eos"):  # "no" is truthy, and would run with the EOS stop
            if type(getattr(self, name)) is not bool:
                raise ValueError(f"config field {name} must be a boolean, got {getattr(self, name)!r}")
        if type(self.cost_c) is bool or not isinstance(self.cost_c, (int, float)):
            raise ValueError(f"config field cost_c must be a number, got {self.cost_c!r}")
        if not self.gammas:
            raise ValueError("gammas must be a non-empty list")
        if len(set(self.gammas)) < len(self.gammas):
            raise ValueError(f"gammas must not repeat a value, got {list(self.gammas)}")
        for gamma in self.gammas:  # each rule is checked by the type that applies it
            _spd_config(gamma, self.mode, self.max_new_tokens, self.stop_on_eos)
            if gamma > self.max_new_tokens:  # a block drafts all gamma tokens before the length cut
                raise ValueError(f"gamma {gamma} is more than max_new_tokens {self.max_new_tokens}")
        if self.max_new_tokens > MAX_NEW_TOKENS:
            raise ValueError(f"max_new_tokens {self.max_new_tokens} is more than {MAX_NEW_TOKENS}")
        CostModel(self.cost_c)
        RngState(self.seed)

    @classmethod
    def from_dict(cls, obj: dict, base_dir: str | Path | None = None) -> "ExperimentConfig":
        """Build a config from parsed JSON; unknown keys and wrong-typed values are errors.

        Relative model/dataset paths are resolved against ``base_dir`` when
        given (the config file's directory, for file-based configs).
        """
        extra = set(obj) - {f.name for f in fields(cls)}
        if extra:
            raise ValueError(f"unknown config fields {sorted(extra)}")
        missing = set(_PATH_FIELDS) - set(obj)
        if missing:
            raise ValueError(f"config is missing required fields {sorted(missing)}")
        cfg = cls(**obj)
        if base_dir is not None:
            base = Path(base_dir)
            for name in _PATH_FIELDS:
                p = Path(getattr(cfg, name))
                if not p.is_absolute():
                    setattr(cfg, name, str(base / p))
        return cfg

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        try:
            obj = json.loads(_read_utf8(path, name_line=False))  # json counts lines otherwise
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(obj, dict):
            raise ValueError(f"{path}: config must be a JSON object")
        try:
            return cls.from_dict(obj, base_dir=path.parent)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc

    def summary(self) -> dict:
        """Stable config echo for reports: every field, with file names, not absolute paths."""
        echo = asdict(self) | {name: Path(getattr(self, name)).name for name in _PATH_FIELDS}
        echo["gammas"] = list(self.gammas)
        return echo


# --------------------------------------------------------------------------- #
#  Training
# --------------------------------------------------------------------------- #


def train_models(
    corpus_path: str | Path,
    out_dir: str | Path,
    *,
    target_order: int = 3,
    draft_order: int = 2,
    target_alpha: float = 0.1,
    draft_alpha: float = 0.1,
) -> tuple[Path, Path]:
    """Fit target and draft n-gram models on a text corpus and save both.

    Each non-blank corpus line becomes one training sequence ending in EOS.
    The defaults make the draft strictly weaker than the target (lower
    order), which is the interesting regime for speculative decoding; equal
    orders and alphas give the identity pair used by sanity checks.

    Both files are written in one :func:`~mmspec.core._write_atomic` call,
    so a failed write keeps the previous pair, never a new target beside an
    old draft.  Returns the paths of the written target and draft model files.
    """
    tokenizer = CharTokenizer()
    seqs = []
    for lineno, line in enumerate(_lines(_read_utf8(Path(corpus_path))), start=1):
        if line.strip():
            try:
                seqs.append(tokenizer.encode(line) + [tokenizer.vocab.eos])
            except ValueError as exc:
                raise ValueError(f"{corpus_path}:{lineno}: {exc}") from None
    if not seqs:
        raise EmptyCorpusError(f"{corpus_path}: training corpus has no non-empty sequences")
    ids = _corpus_ids(seqs, tokenizer.vocab, (target_order, draft_order))  # checked and converted once
    target = _count_ngrams(*ids, target_order, target_alpha, tokenizer.vocab)
    draft = _count_ngrams(*ids, draft_order, draft_alpha, tokenizer.vocab)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    target_path = out / "target.json"
    draft_path = out / "draft.json"
    _write_atomic({target_path: _ngram_text(target), draft_path: _ngram_text(draft)})
    return target_path, draft_path


# --------------------------------------------------------------------------- #
#  Running experiments
# --------------------------------------------------------------------------- #


@dataclass
class _RunContext:
    """Loaded models, records, and rendered prompts for one config."""

    tokenizer: CharTokenizer
    target: MultimodalTargetLm
    draft: PromptConditionedLm
    records: list[PromptRecord]
    prompts: list[MultimodalPrompt]


def _open(name: str, path: str, load):
    """``load(path)``; an OSError, such as a missing file, also names the config field ``name``."""
    try:
        return load(path)
    except OSError as exc:
        raise type(exc)(f"{name} {path}: {exc.strerror or exc}") from exc


def _load_context(cfg: ExperimentConfig) -> _RunContext:
    tokenizer = CharTokenizer()
    target_base = _open("target_model", cfg.target_model, load_ngram)
    draft_base = _open("draft_model", cfg.draft_model, load_ngram)
    for name, path, model in (("target", cfg.target_model, target_base), ("draft", cfg.draft_model, draft_base)):
        if model.vocab != tokenizer.vocab:
            raise ValueError(
                f"{path}: {name} model vocab {model.vocab} does not match tokenizer vocab {tokenizer.vocab}"
            )
    target = MultimodalTargetLm(target_base)
    draft: PromptConditionedLm = (
        MultimodalTargetLm(draft_base) if cfg.draft_uses_image else TextOnlyDraftLm(draft_base)
    )
    records = _open("dataset", cfg.dataset, load_dataset)
    prompts = []
    for rec in records:
        try:
            text = render_template(cfg.template, rec, tokenizer)
            prompts.append(MultimodalPrompt(image_ctx=rec.image_ctx, text=text))
        except ValueError as exc:  # MissingFieldError, a character outside the alphabet, empty text
            raise type(exc)(f"{cfg.dataset}: record {rec.prompt_id!r}: {exc}") from exc
    return _RunContext(tokenizer, target, draft, records, prompts)


@functools.lru_cache(maxsize=64, typed=True)
def _spd_config(gamma: int, mode: str, max_new_tokens: int, stop_on_eos: bool) -> SpdConfig:
    """The one ``SpdConfig`` of these knobs, built and checked once: it is
    frozen, so every generation at a gamma shares it."""
    return SpdConfig(gamma, mode, max_new_tokens, stop_on_eos)


def generate_for_prompt(
    target: MultimodalTargetLm,
    draft: PromptConditionedLm,
    prompt: MultimodalPrompt,
    cfg: ExperimentConfig,
    *,
    gamma: int,
    prompt_index: int,
) -> tuple[list[TokenId], list[TokenId], BlockTrace]:
    """Matched baseline and SPD generations of the ``prompt_index``-th
    prompt at ``gamma``, under the run's stream layout.

    Returns ``(baseline_tokens, spd_tokens, spd_trace)``.  The baseline
    stream is independent of gamma, so the baseline output for a prompt is
    identical across the gamma sweep.  No report byte reads the baseline;
    it is returned for callers that time it or check greedy identity
    against it, such as perfbench.
    """
    greedy = cfg.mode == "greedy"  # greedy decoding draws nothing, so it gets no stream
    baseline_rng = None if greedy else RngState(cfg.seed, (_STREAM_BASELINE, prompt_index))
    spd_rng = None if greedy else RngState(cfg.seed, (_STREAM_SPD, gamma, prompt_index))
    baseline = autoregressive_generate(target, prompt, cfg.max_new_tokens, baseline_rng, stop_on_eos=cfg.stop_on_eos)
    spd_cfg = _spd_config(gamma, cfg.mode, cfg.max_new_tokens, cfg.stop_on_eos)
    spd, trace = spd_generate(target, draft, prompt, spd_cfg, spd_rng)
    return baseline, spd, trace


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path) -> RunReport:
    """Run the full benchmark and write ``report.csv`` / ``report.json``.

    The sweep is prompt-major: each prompt, in dataset order, runs at every
    gamma before the next, so each view's cached ``start`` code serves all
    its gammas.  Every (prompt, gamma) gets an autoregressive baseline and
    a speculative run from matched seeds, keyed by gamma and prompt index,
    not by sweep order; the reports read only the speculative run, as the
    modeled baseline always emits one token per second.  Rows are sorted by
    (prompt_id, gamma); identical configs produce byte-identical reports.
    Partially written outputs are removed on failure.
    """
    ctx = _load_context(cfg)
    cost = CostModel(cfg.cost_c)
    runs: list[PromptRun] = []
    for idx, (rec, prompt) in enumerate(zip(ctx.records, ctx.prompts)):
        for gamma in cfg.gammas:
            _, spd, trace = generate_for_prompt(
                ctx.target, ctx.draft, prompt, cfg, gamma=gamma, prompt_index=idx
            )
            calls, tau = trace.target_calls, block_efficiency(trace)
            runs.append(
                PromptRun(
                    prompt_id=rec.prompt_id,
                    gamma=gamma,
                    mode=cfg.mode,
                    tokens=len(spd),
                    target_calls=calls,
                    tau=tau,
                    mbsu=mbsu(tau, gamma, cost),
                    mbsu_c_scaled=mbsu_c_scaled(tau, gamma, cost),
                    # modeled clock: one target pass is 1 s, one draft pass is c s
                    wall_time_s=float(calls) + cost.c * trace.draft_calls,
                )
            )
    runs.sort(key=attrgetter("prompt_id", "gamma"))
    aggregates = tuple(
        aggregate([r for r in runs if r.gamma == gamma]) for gamma in cfg.gammas
    )
    report = RunReport(config=cfg.summary(), runs=tuple(runs), aggregates=aggregates)
    _write_report(report, Path(out_dir))
    return report


def _csv_cells(texts) -> dict[str, str]:
    """Each of ``texts`` as ``csv`` writes it beside another cell (alone, an empty text would read ``""``)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cells = {}
    for text in texts:
        buf.seek(0)
        buf.truncate()
        writer.writerow((text, ""))
        cells[text] = buf.getvalue()[:-2]
    return cells


def _write_report(report: RunReport, out_dir: Path) -> None:
    """Write ``report.csv`` and ``report.json`` together with :func:`_write_atomic`: a failure keeps the last report.

    A CSV row is one ``_ROW`` format, fed a column at a time; each distinct text goes through ``csv`` once."""
    columns = []
    for f in fields(PromptRun):
        column = list(map(attrgetter(f.name), report.runs))
        columns.append(map(_csv_cells(set(column)).__getitem__, column) if f.type == "str" else column)
    csv_text = ",".join(CSV_COLUMNS) + "\n" + "".join(map(_ROW.__mod__, zip(*columns)))
    payload = {"config": report.config, "per_gamma": [asdict(a) for a in report.aggregates]}
    json_text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_atomic({out_dir / "report.csv": csv_text, out_dir / "report.json": json_text})


# --------------------------------------------------------------------------- #
#  Qualitative trace
# --------------------------------------------------------------------------- #


def qualitative_trace(cfg: ExperimentConfig, prompt_id: str) -> str:
    """Annotated generation for one prompt at the first configured gamma:
    which tokens the draft got right.

    Draft-accepted spans print inside ``[...]``, rejected positions print
    their target-side replacement inside ``{...}``, and bonus tokens after a
    clean block print inside ``(...)``.

    Raises:
        UnknownPromptError: if ``prompt_id`` is not in the dataset.
    """
    gamma = cfg.gammas[0]
    ctx = _load_context(cfg)
    try:
        idx = next(i for i, rec in enumerate(ctx.records) if rec.prompt_id == prompt_id)
    except StopIteration:
        raise UnknownPromptError(f"prompt id {prompt_id!r} not in {cfg.dataset}") from None
    prompt = ctx.prompts[idx]
    _, spd, trace = generate_for_prompt(ctx.target, ctx.draft, prompt, cfg, gamma=gamma, prompt_index=idx)
    pieces: list[str] = []
    for block in trace.blocks:
        accepted = block.emitted[: min(block.accepted, len(block.emitted))]
        if accepted:
            pieces.append("[" + ctx.tokenizer.decode(accepted, eos_marker="<eos>") + "]")
        tail = block.emitted[len(accepted) :]
        if tail:
            char = ctx.tokenizer.decode(tail, eos_marker="<eos>")
            pieces.append(f"({char})" if block.correction_kind == "bonus" else "{" + char + "}")
    tau = block_efficiency(trace)
    lines = [
        f"prompt {prompt_id} (template={cfg.template}, gamma={gamma}, mode={cfg.mode}, seed={cfg.seed})",
        "prompt text: " + ctx.tokenizer.decode(prompt.text),
        "output: " + "".join(pieces),
        "legend: [draft accepted] {target correction} (target bonus)",
        f"tokens={len(spd)} target_calls={trace.target_calls} tau={tau:.4f}",
    ]
    return "\n".join(lines)
