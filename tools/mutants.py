#!/usr/bin/env python3
"""Mutation checks: does tier-1 notice when one piece of the program is broken on purpose?

Each entry of ``MUTANTS`` is ``(file, old text, new text, what it breaks)``.
For each, the checkout is copied to a temporary directory, the one
occurrence of ``old`` in ``file`` is replaced by ``new``, and tier-1 runs
there without the digest tests, with ``-x``.  One line per mutant gives the
first failing test, or ``SURVIVED``:

    python3 tools/mutants.py                 # every mutant, ~10-20 s each

The unmutated copy runs first and must pass.  The exit status is 1 if a
mutant survived or could not be applied (its ``old`` text no longer occurs
exactly once in its file, or the mutated file does not compile), and 2 if
the unmutated copy fails.  A change to ``engine.py``,
``models.py`` or ``core.py`` adds its own mutants here.  Standard library
only; the checkout itself is never written.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Sequence

ROOT = Path(__file__).resolve().parent.parent
TIER1 = (sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
         "--ignore=tests/test_bench_digests.py", "tests")
RUN_TIMEOUT_S = 300  # tier-1 takes ~20 s; a mutant that never ends a run is stopped here
# A mutant that loops while it grows a list (say, one that never appends a block to the output) fails with
# MemoryError here, not after it has taken the host's memory.
MEMORY_LIMIT_BYTES = 4 << 30
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "BENCH_*.json")


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    breaks: str


class MutantError(ValueError):
    """Raised when a mutant's old text does not occur exactly once in its file, or the mutated file does not
    compile: either way the entry tests nothing."""


M = "src/mmspec/models.py"
E = "src/mmspec/engine.py"
C = "src/mmspec/core.py"
H = "src/mmspec/harness.py"

MUTANTS = [
    # Window codes, rows and the prompt tail.
    Mutant(M, "islice(draws, n - 1):\n                key = (key * base + tok + 1) % mod",
           "islice(draws, n - 1):\n                key = key * base + tok + 1",
           "a walk shifts its key without % mod"),
    Mutant(M, "for tok in block:\n            key = (key * base + tok + 1) % mod",
           "for tok in block:\n            key = key * base + tok + 1",
           "score_block shifts its key without % mod"),
    Mutant(M, "self._base = base.vocab.size + 1", "self._base = base.vocab.size",
           "the views fold in base V, not V + 1"),
    Mutant(M, "code = code * base + tok + 1\n", "code = code * base + (tok + 1 if tok != BOS else base - 1)\n",
           "BOS is digit V, not 0, in the row codes"),
    Mutant(M, "window = (prompt.image_ctx[last] + prompt.text[last] if self.sees_image else prompt.text)[last]",
           "window = prompt.text[last]",
           "the target's start drops the image tail"),
    Mutant(M, "if not 0 <= tok < base - 1:", "if not -1 <= tok < base:",
           "the prompt-window id check widened to [-1, V]"),
    Mutant(M, "last, base = self._last, self._base", "last, base = slice(-self._need, None), self._base",
           "start reads the whole prompt for an order-1 model"),
    # Residual table.
    Mutant(E, "draft.rows.get(code % draft.code_mod, draft._uniform)",
           "draft.rows.get(code % target.code_mod, draft._uniform)",
           "the residual suffix is taken modulo the target's code_mod"),
    Mutant(E, "q.residuals.setdefault(p, row)", "q.residuals.setdefault(draft._uniform, row)",
           "every residual is stored under the uniform draft row"),
    # Random streams.
    Mutant(C, 'seed.to_bytes(16, "little")', 'seed.to_bytes(8, "little")',
           "the seed is not padded to 4 words"),
    Mutant(C, '.to_bytes(4 * ((s.bit_length() + 31) // 32 or 1), "little")',
           '.to_bytes(4 * ((s.bit_length() + 31) // 32 or 1), "big")',
           "stream ids are written big-endian"),
    Mutant(C, 'seed.to_bytes(16, "little") + ids,', 'seed.to_bytes(16, "little"),',
           "stream ids are lost from the key"),
    Mutant(C, '.to_bytes(4 * ((s.bit_length() + 31) // 32 or 1), "little")', '.to_bytes(4, "little")',
           "one word per stream id"),
    Mutant(C, "yield random(REFILL).tolist()", "yield random(REFILL).tolist()[:-1]",
           "a refill drops its last draw"),
    Mutant(C, "yield random(REFILL).tolist()", "yield random(REFILL).tolist()[1:]",
           "a refill drops its first draw"),
    Mutant(C, "return next(self._draws)", "return next(chain.from_iterable(_refills(self.seed, self.stream)))",
           "uniform() reads a fresh cursor, not the stream's one"),
    Mutant(C, "_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)", "_ZERO_COUNTER = np.array([1, 0, 0, 0], dtype=np.uint64)",
           "Philox starts from a non-zero counter"),
    Mutant(M, "islice(draws, n - 1)", "islice(draws, min(n, 256) - 1)",
           "a walk ends when its first refill's worth of draws runs out"),
    Mutant(M, "islice(draws, n - 1)", "islice(draws, n)",
           "a stochastic walk reads one draw too many"),
    Mutant(M, "repeat(None, n - 1)", "repeat(None, n - 2)",
           "a greedy walk stops one token short"),
    Mutant(C, "if not all(map(is_integer, ids)) or min(ids, default=0) < 0:", "if not all(map(is_integer, ids)):",
           "a negative stream id is accepted"),
    Mutant(C, "return isinstance(value, (int, np.integer)) and type(value) is not bool",
           "return isinstance(value, (int, np.integer, float))",
           "a float or bool seed or stream id is truncated, not refused"),
    # Config checks.
    Mutant(H, "if type(self.cost_c) is bool or not isinstance(self.cost_c, (int, float)):",
           "if not isinstance(self.cost_c, (int, float)):",
           "a bool cost_c is accepted"),
    Mutant(H, 'for name in ("draft_uses_image", "stop_on_eos"):', "for name in ():",
           "the config's flags are unchecked"),
    Mutant(H, "if type(path) is not str:", "if False:",
           "a config path that is not a string is accepted"),
    Mutant(H, "if not isinstance(self.gammas, (list, tuple)):", "if False:",
           "a config's gammas that are not a list or tuple are accepted"),
    Mutant(H, 'for name, choices in (("template", TEMPLATES), ("mode", MODES)):',
           'for name, choices in (("template", TEMPLATES),):',
           "a config's mode is unchecked"),
    Mutant(E, 'for name in ("gamma", "max_new_tokens"):', 'for name in ("max_new_tokens",):',
           "SpdConfig takes a float or bool gamma"),
    Mutant(E, "if type(self.stop_on_eos) is not bool:", "if False:",
           "SpdConfig takes a non-bool stop_on_eos"),
    Mutant(E, '        as_integer("max_new_tokens", max_new_tokens)\n', "        pass\n",
           "autoregressive_generate takes a float max_new_tokens"),
    Mutant(E, "if type(stop_on_eos) is not bool:", "if False:",
           "autoregressive_generate takes a non-bool stop_on_eos"),
    # Greedy is no stream.
    Mutant(E, "rng, stop)[0]", "None, stop)[0]",
           "autoregressive_generate drops its stream, so a stochastic baseline is greedy"),
    Mutant(E, "draft.walk(prompt, generated, gamma, rng, None, key)",
           "draft.walk(prompt, generated, gamma, None, None, key)",
           "draft_block drops its stream, so a stochastic block is greedy"),
    # Codes carried through a speculative run.
    Mutant(E, "_shift_pair(draft, target, draft_key, target_key, emitted)",
           "_shift_pair(draft, target, draft_key, target_key, emitted[:-1])",
           "the correction or bonus token is not shifted in"),
    Mutant(E, "_shift_pair(draft, target, draft_key, target_key, emitted)",
           "_shift_pair(draft, target, draft_key, target_key, record.draft_tokens)",
           "the drafted tokens are shifted in, not the emitted ones"),
    Mutant(M, "for tok in tokens[second._last]:", "for tok in tokens[:-1][second._last]:",
           "_shift_pair skips the correction or bonus token in the second view's code"),
    Mutant(M, "for tok in tokens[first._last]:\n        key1 = (key1 * base + tok + 1) % mod",
           "for tok in tokens[first._last]:\n        key1 = key1 * base + tok + 1",
           "_shift_pair moves the first view's code without % mod"),
    Mutant(M, "for tok in tokens[second._last]:\n        key2 = (key2 * base + tok + 1) % mod",
           "for tok in tokens[second._last]:\n        key2 = (key2 * base + tok + 1) % first._mod",
           "_shift_pair moves the second view's code modulo the first's"),
    Mutant(M, "for tok in tokens[self._last]:\n            key = (key * base + tok + 1) % mod",
           "for tok in tokens[self._last]:\n            key = key * base + tok + 1",
           "shift skips % mod"),
    Mutant(M, "self._last = slice(-self._need, None) if self._need else slice(0)",
           "self._last = slice(self._need)",
           "shift folds the first need tokens, not the last"),
    Mutant(M, "if self._start[0] is not prompt:", "if self._start[0] is None:",
           "a run's first block gets the stale prompt-tail code of an earlier prompt"),
    Mutant(E, "draft.start(prompt), target.start(prompt)", "draft.start(prompt), draft.start(prompt)",
           "the first block is scored from the draft view's code, which never holds the image"),
    Mutant(M, "row = self.next_dist(prompt, generated) if key is None else self._get(key, self._uniform)",
           "row = self.next_dist(prompt, generated)",
           "a walk given a code still calls next_dist"),
    # Block records.
    Mutant(E, '(tokens, j, tokens[:j] + (fix,), "residual-resample")',
           '(tokens, tokens[:j] + (fix,), j, "residual-resample")',
           "a residual-resample record swaps accepted and emitted"),
    Mutant(E, '(tokens, n, tokens + (argmax(target_dists[n]),), "bonus")',
           '(tokens + (argmax(target_dists[n]),), n, tokens, "bonus")',
           "a greedy bonus record swaps draft_tokens and emitted"),
    # Model contexts, the row builder and the file boundary.
    Mutant(M, "if len(set(contexts)) < len(contexts):", "if False:",
           "NgramLm accepts a repeated context"),
    Mutant(M, "max(ids) < vocab.size):", "max(ids) <= vocab.size):",
           "NgramLm's id check admits V"),
    Mutant(M, "if set(map(len, contexts)) != {order - 1}:", "if False:",
           "NgramLm skips the width check"),
    Mutant(M, "if not set(map(type, chain.from_iterable(contexts))) <= {int}:", "if False:",
           "NgramLm takes a float, bool or numpy context id"),
    Mutant(C, 'object.__setattr__(self, "size", as_integer("vocab size", self.size))',
           'as_integer("vocab size", self.size)',
           "Vocab keeps a numpy size unconverted"),
    Mutant(M, 'order = as_integer("order", order)', 'as_integer("order", order)',
           "NgramLm keeps a numpy order unconverted"),
    Mutant(M, "if bad := [order for order in orders if not is_integer(order)]:", "if bad := []:",
           "training takes a float or bool order"),
    Mutant(M, "if type(alpha) is bool or not isinstance(alpha, (int, float)):",
           "if not isinstance(alpha, (int, float)):",
           "NgramLm takes a bool alpha"),
    Mutant(M, "ranked = np.lexsort(columns[::-1])", "ranked = np.lexsort(columns)",
           "training numbers the contexts sorted newest id first"),
    Mutant(M, '"contexts": list(map(list, model.contexts)),', '"contexts": sorted(map(list, model.contexts)),',
           "a save sorts the contexts but not their counts"),
    Mutant(M, "    @functools.cached_property\n    def rows(", "    @property\n    def rows(",
           "NgramLm.rows builds a new table on every read"),
    Mutant(H, "_write_atomic({target_path: _ngram_text(target), draft_path: _ngram_text(draft)})",
           "_write_atomic({target_path: _ngram_text(target)})\n    _write_atomic({draft_path: _ngram_text(draft)})",
           "train_models writes the target and the draft in two writes"),
    Mutant(C, "tmps[path].write_text(text, encoding=\"utf-8\", newline=\"\")\n        for path, tmp in tmps.items():\n"
              "            os.replace(tmp, path)",
           "tmps[path].write_text(text, encoding=\"utf-8\", newline=\"\")\n            os.replace(tmps[path], path)",
           "the writer replaces each file as soon as it is written"),
    Mutant(C, "tmp.unlink(missing_ok=True)", "pass",
           "the writer leaves its temporary file after a failure"),
    Mutant(C, "cdfs[np.arange(matrix.shape[1]) >= last[:, None]] = 1.0", "cdfs[:, -1] = 1.0",
           "ProbDist(probs) and ProbDist.table clamp only the last cdf entry"),
    Mutant(C, 'if name_line else ""', 'if False else ""',
           "the reader drops the line number"),
    Mutant(C, 'lines = text.replace("\\r\\n", "\\n").split("\\n")', 'lines = text.split("\\n")',
           "a line keeps the carriage return of its CRLF"),
    Mutant(C, 'lines = text.replace("\\r\\n", "\\n").split("\\n")',
           'lines = text.replace("\\r\\n", "\\n").replace("\\x0c", "\\n").split("\\n")',
           "a form feed ends a line"),
    # Report rows, the sweep and its bookkeeping.
    Mutant(H, '"%.12g" if f.type == "float"', '"%.11g" if f.type == "float"',
           "report floats are written to 11 significant digits"),
    Mutant(H, 'columns.append(map(_csv_cells(set(column)).__getitem__, column) if f.type == "str" else column)',
           "columns.append(column)",
           "report text cells are written without csv quoting"),
    Mutant(H, 'if "\\r" in obj["id"]:', "if False:",
           "a prompt id holding a carriage return is accepted"),
    Mutant(H, "not set(map(type, value)) <= {item}", "not set(map(type, value)) <= {item, bool}",
           "a dataset list takes a bool item"),
    Mutant(H, "    for idx, (rec, prompt) in enumerate(zip(ctx.records, ctx.prompts)):\n        for gamma in cfg.gammas:",
           "    for gamma in cfg.gammas:\n        for idx, (rec, prompt) in enumerate(zip(ctx.records, ctx.prompts)):",
           "the sweep is gamma-major"),
    Mutant(H, "wall_time_s=float(calls) +", "wall_time_s=calls +",
           "an integer cost_c makes the modeled clock an int"),
    Mutant(E, "return sum(map(len, map(_EMITTED, self.blocks)))", "return sum(map(len, map(_DRAFTED, self.blocks)))",
           "total_emitted sums the drafted tokens"),
    Mutant(E, "return sum(map(len, map(_DRAFTED, self.blocks)))", "return sum(map(len, map(_EMITTED, self.blocks)))",
           "draft_calls sums the emitted tokens"),
]


def apply(checkout: Path, dest: Path, mutant: Mutant) -> None:
    """Copy ``checkout`` to ``dest`` (a new directory) and mutate the copy.

    Raises:
        MutantError: if ``mutant.old`` does not occur exactly once in ``mutant.file``, or the mutated file
            does not compile.
    """
    shutil.copytree(checkout, dest, ignore=IGNORED)
    path = dest / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise MutantError(f"{mutant.file}: old text occurs {text.count(mutant.old)} times, not once: {mutant.old!r}")
    text = text.replace(mutant.old, mutant.new)
    try:
        compile(text, mutant.file, "exec")
    except SyntaxError as exc:
        raise MutantError(f"{mutant.file}: the mutated file does not compile: {exc}") from None
    path.write_text(text, encoding="utf-8")


def first_failure(output: str) -> str | None:
    """The first test named in a ``-rfE`` short summary, or None."""
    for line in output.splitlines():
        for tag in ("FAILED ", "ERROR "):
            if line.startswith(tag):
                return line[len(tag):].split(" - ")[0]
    return None


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))


def run_tests(copy: Path, command: Sequence[str]) -> tuple[int, str]:
    """Run ``command`` in ``copy``, importing the package from the copy's ``src``, with its address space held
    to ``MEMORY_LIMIT_BYTES``: its exit code and output."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run(command, cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=RUN_TIMEOUT_S, check=False, preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return -1, f"ran past {RUN_TIMEOUT_S} s"
    return proc.returncode, proc.stdout


def verdict(code: int, output: str) -> str:
    """What one mutant's run says: the first failing test, ``SURVIVED``, or how the run failed otherwise."""
    if code == 0:
        return "SURVIVED"
    lines = output.strip().splitlines()
    return first_failure(output) or f"killed: exit {code}, {lines[-1] if lines else 'no output'}"


def check(checkout: Path, mutant: Mutant | None, command: Sequence[str] = TIER1) -> str:
    """The verdict on ``mutant`` (None: the unmutated checkout) in a temporary copy of ``checkout``."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        if mutant is None:
            shutil.copytree(checkout, copy, ignore=IGNORED)
        else:
            apply(checkout, copy, mutant)
        return verdict(*run_tests(copy, command))


def main(mutants: Sequence[Mutant] = MUTANTS, command: Sequence[str] = TIER1, checkout: Path = ROOT) -> int:
    baseline = check(checkout, None, command)
    if baseline != "SURVIVED":  # what a passing run reads as
        print(f"error: the unmutated checkout fails: {baseline}")
        return 2
    bad = 0
    for i, m in enumerate(mutants, 1):
        try:
            result = check(checkout, m, command)
        except MutantError as exc:
            result = f"NOT APPLIED: {exc}"
        bad += result == "SURVIVED" or result.startswith("NOT APPLIED")
        print(f"{i:2d}. {m.file}: {m.breaks}: {result}", flush=True)
    print(f"{len(mutants) - bad} of {len(mutants)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
