"""Benchmark workloads and the seeded generator that builds their inputs.

Each workload is one ``ExperimentConfig`` shape plus the model orders it is
trained with.  The generator turns a seed into a JSON-lines dataset that
``load_dataset`` accepts; set-up then trains the two models.  The program
under test sees only those generated files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the experiment shape and the model orders."""

    name: str
    template: str
    mode: str
    gammas: tuple[int, ...]
    max_new_tokens: int
    stop_on_eos: bool
    target_order: int
    draft_order: int
    n_prompts: int

    @property
    def identity_pair(self) -> bool:
        """Target and draft trained identically: every draft is accepted."""
        return self.target_order == self.draft_order


# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        # The fixed stochastic sweep: frequent rejections, so RNG draws,
        # sampling, residuals and ProbDist construction dominate.
        Workload("chat-stoch-sweep", "chat", "stochastic", (1, 3, 5, 7), 256, False, 3, 2, 20),
        # The golden-file regime: no uniform draws and ~12-token outputs,
        # so per-generation fixed cost and the report write dominate.
        Workload("plain-greedy-eos", "plain", "greedy", (3, 5), 64, True, 3, 2, 400),
        # Identity pair at order 4: tau = gamma + 1 exactly, no residuals,
        # full-length score_block, draft as costly as target.
        Workload("order4-identity-g7", "chat", "stochastic", (7,), 256, False, 4, 4, 60),
    )
}


def write_dataset(spec: Workload, seed: int, corpus_lines: list[str], vocab_size: int, path: Path) -> None:
    """Write ``spec.n_prompts`` seeded prompt records to ``path``.

    Prompt text is the first one to four words of a corpus line.  The
    (line, word count) pairs are drawn without replacement, starting over
    once all are used, so that every seed gets nearly the same prompt mix
    and acceptance rate; drawn with replacement, tau on plain-greedy-eos
    spread 0.032 between seeds, against 0.012 this way.  The image context
    is three to six ids drawn from ``[0, vocab_size)``.  The same
    ``(spec.name, seed)`` always gives the same bytes.
    """
    rng = random.Random(f"{spec.name}/{seed}")
    pairs = [(ln, k) for ln in corpus_lines for k in range(1, min(4, len(ln.split()) - 1) + 1)]
    drawn: list[tuple[str, int]] = []
    while len(drawn) < spec.n_prompts:
        drawn += rng.sample(pairs, len(pairs))
    lines = []
    for i, (line, n_words) in enumerate(drawn[: spec.n_prompts]):
        text = " ".join(line.split()[:n_words])
        image_ctx = [rng.randrange(vocab_size) for _ in range(rng.randint(3, 6))]
        lines.append(json.dumps({"id": f"q{i:04d}", "image_ctx": image_ctx, "prompt_text": text}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
