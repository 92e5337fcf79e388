"""Span tracing around calls into mmspec's public functions.

Spans are recorded only from the benchmark's side: each traced name is
replaced, where the caller looks it up, by a wrapper that records
``[name, parent, request, tag, start_ns, end_ns]``.  The request id is the
``(prompt_index, gamma)`` of the enclosing ``generate_for_prompt`` call;
``tag`` carries the block length for ``score_block`` and gamma for
``draft_block``.  Spans stay in memory until :func:`write_spans`.
"""

from __future__ import annotations

import csv
import time
from collections import defaultdict
from pathlib import Path

NO_PARENT = -1
NO_REQUEST = ()


class Patcher:
    """Replaces attributes and puts them back on :meth:`uninstall`."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(owner.attr)``.  An inherited
        method is shadowed on ``owner`` and deleted again on uninstall."""
        self._undo.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, make(getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


class Tracer(Patcher):
    """Records nested spans around the functions it patches."""

    def __init__(self) -> None:
        super().__init__()
        self.spans: list[list] = []
        self.request: tuple[int, ...] = NO_REQUEST
        self._stack: list[int] = []

    def wrap(self, name: str, fn, tag=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else NO_PARENT, self.request, tag(args) if tag else 0, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[4] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()

        return traced

    def trace(self, owner, attr: str, name: str, tag=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span."""
        self.patch(owner, attr, lambda fn: self.wrap(name, fn, tag))

    def with_request(self, fn):
        """Wrap ``fn`` so that spans inside it carry the call's
        ``(prompt_index, gamma)`` as their request id."""

        def with_request(*args, **kwargs):
            self.request = (kwargs["prompt_index"], kwargs["gamma"])
            try:
                return fn(*args, **kwargs)
            finally:
                self.request = NO_REQUEST

        return with_request


def install(tracer: Tracer, core, models, engine, harness) -> None:
    """Trace every layer boundary the benchmark reports on.

    Each name is patched in the module that looks it up: ``ProbDist`` in
    ``models`` (next_dist, score_block) and ``core`` (normalize); the
    sampling helpers in ``engine``; the generation loops, model loading and
    metric functions in ``harness``.  Target and draft are told apart by
    their view classes.
    """
    t = tracer
    t.trace(models, "ProbDist", "core.ProbDist")
    t.trace(core, "ProbDist", "core.ProbDist")
    t.trace(core.RngState, "__init__", "core.RngState.init")
    t.trace(core.RngState, "uniform", "core.RngState.uniform")
    for name in ("sample", "argmax", "normalize"):
        t.trace(engine, name, f"core.{name}")
    t.trace(models.MultimodalTargetLm, "next_dist", "models.target.next_dist")
    t.trace(models.MultimodalTargetLm, "score_block", "models.target.score_block", tag=lambda a: len(a[3]))
    t.trace(models.TextOnlyDraftLm, "next_dist", "models.draft.next_dist")
    t.trace(models, "load_ngram", "models.load_ngram")
    t.trace(harness, "load_ngram", "models.load_ngram")
    t.trace(engine, "draft_block", "engine.draft_block", tag=lambda a: a[3])
    t.trace(engine, "verify_stochastic", "engine.verify")
    t.trace(engine, "verify_greedy", "engine.verify")
    t.trace(engine, "residual_dist", "engine.residual_dist")
    t.trace(harness, "spd_generate", "engine.spd_generate")
    t.trace(harness, "autoregressive_generate", "engine.autoregressive_generate")
    for name in ("block_efficiency", "mbsu", "mbsu_c_scaled", "aggregate"):
        t.trace(harness, name, f"metrics.{name}")
    for name in ("train_models", "load_dataset", "render_template", "run_experiment"):
        t.trace(harness, name, f"harness.{name}")
    t.patch(harness, "generate_for_prompt", lambda fn: t.with_request(t.wrap("harness.generate_for_prompt", fn)))


class SpanStats:
    """Per-name call counts, durations and self times of a span list."""

    def __init__(self, spans: list[list], first: int = 0) -> None:
        """Statistics of ``spans``, a slice of a tracer's spans that starts
        at index ``first`` and holds every descendant of its spans."""
        child_ns = [0] * len(spans)
        for _, parent, _, _, start, end in spans:
            if parent != NO_PARENT:
                child_ns[parent - first] += end - start
        self.durations_us: dict[tuple[str, int | None], list[float]] = defaultdict(list)
        self.self_ns: dict[str, int] = defaultdict(int)
        for i, (name, _, _, tag, start, end) in enumerate(spans):
            self.durations_us[name, None].append((end - start) / 1e3)
            if tag:
                self.durations_us[name, tag].append((end - start) / 1e3)
            self.self_ns[name] += end - start - child_ns[i]

    def calls(self, name: str) -> int:
        return len(self.durations_us.get((name, None), ()))

    def self_s(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def us(self, name: str, q: float, tag: int | None = None) -> float:
        """Duration quantile ``q`` in microseconds; 0.0 when never called."""
        values = sorted(self.durations_us.get((name, tag), ()))
        if not values:
            return 0.0
        return values[min(len(values) - 1, int(q * len(values)))]


def write_spans(spans: list[list], path: Path) -> None:
    """Write spans as CSV, one row per span in start order."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(("id", "name", "parent", "request", "tag", "start_ns", "end_ns"))
        for i, (name, parent, request, tag, start, end) in enumerate(spans):
            req = f"p{request[0]}g{request[1]}" if request else ""
            out.writerow((i, name, parent, req, tag, start, end))
