#!/usr/bin/env python3
"""Wall-clock benchmark of mmspec's public entry point.

Run from the repository root, one workload per process:

    python3 perfbench/run.py --workload chat-stoch-sweep --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

A run generates the workload's dataset from ``--seed``, sets up (trains and
loads the models, renders the prompts) several times, then repeats
``harness.run_experiment`` sweeps for ``--seconds`` seconds, checking every
generation.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a separate traced sweep
with ``--trace 1``.  README.md defines every metric.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import reference
from spans import Patcher, SpanStats, Tracer, install, write_spans
from workloads import WORKLOADS, Workload, write_dataset

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
SETUP_REPEATS = 9
# Set-ups, 15-90 ms each, get this share of a timed run's sweep time.
SETUP_SHARE = 0.2
MIN_SWEEPS = 3
# A timed sweep is cut, at the end of a generation, into pieces of at least
# this many seconds, with a reference chunk (about 4 ms) between pieces.
PIECE_S = 0.04
ALL_GAMMAS = sorted({g for w in WORKLOADS.values() for g in w.gammas})
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def committed_digest(workload: str) -> str | None:
    """Digest of all tokens one sweep emits at DEFAULT_SEED, as committed."""
    return json.loads((HERE / "digests.json").read_text(encoding="utf-8")).get(workload)


class Recorder(Patcher):
    """Keeps one sweep's generation outputs and where its wall time went.

    It wraps ``generate_for_prompt``, ``spd_generate`` and
    ``autoregressive_generate`` in ``harness``, where ``run_experiment``
    looks them up, and costs five clock reads per generation.  With a
    ``host`` set it also cuts the sweep into pieces of at least
    :data:`PIECE_S` seconds and times a reference chunk between them,
    outside the measured time.
    """

    def __init__(self, harness) -> None:
        super().__init__()
        self.host: reference.Host | None = None
        self.rows: list[tuple[int, int, list[int], list[int], object]] = []
        self.spd_s: dict[tuple[int, int], float] = {}
        self.ar_s: dict[tuple[int, int], float] = {}
        # The slowdown of the piece each generation ran in.
        self.slowdown: dict[tuple[int, int], float] = {}
        self.seconds = 0.0
        self.quiet_seconds = 0.0
        self.piece: list[tuple[int, int]] = []
        self.piece_start = 0.0
        self.item = (0, 0)
        self.patch(harness, "generate_for_prompt", self._generation)
        self.patch(harness, "spd_generate", lambda fn: self._timed(fn, self.spd_s))
        self.patch(harness, "autoregressive_generate", lambda fn: self._timed(fn, self.ar_s))

    def start(self) -> None:
        for record in (self.rows, self.spd_s, self.ar_s, self.slowdown, self.piece):
            record.clear()
        self.seconds = self.quiet_seconds = 0.0
        self.piece_start = time.perf_counter()

    def cut(self) -> None:
        """End the current piece, here or at the end of the sweep."""
        seconds = time.perf_counter() - self.piece_start
        slowdown = self.host.slowdown() if self.host else 1.0
        self.seconds += seconds
        self.quiet_seconds += seconds / slowdown
        self.slowdown.update(dict.fromkeys(self.piece, slowdown))
        self.piece.clear()
        self.piece_start = time.perf_counter()

    def _generation(self, fn):
        def generate_for_prompt(*args, **kwargs):
            self.item = (kwargs["prompt_index"], kwargs["gamma"])
            self.piece.append(self.item)
            baseline, spd, trace = fn(*args, **kwargs)
            self.rows.append((*self.item, baseline, spd, trace))
            if self.host and time.perf_counter() - self.piece_start >= PIECE_S:
                self.cut()
            return baseline, spd, trace

        return generate_for_prompt

    def _timed(self, fn, seconds: dict):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            seconds[self.item] = time.perf_counter() - start
            return out

        return timed


class Sweep:
    """Measurements and check results of one ``run_experiment`` call.

    It keeps no outputs, so that the process's peak RSS does not grow with
    the number of sweeps.  Each time and rate comes as measured and as on
    the quiet host (reference.py).
    """

    def __init__(self, rec: Recorder, report, failed: int, digest: str) -> None:
        self.seconds = rec.seconds
        self.quiet_seconds = rec.quiet_seconds
        self.failed = failed
        self.digest = digest
        self.tau = statistics.fmean(r.tau for r in report.runs) if report and report.runs else 0.0
        spd_tokens = sum(len(r[3]) for r in rec.rows)
        ar_tokens = sum(len(r[2]) for r in rec.rows)
        self.spd_tokens_per_s = _rate(spd_tokens, sum(rec.spd_s.values()))
        self.ar_tokens_per_s = _rate(ar_tokens, sum(rec.ar_s.values()))
        self.quiet_spd_tokens_per_s = _rate(spd_tokens, sum(t / rec.slowdown[k] for k, t in rec.spd_s.items()))
        self.quiet_ar_tokens_per_s = _rate(ar_tokens, sum(t / rec.slowdown[k] for k, t in rec.ar_s.items()))
        # SPD tokens/s over baseline tokens/s at each gamma, both from this
        # sweep, so that the host's speed cancels.
        self.speedup: dict[int, float] = {}
        for gamma in {r[1] for r in rec.rows}:
            rows = [r for r in rec.rows if r[1] == gamma]
            spd = _rate(sum(len(r[3]) for r in rows), sum(rec.spd_s[r[:2]] for r in rows))
            ar = _rate(sum(len(r[2]) for r in rows), sum(rec.ar_s[r[:2]] for r in rows))
            self.speedup[gamma] = spd / ar if ar else 0.0


def _rate(tokens: int, seconds: float) -> float:
    return tokens / seconds if seconds > 0 else 0.0


class Bench:
    """One workload's generated inputs, models and checks, inside ``work``."""

    def __init__(self, mm, spec: Workload, seed: int, work: Path, expected_digest: str | None) -> None:
        self.mm = mm
        self.spec = spec
        self.work = work
        self.expected_digest = expected_digest
        self.vocab = mm.harness.CharTokenizer().vocab
        self.corpus = mm.harness.demo_corpus_path()
        lines = [ln for ln in self.corpus.read_text(encoding="utf-8").splitlines() if ln.strip()]
        self.dataset = work / "dataset.jsonl"
        write_dataset(spec, seed, lines, self.vocab.size, self.dataset)
        self.model_dir = work / "models"
        self.cfg = mm.harness.ExperimentConfig(
            target_model=str(self.model_dir / "target.json"),
            draft_model=str(self.model_dir / "draft.json"),
            dataset=str(self.dataset),
            gammas=spec.gammas,
            mode=spec.mode,
            max_new_tokens=spec.max_new_tokens,
            seed=seed,
            template=spec.template,
            stop_on_eos=spec.stop_on_eos,
        )
        self.recorder = Recorder(mm.harness)
        self.digests: set[str] = set()

    @property
    def generations(self) -> int:
        return self.spec.n_prompts * len(self.spec.gammas)

    def set_up(self) -> float:
        """Everything before the first generation; returns its wall time."""
        harness, models = self.mm.harness, self.mm.models
        gc.collect()
        start = time.perf_counter()
        target_path, draft_path = harness.train_models(
            self.corpus,
            self.model_dir,
            target_order=self.spec.target_order,
            draft_order=self.spec.draft_order,
        )
        models.load_ngram(target_path)
        models.load_ngram(draft_path)
        tokenizer = harness.CharTokenizer()
        for record in harness.load_dataset(self.dataset):
            harness.render_template(self.spec.template, record, tokenizer)
        return time.perf_counter() - start

    def sweep(self) -> Sweep:
        rec = self.recorder
        gc.collect()
        rec.start()
        try:
            report = self.mm.harness.run_experiment(self.cfg, self.work / "report")
        except Exception:
            traceback.print_exc(file=sys.stderr)
            report = None
        rec.cut()
        failed, digest = self.check(rec.rows, report)
        return Sweep(rec, report, failed, digest)

    def check(self, rows, report) -> tuple[int, str]:
        """Count generations that fail their output check; digest the tokens."""
        spec, vocab = self.spec, self.vocab.size
        failed = self.generations - len(rows)
        digest = hashlib.sha256()
        for idx, gamma, baseline, spd, trace in sorted(rows, key=lambda r: r[:2]):
            digest.update(json.dumps([idx, gamma, baseline, spd]).encode())
            tau = trace.total_emitted / trace.target_calls if trace.target_calls else 0.0
            ok = len(spd) == trace.total_emitted and 1.0 <= tau <= gamma + 1
            ok = ok and all(0 <= t < vocab for t in spd) and all(0 <= t < vocab for t in baseline)
            if spec.mode == "greedy":
                ok = ok and spd == baseline
            if not spec.stop_on_eos:
                ok = ok and len(spd) == len(baseline) == spec.max_new_tokens
            if spec.identity_pair:
                ok = ok and tau == gamma + 1
            failed += not ok
        if report is None or len(report.runs) != len(rows):
            failed = self.generations
        hexdigest = digest.hexdigest()
        self.digests.add(hexdigest)
        if len(self.digests) > 1 or self.expected_digest not in (None, hexdigest):
            # Outputs differ between sweeps or from the committed digest.
            failed = self.generations
        return failed, hexdigest


def timed_run(bench: Bench, seconds: int) -> tuple[dict, list[Sweep]]:
    """End-to-end metrics, with no tracing.

    Set-ups alternate with sweeps, so that both sample the same stretch of
    machine time, and take a fifth as long in all.  A reference chunk
    follows each set-up and each piece of a sweep (:class:`Recorder`), and
    each set-up and piece is divided by the host's slowdown over it
    (reference.py).  Each metric is the median over the run of the sweeps'
    or set-ups' quiet-host times or rates.  README.md shows how steady this
    is, and why.
    """
    host = reference.Host()
    bench.recorder.host = host
    setups: list[float] = []
    quiet_setups: list[float] = []
    sweeps: list[Sweep] = []
    deadline = time.perf_counter() + seconds
    while len(setups) < SETUP_REPEATS or time.perf_counter() < deadline:
        setups.append(bench.set_up())
        quiet_setups.append(setups[-1] / host.slowdown())
        if sum(setups) >= SETUP_SHARE * sum(s.seconds for s in sweeps):
            sweeps.append(bench.sweep())
            if sweeps[-1].failed:
                break
    bench.recorder.host = None
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # name: (quiet-host values, measured values, unit)
    samples = {
        "sweep_s": ([s.quiet_seconds for s in sweeps], [s.seconds for s in sweeps], "s"),
        "spd_tokens_per_s": (
            [s.quiet_spd_tokens_per_s for s in sweeps], [s.spd_tokens_per_s for s in sweeps], "tok/s"),
        "ar_tokens_per_s": (
            [s.quiet_ar_tokens_per_s for s in sweeps], [s.ar_tokens_per_s for s in sweeps], "tok/s"),
        "setup_s": (quiet_setups, setups, "s"),
        "peak_rss_mb": ([rss_mb], [rss_mb], "MB"),
        "tau": ([sweeps[-1].tau], [sweeps[-1].tau], "tok/call"),
    }
    slowdowns = [s.seconds / s.quiet_seconds for s in sweeps]
    print(f"host slowdown over the sweeps: median {statistics.median(slowdowns):.4f}, "
          f"least {min(slowdowns):.4f}, most {max(slowdowns):.4f}")
    print(f"{'metric':18s} {'value':>12s} {'unit':8s} {'measured':>12s}  quiet-host quartiles, count")
    metrics = {}
    for name, (values, measured, unit) in samples.items():
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        print(f"{name:18s} {value:12.6g} {unit:8s} {statistics.median(measured):12.6g}  "
              f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
    return metrics, sweeps


def traced_run(bench: Bench, seconds: int, spans_path: Path) -> tuple[dict, list[Sweep]]:
    """Per-layer metrics from one traced sweep, next to untraced sweeps."""
    mm = bench.mm
    bench.set_up()
    sweeps = [bench.sweep()]  # untraced warm-up, also an overhead reference
    tracer = Tracer()
    install(tracer, mm.core, mm.models, mm.engine, mm.harness)
    try:
        for _ in range(SETUP_REPEATS):
            bench.set_up()
        setup_spans = len(tracer.spans)
        traced = bench.sweep()
        rows = list(bench.recorder.rows)
    finally:
        tracer.uninstall()
    deadline = time.perf_counter() + seconds
    while len(sweeps) < MIN_SWEEPS or time.perf_counter() < deadline:
        sweeps.append(bench.sweep())
        if sweeps[-1].failed:
            break
    write_spans(tracer.spans, spans_path)

    setup = SpanStats(tracer.spans[:setup_spans])
    st = SpanStats(tracer.spans[setup_spans:], setup_spans)
    untraced_s = statistics.median(s.seconds for s in sweeps)
    m: dict[str, tuple[float, str]] = {}

    def timing(name: str, key: str, *, self_s: bool = True, p50: bool = True, p99: bool = False) -> None:
        m[f"{key}.calls"] = (st.calls(name), "count")
        if self_s:
            m[f"{key}.self_s"] = (st.self_s(name), "s")
        if p50:
            m[f"{key}.us_p50"] = (st.us(name, 0.5), "us")
        if p99:
            m[f"{key}.us_p99"] = (st.us(name, 0.99), "us")

    timing("core.ProbDist", "core.ProbDist")
    timing("core.RngState.uniform", "core.RngState.uniform", self_s=False)
    timing("core.sample", "core.sample")
    timing("core.RngState.init", "core.RngState.init", p50=False)
    timing("models.target.score_block", "models.target.score_block", self_s=False, p50=False, p99=True)
    for g in ALL_GAMMAS:
        m[f"models.target.score_block.us_p50.b{g}"] = (st.us("models.target.score_block", 0.5, g), "us")
    for side in ("target", "draft"):
        timing(f"models.{side}.next_dist", f"models.{side}.next_dist", self_s=False, p99=True)
    m["models.load_ngram.s"] = (setup.us("models.load_ngram", 0.5) / 1e6, "s")
    m["harness.train_models.s"] = (setup.us("harness.train_models", 0.5) / 1e6, "s")
    timing("engine.draft_block", "engine.draft_block", p50=False)
    for g in ALL_GAMMAS:
        m[f"engine.draft_block.us_p50.g{g}"] = (st.us("engine.draft_block", 0.5, g), "us")
    timing("engine.verify", "engine.verify")
    timing("engine.residual_dist", "engine.residual_dist", p50=False)

    blocks = defaultdict(list)
    for _, gamma, _, _, trace in rows:
        blocks[gamma].extend(trace.blocks)
    kinds = Counter(b.correction_kind for bs in blocks.values() for b in bs)
    for kind in ("residual-resample", "greedy-correction", "bonus"):
        m[f"engine.correction.{kind}"] = (kinds[kind], "count")
    m["engine.target_calls"] = (sum(t.target_calls for *_, t in rows), "count")
    m["engine.draft_calls"] = (sum(t.draft_calls for *_, t in rows), "count")
    draft_us = st.us("models.draft.next_dist", 0.5)
    for g in ALL_GAMMAS:
        bs = blocks.get(g)
        share = sum(b.accepted for b in bs) / sum(len(b.draft_tokens) for b in bs) if bs else 0.0
        m[f"engine.draft_accept_share.g{g}"] = (share, "ratio")
        score_us = st.us("models.target.score_block", 0.5, g)
        c = draft_us / score_us if score_us else 0.0
        m[f"models.measured_c.g{g}"] = (c, "ratio")
        speedups = [s.speedup[g] for s in sweeps if g in s.speedup]
        m[f"engine.wall_speedup.g{g}"] = (statistics.median(speedups) if speedups else 0.0, "x")
        taus = [t.total_emitted / t.target_calls for _, gamma, _, _, t in rows if gamma == g]
        # The paper's MBSU, tau / (c * gamma + 1), with the measured c.
        m[f"metrics.mbsu_measured_c.g{g}"] = (statistics.fmean(taus) / (c * g + 1) if taus else 0.0, "x")

    baselines = [s[2] for s in tracer.spans[setup_spans:] if s[0] == "engine.autoregressive_generate"]
    m["harness.baseline_redundant_share"] = (1 - len({r[0] for r in baselines}) / len(baselines), "ratio")
    m["harness.run_experiment.self_s"] = (st.self_s("harness.run_experiment"), "s")
    metric_self = sum(st.self_s(f"metrics.{n}") for n in ("block_efficiency", "mbsu", "mbsu_c_scaled", "aggregate"))
    m["metrics.self_s"] = (metric_self, "s")
    m["bench.sweep_s.untraced"] = (untraced_s, "s")
    m["bench.sweep_s.traced"] = (traced.seconds, "s")
    m["bench.trace_overhead"] = (traced.seconds / untraced_s, "x")

    for name, (value, unit) in m.items():
        print(f"{name:42s} {value:14.6g} {unit}")
    metrics = {name: {"value": float(v), "unit": u} for name, (v, u) in m.items()}
    return metrics, sweeps + [traced]


def run_one(args, root: Path) -> dict:
    import mmspec.core
    import mmspec.engine
    import mmspec.harness
    import mmspec.models

    if not Path(mmspec.core.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"error: imported mmspec from {mmspec.core.__file__}, not from {root / 'src'}")
    mm = argparse.Namespace(core=mmspec.core, models=mmspec.models, engine=mmspec.engine, harness=mmspec.harness)
    spec = WORKLOADS[args.workload]
    expected = committed_digest(spec.name) if args.seed == DEFAULT_SEED else None
    (root / ".bench_tmp").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{spec.name}-", dir=root / ".bench_tmp"))
    bench = None
    try:
        bench = Bench(mm, spec, args.seed, work, expected)
        if args.trace:
            spans_path = root / ".bench_out" / f"spans-{spec.name}.csv"
            metrics, sweeps = traced_run(bench, args.seconds, spans_path)
        else:
            metrics, sweeps = timed_run(bench, args.seconds)
    finally:
        if bench is not None:
            bench.recorder.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(s.failed for s in sweeps)
    attempted = bench.generations * len(sweeps)
    print(f"generations: {attempted - failed} of {attempted} passed, digest {sweeps[-1].digest}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in a fresh interpreter; metric names get a workload prefix."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited with code {proc.returncode}")
        one = json.loads(lines[-1])
        result["correct"] = result["correct"] and one["correct"]
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        result["metrics"].update({f"{name}.{k}": v for k, v in one["metrics"].items()})
    return result


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "mmspec" / "__init__.py").is_file():
        print(f"error: no mmspec package under {src}; run from the repository root", file=sys.stderr)
        return 2
    # The benchmark measures a single thread; keep native pools from spawning.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    result = run_all(args) if args.workload == "all" else run_one(args, root)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
