"""The benchmark's patch points: every name perfbench wraps still exists,
is still looked up where perfbench patches it, and is still called with the
arguments perfbench reads, so a refactor that breaks the benchmark fails here."""

from dataclasses import replace
from pathlib import Path

import pytest

from mmspec import core, engine, harness, models

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import spans

    return run, spans


def test_traced_run_records_every_layer(bench, tmp_path):
    run, spans = bench
    names = set()

    class NamingTracer(spans.Tracer):
        def wrap(self, name, fn, tag=None):
            names.add(name)
            return super().wrap(name, fn, tag)

    recorder = run.Recorder(harness)
    tracer = NamingTracer()
    spans.install(tracer, core, models, engine, harness)
    try:
        harness.train_models(harness.demo_corpus_path(), tmp_path)
        cfg = harness.ExperimentConfig(
            target_model=str(tmp_path / "target.json"),
            draft_model=str(tmp_path / "draft.json"),
            dataset=str(harness.demo_dataset_path()),
            gammas=(1, 3),
            max_new_tokens=12,
        )
        timings = []
        for mode in ("greedy", "stochastic"):
            recorder.start()
            harness.run_experiment(replace(cfg, mode=mode), tmp_path / mode)
            timings.append((set(recorder.spd_s), set(recorder.ar_s), {row[:2] for row in recorder.rows}))
    finally:
        tracer.uninstall()
        recorder.uninstall()

    assert names and names <= {span[0] for span in tracer.spans}
    for name in ("engine.draft_block", "models.target.score_block"):
        tagged = [span for span in tracer.spans if span[0] == name]
        assert tagged and all(tag == request[1] for _, _, request, tag, *_ in tagged)
    n_prompts = len(harness.load_dataset(cfg.dataset))
    items = {(idx, gamma) for idx in range(n_prompts) for gamma in cfg.gammas}
    assert timings == [(items, items, items)] * 2
