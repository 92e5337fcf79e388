"""Output-drift guard: one seed-0 sweep of every benchmark workload emits
exactly the tokens whose digest perfbench commits, with every generation
passing its check.  perfbench is read here, never edited."""

import argparse
from pathlib import Path

import pytest

from mmspec import core, engine, harness, models

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ["chat-stoch-sweep", "plain-greedy-eos", "order4-identity-g7"]


@pytest.fixture
def run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run

    return run


def test_every_workload_is_guarded(run):
    import workloads

    assert sorted(workloads.WORKLOADS) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_sweep_matches_committed_digest(run, tmp_path, name):
    import workloads

    mm = argparse.Namespace(core=core, models=models, engine=engine, harness=harness)
    expected = run.committed_digest(name)
    bench = run.Bench(mm, workloads.WORKLOADS[name], 0, tmp_path, expected)
    try:
        bench.set_up()
        sweep = bench.sweep()
    finally:
        bench.recorder.uninstall()
    assert sweep.failed == 0
    assert sweep.digest == expected
