"""Acceptance gate: the eight release criteria, one verdict line each.

Each test prints ``[criterion N] <what it checks>: PASS`` (or ``FAIL``)
directly to the terminal so a plain ``pytest -v`` run shows the gate at a
glance.  The bodies check the stated tolerances; nothing here is tuned to
make a weak result look strong.
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from helpers import random_dist, random_model, random_prompt, random_vocab, trace_from_emission_counts
from oracle import enumerate_autoregressive, enumerate_spd, induced_step_dist
from mmspec.cli import main
from mmspec.core import MultimodalPrompt, RngState
from mmspec.engine import (
    SpdConfig,
    autoregressive_generate,
    draft_block,
    spd_generate,
)
from mmspec.harness import (
    ExperimentConfig,
    demo_corpus_path,
    demo_dataset_path,
    run_experiment,
    train_models,
)
from mmspec.metrics import CostModel, DEFAULT_DRAFT_COST, block_efficiency, mbsu
from mmspec.models import MultimodalTargetLm, TextOnlyDraftLm

GOLDEN_DIR = Path(__file__).parent / "golden"


@contextmanager
def criterion(capsys, num, label):
    try:
        yield
    except BaseException:
        _verdict(capsys, num, label, "FAIL")
        raise
    _verdict(capsys, num, label, "PASS")


def _verdict(capsys, num, label, outcome):
    with capsys.disabled():
        print(f"[criterion {num}] {label}: {outcome}")


def test_criterion_1_greedy_losslessness(capsys):
    label = "greedy speculative output identical to the baseline on 200/200 random instances"
    with criterion(capsys, 1, label):
        rng = np.random.default_rng(101)
        gammas = (1, 2, 3, 5)
        start = time.perf_counter()
        matches = 0
        for i in range(200):
            vocab = random_vocab(rng, min_size=2, max_size=64)
            target = MultimodalTargetLm(random_model(rng, vocab))
            draft = TextOnlyDraftLm(random_model(rng, vocab))
            prompt = random_prompt(rng, vocab)
            gamma = gammas[i % len(gammas)]
            baseline = autoregressive_generate(target, prompt, 128, "greedy")
            cfg = SpdConfig(gamma=gamma, mode="greedy", max_new_tokens=128)
            spd, _ = spd_generate(target, draft, prompt, cfg, RngState(9000 + i))
            matches += spd == baseline
        elapsed = time.perf_counter() - start
        assert matches == 200, f"only {matches}/200 instances matched"
        assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_criterion_2_stochastic_distribution_equality(capsys):
    label = "stochastic speculative output distribution equals the baseline distribution (50 tiny instances)"
    with criterion(capsys, 2, label):
        rng = np.random.default_rng(202)
        start = time.perf_counter()
        for i in range(50):
            vocab = random_vocab(rng, min_size=2, max_size=4)
            target = MultimodalTargetLm(random_model(rng, vocab, n_seqs=8, max_len=6))
            draft = TextOnlyDraftLm(random_model(rng, vocab, n_seqs=8, max_len=6))
            prompt = random_prompt(rng, vocab, max_image=2, max_text=3)
            gamma = int(rng.integers(1, 4))
            length = int(rng.integers(1, 4))
            exact_baseline = enumerate_autoregressive(target, prompt, length)
            exact_spd = enumerate_spd(target, draft, prompt, gamma, length)
            assert sum(exact_spd.values()) == pytest.approx(1.0, abs=1e-9)
            keys = set(exact_baseline) | set(exact_spd)
            linf = max(
                abs(exact_baseline.get(k, 0.0) - exact_spd.get(k, 0.0)) for k in keys
            )
            assert linf < 1e-10, f"instance {i}: L-inf gap {linf:.3e}"
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f} s"


def test_criterion_3_single_step_marginal(capsys):
    label = "one-step accept/resample marginal equals the target distribution (1000 random pairs)"
    with criterion(capsys, 3, label):
        rng = np.random.default_rng(303)
        worst = 0.0
        for _ in range(1000):
            size = int(rng.integers(2, 17))
            q = random_dist(rng, size)
            p = random_dist(rng, size, allow_zeros=True)
            induced = induced_step_dist(p, q)
            worst = max(worst, float(np.abs(induced.probs - q.probs).max()))
        assert worst < 1e-12, f"worst L-inf gap {worst:.3e}"


def test_criterion_4_metric_formulas(capsys):
    label = "block efficiency and speedup formulas match hand arithmetic"
    with criterion(capsys, 4, label):
        trace = trace_from_emission_counts([4, 2, 3], gamma=3)
        assert block_efficiency(trace) == 3.0
        cost = CostModel(115.0 / 7000.0)
        value = mbsu(2.0, 3, cost)
        assert value == pytest.approx(1.9061, abs=1e-4)
        assert value == pytest.approx(1.9060585432266848, abs=1e-12)
        # As the draft becomes free, the speedup degenerates to the block efficiency.
        assert mbsu(2.0, 3, CostModel(1e-15)) == pytest.approx(2.0, abs=1e-9)


def test_criterion_5_identity_regime(capsys, tmp_path):
    label = "identity draft fills every block: tau == 4.0 and speedup 4/(3c+1) on every prompt"
    with criterion(capsys, 5, label):
        train_models(demo_corpus_path(), tmp_path, target_order=3, draft_order=3)
        cfg = ExperimentConfig(
            target_model=str(tmp_path / "target.json"),
            draft_model=str(tmp_path / "draft.json"),
            dataset=str(demo_dataset_path()),
            template="plain",
            gammas=(3,),
            mode="greedy",
            stop_on_eos=False,
        )
        report = run_experiment(cfg, tmp_path / "out")
        expected = 4.0 / (3.0 * DEFAULT_DRAFT_COST + 1.0)
        assert len(report.runs) == 20
        for row in report.runs:
            assert row.tau == 4.0
            assert row.mbsu == pytest.approx(expected, abs=1e-12)
            assert row.mbsu == pytest.approx(3.813, abs=1e-3)


def test_criterion_6_demo_sweep_regime(capsys, tmp_path):
    label = "bundled demo sweep lands in range (tau, speedup) and reports match the golden files"
    with criterion(capsys, 6, label):
        start = time.perf_counter()
        train_models(demo_corpus_path(), tmp_path)
        cfg = ExperimentConfig(
            target_model=str(tmp_path / "target.json"),
            draft_model=str(tmp_path / "draft.json"),
            dataset=str(demo_dataset_path()),
            template="plain",
        )
        out = tmp_path / "out"
        report = run_experiment(cfg, out)
        elapsed = time.perf_counter() - start
        assert cfg.gammas == (3, 5)
        for agg in report.aggregates:
            assert 1.0 < agg.mean_tau <= agg.gamma + 1, (agg.gamma, agg.mean_tau)
        assert any(agg.mean_mbsu > 1.0 for agg in report.aggregates)
        for name in ("report.csv", "report.json"):
            assert (out / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_7_draft_image_invariance(capsys):
    label = "image context perturbations never change a draft proposal (1000 trials)"
    with criterion(capsys, 7, label):
        rng = np.random.default_rng(707)
        trials = 0
        for outer in range(100):
            vocab = random_vocab(rng)
            draft = TextOnlyDraftLm(random_model(rng, vocab))
            base = random_prompt(rng, vocab)
            generated = tuple(
                rng.integers(0, vocab.size, int(rng.integers(0, 5))).tolist()
            )
            gamma = int(rng.integers(1, 5))
            ref_tokens, ref_dists = draft_block(
                draft, base, generated, gamma, RngState(8000 + outer), "stochastic"
            )
            for _ in range(10):
                image = tuple(
                    rng.integers(0, vocab.size, int(rng.integers(0, 6))).tolist()
                )
                perturbed = MultimodalPrompt(image_ctx=image, text=base.text)
                tokens, dists = draft_block(
                    draft, perturbed, generated, gamma, RngState(8000 + outer), "stochastic"
                )
                assert tokens == ref_tokens
                for d_ref, d_new in zip(ref_dists, dists):
                    assert np.array_equal(d_ref.probs, d_new.probs)
                trials += 1
        assert trials == 1000


def test_criterion_8_run_determinism(capsys, tmp_path):
    label = "two benchmark runs with identical config write byte-identical reports"
    with criterion(capsys, 8, label):
        assert main(["train", "--out", str(tmp_path / "models")]) == 0
        cfg = {
            "target_model": "models/target.json",
            "draft_model": "models/draft.json",
            "dataset": str(demo_dataset_path()),
            "template": "plain",
            "mode": "stochastic",
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        for out in ("a", "b"):
            assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / out)]) == 0
        csv_a = (tmp_path / "a" / "report.csv").read_bytes()
        csv_b = (tmp_path / "b" / "report.csv").read_bytes()
        assert csv_a == csv_b
        json_a = (tmp_path / "a" / "report.json").read_bytes()
        json_b = (tmp_path / "b" / "report.json").read_bytes()
        assert json_a == json_b
