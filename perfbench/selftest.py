#!/usr/bin/env python3
"""Fast self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Every workload, shrunk to a few prompts and tokens, runs in this process
through ``run.main`` with ``--trace 0`` and ``--trace 1``; each result line
is checked against BENCHMARK.json.  Then the test checks that the same seed
repeats its outputs, that a corrupted generation and a wrong committed
digest are counted as failures, that doubling mmspec's work halves its
measured rate in spite of the host-speed correction, and that the benchmark
refuses to run without the mmspec sources.  It exits non-zero at the first failure.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

# The identity pair needs max_new_tokens to be a multiple of gamma + 1.
TINY = {
    "chat-stoch-sweep": {"n_prompts": 3, "max_new_tokens": 24},
    "plain-greedy-eos": {"n_prompts": 8},
    "order4-identity-g7": {"n_prompts": 3, "max_new_tokens": 24},
}
GREEDY = "plain-greedy-eos"


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL: {msg}")


def invoke(*argv: str) -> tuple[dict, list[str]]:
    """Run the benchmark in-process; return its result and its output lines."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(list(argv))
    lines = buf.getvalue().strip().splitlines()
    check(code == 0, f"{argv}: exit code {code}")
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{argv}: result keys {sorted(result)}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{argv}: attempted")
    return result, lines


def digest(lines: list[str]) -> str:
    return next(ln for ln in lines if ln.startswith("generations:")).split()[-1]


def tiny_args(name: str, seed: int, trace: int = 0, seconds: int = 1) -> list[str]:
    return ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]


def main() -> None:
    os.chdir(ROOT)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check({w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS), "workload names")
    units = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for name, sizes in TINY.items():
        workloads.WORKLOADS[name] = dataclasses.replace(workloads.WORKLOADS[name], **sizes)

    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result, _ = invoke(*tiny_args(name, 7, trace))
            check(result["correct"] and result["failed"] == 0, f"{name} trace {trace}: {result['failed']} failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == units[trace], f"{name} trace {trace}: metrics differ from BENCHMARK.json")
            if trace == 0:
                zero = [k for k, v in result["metrics"].items() if not v["value"] > 0]
                check(not zero, f"{name}: end-to-end metrics not positive: {zero}")
        print(f"ok  {name}: both result lines match BENCHMARK.json")

    _, first = invoke(*tiny_args(GREEDY, 7))
    _, again = invoke(*tiny_args(GREEDY, 7))
    _, other = invoke(*tiny_args(GREEDY, 8))
    check(digest(first) == digest(again) != digest(other), "digests: same seed must repeat, another must differ")
    print("ok  same seed repeats its outputs; another seed changes them")

    import mmspec.harness

    original = mmspec.harness.spd_generate

    def corrupted(*args, **kwargs):
        tokens, trace = original(*args, **kwargs)
        return [(tokens[0] + 1) % (mmspec.harness.CharTokenizer().vocab.size - 1)] + tokens[1:], trace

    mmspec.harness.spd_generate = corrupted
    try:
        result, _ = invoke(*tiny_args(GREEDY, 7))
    finally:
        mmspec.harness.spd_generate = original
    check(not result["correct"] and result["failed"] > 0, "a corrupted SPD output was not counted as failed")
    print("ok  a corrupted generation counts as failed")

    # Quiet-host times must cancel a slower host, not a slower program:
    # running each SPD generation twice must halve the SPD rate.
    def doubled(*args, **kwargs):
        original(*args, **kwargs)
        return original(*args, **kwargs)

    once, _ = invoke(*tiny_args(GREEDY, 7, seconds=3))
    mmspec.harness.spd_generate = doubled
    try:
        twice, _ = invoke(*tiny_args(GREEDY, 7, seconds=3))
    finally:
        mmspec.harness.spd_generate = original
    ratio = twice["metrics"]["spd_tokens_per_s"]["value"] / once["metrics"]["spd_tokens_per_s"]["value"]
    check(twice["correct"] and 0.35 < ratio < 0.7, f"doubling SPD work changed spd_tokens_per_s by {ratio:.3f}x")
    print(f"ok  doubling the SPD work scales spd_tokens_per_s by {ratio:.3f}x")

    committed_digest = run.committed_digest
    run.committed_digest = lambda workload: "0" * 64
    try:
        result, _ = invoke(*tiny_args(GREEDY, run.DEFAULT_SEED))
    finally:
        run.committed_digest = committed_digest
    check(result["failed"] == result["attempted"], "a wrong committed digest did not fail the sweeps")
    print("ok  a digest mismatch at the default seed fails every sweep")

    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".bench_tmp"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", *tiny_args(GREEDY, 0)],
            cwd=bare, capture_output=True, text=True, timeout=60, check=False,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(), "ran without the mmspec sources")
    print("ok  refuses to run without src/mmspec")
    print("selftest passed")


if __name__ == "__main__":
    main()
