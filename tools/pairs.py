#!/usr/bin/env python3
"""Alternating parent/change pairs of the wall-clock benchmark.

Runs ``perfbench/run.py --trace 0``, at the benchmark's own run length,
from two checkouts in turn, N pairs, alternating which side runs first, and
prints, per end-to-end metric, each side's median and quartiles, the change
of the medians, and in how many pairs the change read better:

    python3 tools/pairs.py --parent ../parent --change . --workload chat-stoch-sweep --pairs 10

Each run's result line is printed as it finishes; ``--workload all`` prints
one table per workload.  The direction of each metric comes from the change
checkout's ``BENCHMARK.json``.  Standard library only; it reads nothing from
and writes nothing to either checkout's ``perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
RUN_TIMEOUT_S = 900  # a run is 35 s per workload plus setup; ``--workload all`` is three of them


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One ``--trace 0`` run in ``checkout``: the JSON object of its last output line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: {checkout}: benchmark ran past {RUN_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {checkout}: benchmark exited with code {proc.returncode}")
    return json.loads(lines[-1])


def fmt(value: float, unit: str) -> str:
    if unit == "s":
        return f"{value * 1e3:.2f} ms"
    if unit == "tok/s":
        return f"{value / 1e3:.2f}k"
    return f"{value:.3f}" if unit == "tok/call" else f"{value:.2f}"


def table(runs: dict[str, list[dict]], better: dict[str, str], workload: str, seed: int, prefix: str = "") -> list[str]:
    """The markdown rows of one workload, a metric per row; ``prefix`` is the
    one ``--workload all`` puts before each of that workload's metric names."""
    rows = []
    for name, direction in better.items():
        values = {side: [r["metrics"][prefix + name]["value"] for r in runs[side]] for side in SIDES}
        unit = runs["change"][0]["metrics"][prefix + name]["unit"]
        cells = []
        for side in SIDES:
            v = values[side]
            q1, _, q3 = statistics.quantiles(v, n=4, method="inclusive") if len(v) > 1 else v * 3
            cells.append(f"{fmt(statistics.median(v), unit)} [{fmt(q1, unit)}, {fmt(q3, unit)}]")
        parent, change = (statistics.median(values[side]) for side in SIDES)
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        pct = (change - parent) / parent * 100 if parent else 0.0
        rows.append(f"| `{workload}` | {seed} | `{name}` | {cells[0]} | {cells[1]} | {pct:+.1f}% "
                    f"| {wins}/{len(values['parent'])} |")
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i in range(args.pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            result = run_once(checkouts[side], args.workload, args.seed)
            runs[side].append(result)
            values = {name: m["value"] for name, m in result["metrics"].items()}
            print(f"pair {i + 1} {side}: failed {result['failed']} of {result['attempted']} {json.dumps(values)}",
                  flush=True)
    print("failed:", ", ".join(f"{side} {sum(r['failed'] for r in runs[side])}" for side in SIDES))
    tables = {args.workload: ""}
    if args.workload == "all":  # each metric is named "<workload>.<metric>"
        tables = {name.split(".")[0]: name.split(".")[0] + "." for name in runs["change"][0]["metrics"]}
    for workload, prefix in tables.items():
        print()
        print("| workload | seed | metric | parent median [q1, q3] | change median [q1, q3] | change | change better in |")
        print("|---|---|---|---|---|---|---|")
        print("\n".join(table(runs, better, workload, args.seed, prefix)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
