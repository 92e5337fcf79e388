"""Command-line front end: train models, run the benchmark, print traces."""

from __future__ import annotations

import argparse
import dataclasses
import sys

from mmspec.harness import (
    ExperimentConfig,
    demo_corpus_path,
    qualitative_trace,
    run_experiment,
    train_models,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmspec",
        description="Speculative decoding benchmark for image-conditioned targets with text-only drafts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="fit target/draft n-gram models on a text corpus")
    train.add_argument("--corpus", default=str(demo_corpus_path()), help="plain-text corpus, one sequence per line")
    train.add_argument("--out", required=True, help="directory for target.json / draft.json")
    train.add_argument("--target-order", type=int, default=3)
    train.add_argument("--draft-order", type=int, default=2)
    train.add_argument("--target-alpha", type=float, default=0.1)
    train.add_argument("--draft-alpha", type=float, default=0.1)

    run = sub.add_parser("run", help="run the benchmark and write report.csv / report.json")
    run.add_argument("--config", required=True, help="experiment config (JSON)")
    run.add_argument("--out", required=True, help="output directory for reports")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--gamma", type=int, default=None, help="restrict the sweep to one gamma")

    trace = sub.add_parser("trace", help="print an annotated generation for one prompt")
    trace.add_argument("--config", required=True, help="experiment config (JSON)")
    trace.add_argument("--prompt-id", required=True)
    trace.add_argument("--gamma", type=int, default=None)
    trace.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(args.config)
    seed = cfg.seed if args.seed is None else args.seed
    gammas = cfg.gammas if args.gamma is None else (args.gamma,)
    try:
        return dataclasses.replace(cfg, seed=seed, gammas=gammas)  # validates the overrides too
    except ValueError as exc:
        raise ValueError(f"{exc} (config {args.config} with the command-line overrides)") from None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "train":
            target_path, draft_path = train_models(
                args.corpus,
                args.out,
                target_order=args.target_order,
                draft_order=args.draft_order,
                target_alpha=args.target_alpha,
                draft_alpha=args.draft_alpha,
            )
            print(f"wrote {target_path} and {draft_path}")
        elif args.command == "run":
            cfg = _load_config(args)
            report = run_experiment(cfg, args.out)
            print(f"wrote {args.out}/report.csv and {args.out}/report.json")
            for agg in report.aggregates:
                print(
                    f"gamma={agg.gamma}  mean_tau={agg.mean_tau:.4f}  "
                    f"mean_mbsu={agg.mean_mbsu:.4f}  token_rate_ratio={agg.token_rate_ratio:.4f}"
                )
        else:
            cfg = _load_config(args)
            print(qualitative_trace(cfg, args.prompt_id))
    except Exception as exc:  # surface a clean diagnostic, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
