#!/usr/bin/env python3
"""Drive the whole pipeline on synthetic data in one command.

Equivalent to running the synth / preprocess / extract / cohort / split /
train / evaluate / importance stages by hand; useful as a smoke test and as
a template for scripting real-data runs.
"""
import argparse
import sys
from pathlib import Path

from cardiosleep import cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="experiment directory")
    parser.add_argument("--subjects", type=int, default=30)
    parser.add_argument("--epochs", type=int, default=120)
    parser.add_argument("--seed", type=int, help="default: the config's seed")
    parser.add_argument("--workers", type=int, help="default: the config's workers")
    parser.add_argument("--profile-name", choices=["easy", "default"],
                        default="easy")
    parser.add_argument("--config", help="optional YAML config")
    parser.add_argument("--importance", action="store_true",
                        help="also compute permutation feature importance")
    args = parser.parse_args(argv)

    out = Path(args.out)
    base = ["--config", args.config] if args.config else []
    if args.seed is not None:
        base += ["--seed", str(args.seed)]
    if args.workers is not None:
        base += ["--workers", str(args.workers)]

    stages = [
        ["synth", "--out", str(out), "--subjects", str(args.subjects),
         "--epochs", str(args.epochs), "--profile-name", args.profile_name],
        ["preprocess", "--meta", str(out / "subjects.jsonl"), "--out", str(out)],
        ["extract", "--preprocessed", str(out / "preprocessed"),
         "--out", str(out)],
        ["cohort", "--meta", str(out / "subjects.jsonl"), "--out", str(out)],
        ["split", "--ids", str(out / "cohort_ids.json"), "--out", str(out)],
        ["train", "--features", str(out / "features"),
         "--split", str(out / "split.json"), "--out", str(out)],
        ["evaluate", "--features", str(out / "features"),
         "--split", str(out / "split.json"), "--model", str(out / "model.npz"),
         "--norm", str(out / "norm.npz"), "--out", str(out)],
    ]
    if args.importance:
        stages.append(
            ["importance", "--features", str(out / "features"),
             "--split", str(out / "split.json"), "--model",
             str(out / "model.npz"), "--norm", str(out / "norm.npz"),
             "--out", str(out)])

    for stage in stages:
        code = cli.main(base + stage)
        if code != 0:
            print(f"stage {stage[0]} failed with exit code {code}",
                  file=sys.stderr)
            return code
    print((out / "report.txt").read_text())
    return 0


if __name__ == "__main__":
    sys.exit(main())
