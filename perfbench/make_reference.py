"""Regenerate the benchmark's stored model and reference outputs.

    python3 perfbench/make_reference.py

Runs the acceptance cohort (30 subjects x 120 epochs, seed 0, easy profile)
through the CLI from synth to train with two workers, keeps the trained
model and normalisation, and records, from the code in this checkout:

* ``data/model.npz``, ``data/norm.npz``: the fixed model of night-960 and
  cohort-120;
* ``data/cohort120.npz``: each cohort subject's feature matrix, true stages
  and the fixed model's predicted stages;
* ``data/night960.npz``: feature matrix and predicted stages of each
  960-epoch night in ``NIGHT_SEEDS``;
* ``data/train120.json``: for each seed in ``TRAIN_SEEDS``, the validation
  split, the training curves and the predicted stages of every subject.

Only rerun it when the outputs are meant to change; the benchmark then
compares against the new outputs.
"""
from __future__ import annotations

import json
import shutil
import sys

import bootstrap

bootstrap.prepare()

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from cardiosleep import blstm, cli, registry, signal_io  # noqa: E402


def acceptance_cohort(out):
    base = ["--seed", "0", "--workers", str(wl.WORKERS)]
    steps = [
        ["synth", "--out", str(out), "--subjects", str(wl.FULL.cohort_pool),
         "--epochs", str(wl.FULL.cohort_epochs), "--profile-name", "easy"],
        ["preprocess", "--meta", str(out / "subjects.jsonl"), "--out", str(out)],
        ["extract", "--preprocessed", str(out / "preprocessed"), "--out", str(out)],
        ["cohort", "--meta", str(out / "subjects.jsonl"), "--out", str(out)],
        ["split", "--ids", str(out / "cohort_ids.json"), "--out", str(out)],
        ["train", "--features", str(out / "features"),
         "--split", str(out / "split.json"), "--out", str(out)],
    ]
    for step in steps:
        print("cli", step[0], flush=True)
        if cli.main(base + step) != 0:
            raise SystemExit(f"cli {step[0]} failed")
    shutil.copy(out / "model.npz", wl.DATA / "model.npz")
    shutil.copy(out / "norm.npz", wl.DATA / "norm.npz")


def cohort_reference(out):
    man, params, stats = wl.load_model()
    arrays = {}
    for sid in wl.cohort_ids(wl.FULL.cohort_pool):
        m = signal_io.read_feature_matrix(out / "features" / f"{sid}.csv", man)
        arrays[f"{sid}_values"] = m.values
        arrays[f"{sid}_truth"] = m.labels.indices()
        arrays[f"{sid}_stages"] = blstm.predict(
            params, registry.apply_normalization(m, stats).values).indices()
    np.savez_compressed(wl.DATA / "cohort120.npz", **arrays)


def night_reference():
    arrays = {}
    for seed in wl.NIGHT_SEEDS:
        print("night", seed, flush=True)
        inp = wl.night_input(seed)
        matrix, hyp = wl.score_night(inp)
        arrays[f"{seed}_values"] = matrix.values
        arrays[f"{seed}_stages"] = hyp.indices()
    np.savez_compressed(wl.DATA / "night960.npz", **arrays)


def train_reference(work):
    refs = {}
    for seed in wl.TRAIN_SEEDS:
        print("train", seed, flush=True)
        inp = wl.train_input(seed, work / "train-csv")
        res = wl.run_train(inp)
        refs[str(seed)] = {
            "val_ids": inp.val_ids,
            "train_loss": res["history"]["train_loss"],
            "val_loss": res["history"]["val_loss"],
            "stages": {sid: res["preds"][sid].indices().tolist()
                       for sid in inp.ids},
            "kappa": res["kappa"],
        }
    (wl.DATA / "train120.json").write_text(json.dumps(refs, indent=1) + "\n")


def main() -> int:
    work = wl.fresh_dir(wl.WORK / "reference")
    wl.DATA.mkdir(exist_ok=True)
    acceptance_cohort(work / "cohort")
    cohort_reference(work / "cohort")
    night_reference()
    train_reference(work)
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
