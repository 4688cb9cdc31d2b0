"""The three benchmark workloads: set-up, one timed unit of work, and the
check of each unit's outputs against the reference outputs in ``data/``.

Every workload drives cardiosleep only through its public functions and
CLI stages.  Inputs come from the workload seed:

* ``night-960``: the 960-epoch night synthesised from a synth seed in
  ``NIGHT_SEEDS``.
* ``cohort-120``: ``Sizes.cohort_subjects`` (ten) subjects drawn by the seed
  from the 30-subject, 120-epoch acceptance cohort (synth seeds 0-29, easy
  profile).
* ``train-120``: the subject split and the initial weights of a training
  seed in ``TRAIN_SEEDS`` over the stored features of that cohort.

The night and training pools are small because each member needs a stored
reference.  ``pool_member`` maps development seeds onto all members but the
last, which only ``HELDOUT_SEED`` reaches, so that a claim tuned on the
development seeds can be checked on inputs they never produce.
"""
from __future__ import annotations

import json
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cardiosleep import (blstm, cli, cohort, evaluate, pipeline, registry,
                         signal_io, synth)
from cardiosleep.types import (Hypnogram, SubjectRecord,
                               four_hypnogram_from_indices)

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
WORK = HERE / ".work"

NIGHT_SEEDS = (1000, 1001, 1002, 1003, 1004)
TRAIN_SEEDS = (0, 1, 2, 3, 4)
HELDOUT_SEED = 101
WORKERS = 2

# Correctness tolerance: features and training losses must agree with the
# reference to this relative tolerance (absolute for values near zero);
# stage predictions, confusion counts and the missing-entry mask must match
# exactly.
RTOL = 1e-9
ATOL = 1e-12
# Training curves pass through two epochs of Adam, which amplify round-off
# from a reordered sum; they get a looser tolerance, still forty times below
# the change that Adam's eps going from 1e-8 to 1.1e-8 makes.
LOSS_RTOL = 1e-8


@dataclass(frozen=True)
class Sizes:
    night_epochs: int = 960
    cohort_epochs: int = 120
    cohort_pool: int = 30
    cohort_subjects: int = 10
    train_epochs: int = 2


FULL = Sizes()
# harness self-check: seconds, not minutes, and no reference comparison
TINY = Sizes(night_epochs=20, cohort_epochs=20, cohort_pool=4,
             cohort_subjects=2, train_epochs=1)


class Mismatch(Exception):
    """An output differs from its reference."""


# --- shared helpers -------------------------------------------------------

def manifest():
    return registry.build_manifest("single")


def load_model():
    """The fixed model and normalisation trained at the reference commit."""
    man = manifest()
    params, _ = blstm.load_checkpoint(DATA / "model.npz",
                                      registry.manifest_hash(man))
    with np.load(DATA / "norm.npz", allow_pickle=False) as d:
        stats = registry.NormStats(manifest=man, mean=d["mean"], sd=d["sd"],
                                   constant=d["constant"])
    return man, params, stats


def pool_member(pool: tuple, seed: int):
    """The pool's last member for the held-out seed, otherwise one of the
    others by ``seed`` modulo their number."""
    if seed == HELDOUT_SEED:
        return pool[-1]
    return pool[seed % (len(pool) - 1)]


def kappa_of(pred: list, truth: list) -> float:
    cm = evaluate.ConfusionMatrix(np.zeros((4, 4), dtype=int))
    for p, t in zip(pred, truth):
        cm = cm + evaluate.confusion_matrix(p, t)
    return evaluate.cohens_kappa(cm)


def compare_values(what: str, got, ref, rtol: float = RTOL) -> None:
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        raise Mismatch(f"{what}: shape {got.shape}, reference {ref.shape}")
    if not np.array_equal(np.isfinite(got), np.isfinite(ref)):
        raise Mismatch(f"{what}: missing entries differ from the reference")
    ok = np.isfinite(ref)
    if not np.allclose(got[ok], ref[ok], rtol=rtol, atol=ATOL):
        worst = np.max(np.abs(got[ok] - ref[ok]) / (ATOL + rtol * np.abs(ref[ok])))
        raise Mismatch(f"{what}: differs from the reference by {worst:.3g}x the tolerance")


def count_failed(check, items: int) -> int:
    """How many of ``items`` operations failed their check: the number
    ``check`` returns (``None`` for none), or all of them when it raises
    ``Mismatch``."""
    try:
        return check() or 0
    except Mismatch as e:
        print(f"mismatch: {e}")
        return items


def compare_stages(what: str, got, ref) -> None:
    got = np.asarray(got.indices() if hasattr(got, "indices") else got)
    if not np.array_equal(got, np.asarray(ref)):
        raise Mismatch(f"{what}: predicted stages differ from the reference "
                       f"in {int(np.sum(got != np.asarray(ref)))} epochs")


def cohort_ids(pool: int) -> list:
    return [f"synth-{i:05d}" for i in range(pool)]


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# --- night-960 --------------------------------------------------------------

@dataclass
class NightInput:
    night_seed: int
    edf: bytes
    truth: Hypnogram
    model: tuple


def night_setup(seed: int, sizes: Sizes = FULL) -> NightInput:
    return night_input(pool_member(NIGHT_SEEDS, seed), sizes)


def night_input(night_seed: int, sizes: Sizes = FULL) -> NightInput:
    rec = synth.generate_subject(night_seed, synth.easy_profile(), sizes.night_epochs)
    edf = signal_io.write_edf([rec.ecg, rec.breath_chest, rec.breath_abdomen])
    return NightInput(night_seed, edf, rec.hypnogram, load_model())


def score_night(inp: NightInput):
    """EDF bytes to hypnogram: the per-night cost a sleep lab pays."""
    man, params, stats = inp.model
    by_label = {t.channel_label: t for t in signal_io.read_edf(inp.edf)}
    record = SubjectRecord(subject_id=f"night-{inp.night_seed}",
                           ecg=by_label["ECG"], breath_chest=by_label["THOR RES"],
                           breath_abdomen=by_label["ABDO RES"])
    processed = pipeline.preprocess_subject(record)
    matrix = registry.assemble_feature_matrix(processed, man)
    normed = registry.apply_normalization(matrix, stats)
    return matrix, blstm.predict(params, normed.values)


def night_truth(inp: NightInput, hyp):
    return four_hypnogram_from_indices(inp.truth.indices()[:len(hyp)])


def night_check(inp: NightInput, matrix, hyp) -> None:
    with np.load(DATA / "night960.npz", allow_pickle=False) as ref:
        key = str(inp.night_seed)
        compare_values(f"night {key} features", matrix.values, ref[f"{key}_values"])
        compare_stages(f"night {key}", hyp, ref[f"{key}_stages"])


# --- cohort-120 -------------------------------------------------------------

@dataclass
class CohortInput:
    root: Path
    ids: list


def cohort_setup(seed: int, root: Path, sizes: Sizes = FULL) -> CohortInput:
    """Raw EDF/hypnogram files and metadata for the seed's subjects."""
    rng = np.random.default_rng(seed)
    picks = sorted(rng.choice(sizes.cohort_pool, sizes.cohort_subjects,
                              replace=False).tolist())
    raw = fresh_dir(root) / "raw"
    raw.mkdir()
    profile = synth.easy_profile()
    records = []
    for i in picks:
        subj = synth.generate_subject(i, profile, sizes.cohort_epochs)
        sid = subj.subject_id
        (raw / f"{sid}.edf").write_bytes(signal_io.write_edf(
            [subj.ecg, subj.breath_chest, subj.breath_abdomen]))
        (raw / f"{sid}.hyp").write_text(signal_io.write_hypnogram(subj.hypnogram))
        records.append({"subject_id": sid, "ahi": subj.ahi,
                        "edf": f"raw/{sid}.edf", "hypnogram": f"raw/{sid}.hyp"})
    (root / "subjects.jsonl").write_text(signal_io.write_subject_metadata(records))
    (root / "split.json").write_text(json.dumps(
        {"train": [], "val": [r["subject_id"] for r in records]}))
    return CohortInput(root, [r["subject_id"] for r in records])


def run_cohort(inp: CohortInput, out: Path, stage_timer=None) -> None:
    """The CLI stages preprocess -> extract -> evaluate; ``stage_timer(name)``
    optionally gives a context manager around each stage."""
    fresh_dir(out)
    base = ["--seed", "0", "--workers", str(WORKERS)]
    stages = [
        ("preprocess", ["preprocess", "--meta", str(inp.root / "subjects.jsonl"),
                        "--out", str(out)]),
        ("extract", ["extract", "--preprocessed", str(out / "preprocessed"),
                     "--out", str(out)]),
        ("evaluate", ["evaluate", "--features", str(out / "features"),
                      "--split", str(inp.root / "split.json"),
                      "--model", str(DATA / "model.npz"),
                      "--norm", str(DATA / "norm.npz"), "--out", str(out)]),
    ]
    for name, argv in stages:
        with stage_timer(name) if stage_timer else nullcontext():
            code = cli.main(base + argv)
        if code != 0:
            raise RuntimeError(f"cli {name} exited with code {code}")


def cohort_outputs(inp: CohortInput, out: Path, model) -> tuple:
    """Feature matrices and predictions read back from the stage outputs,
    outside the timed region, plus the confusion counts evaluate wrote."""
    man, params, stats = model
    mats = {sid: signal_io.read_feature_matrix(out / "features" / f"{sid}.csv", man)
            for sid in inp.ids}
    preds = {sid: blstm.predict(params, registry.apply_normalization(m, stats).values)
             for sid, m in mats.items()}
    counts = np.loadtxt(out / "confusion.csv", delimiter=",", skiprows=1).astype(int)
    return mats, preds, counts


def cohort_check(inp: CohortInput, mats, preds, counts) -> int:
    """Number of subjects whose features or stages differ from the reference;
    raises when the evaluate stage's confusion counts are wrong."""
    def one(ref, sid):
        compare_values(f"{sid} features", mats[sid].values, ref[f"{sid}_values"])
        compare_stages(sid, preds[sid], ref[f"{sid}_stages"])

    with np.load(DATA / "cohort120.npz", allow_pickle=False) as ref:
        bad = sum(count_failed(lambda: one(ref, sid), 1) for sid in inp.ids)
    expect = sum(evaluate.confusion_matrix(preds[sid], mats[sid].labels).counts
                 for sid in inp.ids)
    if not np.array_equal(counts, expect):
        raise Mismatch("evaluate stage confusion counts differ from the predictions")
    return bad


# --- train-120 --------------------------------------------------------------

@dataclass
class TrainInput:
    train_seed: int
    csv_dir: Path
    train_ids: list
    val_ids: list

    @property
    def ids(self) -> list:
        return self.train_ids + self.val_ids


def stored_cohort_matrices(sizes: Sizes = FULL) -> dict:
    """The acceptance cohort's feature matrices from the reference commit
    (the first ``sizes.cohort_pool`` subjects)."""
    man = manifest()
    mats = {}
    with np.load(DATA / "cohort120.npz", allow_pickle=False) as ref:
        for sid in cohort_ids(sizes.cohort_pool):
            vals = ref[f"{sid}_values"]
            mats[sid] = registry.FeatureMatrix(
                manifest=man, values=vals, missing_mask=~np.isfinite(vals),
                labels=four_hypnogram_from_indices(ref[f"{sid}_truth"]),
                subject_id=sid)
    return mats


def train_setup(seed: int, csv_dir: Path, mats: dict | None = None) -> TrainInput:
    return train_input(pool_member(TRAIN_SEEDS, seed), csv_dir, mats)


def train_input(train_seed: int, csv_dir: Path, mats: dict | None = None) -> TrainInput:
    if mats is None:
        mats = stored_cohort_matrices()
    fresh_dir(csv_dir)
    for sid, m in mats.items():
        signal_io.write_feature_matrix(m, csv_dir / f"{sid}.csv")
    train_ids, val_ids = cohort.split_subjects(sorted(mats), 0.7, train_seed)
    return TrainInput(train_seed, csv_dir, train_ids, val_ids)


def run_train(inp: TrainInput, sizes: Sizes = FULL) -> dict:
    """Normalisation, a fixed number of training epochs (early stopping off)
    and evaluation on every subject, training and validation: pooled over all
    thirty, kappa depends less on which nine the split holds out."""
    man = manifest()
    mats = {sid: signal_io.read_feature_matrix(inp.csv_dir / f"{sid}.csv", man)
            for sid in inp.ids}
    stats = registry.fit_normalization([mats[s] for s in inp.train_ids])
    seqs = {}
    for sid, m in mats.items():
        X, y = pipeline.matrix_to_sequence(registry.apply_normalization(m, stats))
        seqs[sid] = (X, y)
    config = blstm.TrainConfig(max_epochs=sizes.train_epochs,
                               patience=sizes.train_epochs, seed=inp.train_seed)
    t0 = time.perf_counter()
    params, history = blstm.train(config, [seqs[s] for s in inp.train_ids],
                                  [seqs[s] for s in inp.val_ids])
    train_span = (t0, time.perf_counter())
    preds = {sid: blstm.predict(params, seqs[sid][0]) for sid in inp.ids}
    kappa = kappa_of([preds[s] for s in inp.ids], [mats[s].labels for s in inp.ids])
    return {"train_span": train_span, "history": history, "preds": preds,
            "kappa": kappa}


def train_check(inp: TrainInput, result: dict) -> int:
    """Number of subjects whose stages differ; raises when the training
    curve differs."""
    ref = json.loads((DATA / "train120.json").read_text())[str(inp.train_seed)]
    if ref["val_ids"] != inp.val_ids:
        raise Mismatch("validation split differs from the reference")
    for key in ("train_loss", "val_loss"):
        compare_values(f"train seed {inp.train_seed} {key}",
                       result["history"][key], ref[key], LOSS_RTOL)
    stages = ref["stages"]
    return sum(count_failed(lambda: compare_stages(sid, result["preds"][sid],
                                                   stages[sid]), 1)
               for sid in inp.ids)
