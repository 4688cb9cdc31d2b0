"""Command-line pipeline: every stage reads and writes interchange files so
runs are resumable and inspectable.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric failure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import blstm, cohort, evaluate, pipeline, registry, signal_io, synth
from .config import PipelineConfig, load_config
from .errors import (CardiosleepError, ConfigError, NonFiniteInput,
                     NonFiniteLoss)
from .types import ProcessedSubject, RrSeries, SignalTrace, SubjectRecord

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _log_run(out_dir: Path, stage: str, inputs: list, cfg: PipelineConfig) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    line = {
        "stage": stage,
        "inputs": {str(p): _sha256(Path(p)) for p in inputs if Path(p).is_file()},
        "config_hash": cfg.config_hash(),
        "version": 1,
    }
    with open(out_dir / "run_manifest.jsonl", "a") as f:
        f.write(json.dumps(line, sort_keys=True) + "\n")


def _map(fn, items, workers: int):
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items))


def _load_subject(rec: dict, base: Path) -> SubjectRecord:
    traces = signal_io.read_edf((base / rec["edf"]).read_bytes())
    by_label = {t.channel_label: t for t in traces}
    ecg = by_label.get("ECG")
    chest = by_label.get("THOR RES")
    abd = by_label.get("ABDO RES")
    hyp = None
    if rec.get("hypnogram"):
        hyp = signal_io.read_hypnogram((base / rec["hypnogram"]).read_text())
    return SubjectRecord(subject_id=rec["subject_id"], ecg=ecg,
                         breath_chest=chest, breath_abdomen=abd,
                         hypnogram=hyp, ahi=rec.get("ahi"))


# --- stages ---------------------------------------------------------------

def cmd_synth(args, cfg: PipelineConfig) -> int:
    out = Path(args.out)
    raw = out / "raw"
    raw.mkdir(parents=True, exist_ok=True)
    profile = synth.easy_profile() if args.profile_name == "easy" else synth.default_profile()
    records = []
    for i in range(args.subjects):
        subj = synth.generate_subject(cfg.seed + i, profile, args.epochs)
        edf = signal_io.write_edf([subj.ecg, subj.breath_chest, subj.breath_abdomen])
        (raw / f"{subj.subject_id}.edf").write_bytes(edf)
        (raw / f"{subj.subject_id}.hyp").write_text(
            signal_io.write_hypnogram(subj.hypnogram))
        records.append({"subject_id": subj.subject_id, "ahi": subj.ahi,
                        "edf": f"raw/{subj.subject_id}.edf",
                        "hypnogram": f"raw/{subj.subject_id}.hyp"})
    (out / "subjects.jsonl").write_text(signal_io.write_subject_metadata(records))
    _log_run(out, "synth", [], cfg)
    print(f"synth: wrote {len(records)} subjects to {out}")
    return EXIT_OK


def _preprocess_one(task) -> str:
    rec, base, out_dir = task
    subj = _load_subject(rec, base)
    processed = pipeline.preprocess_subject(subj)
    path = out_dir / f"{rec['subject_id']}.npz"
    payload = {
        "rr_peak_times": processed.rr.peak_times_s,
        "rr_intervals": processed.rr.intervals_s,
        "rr_valid": processed.rr.valid_mask,
        "chest": processed.breath_chest.samples,
        "chest_rate": np.array(processed.breath_chest.sample_rate_hz),
    }
    if processed.breath_abdomen is not None:
        payload["abd"] = processed.breath_abdomen.samples
        payload["abd_rate"] = np.array(processed.breath_abdomen.sample_rate_hz)
    if processed.hypnogram is not None:
        payload["stages"] = np.array([s.value for s in processed.hypnogram.labels])
    np.savez(path, **payload)
    return rec["subject_id"]


def cmd_preprocess(args, cfg: PipelineConfig) -> int:
    meta = Path(args.meta)
    base = meta.parent
    out_dir = Path(args.out) / "preprocessed"
    out_dir.mkdir(parents=True, exist_ok=True)
    records = signal_io.read_subject_metadata(meta.read_text())
    tasks = [(rec, base, out_dir) for rec in records]
    done = _map(_preprocess_one, tasks, cfg.workers)
    _log_run(Path(args.out), "preprocess", [meta], cfg)
    print(f"preprocess: {len(done)} subjects -> {out_dir}")
    return EXIT_OK


def _load_processed(path: Path) -> ProcessedSubject:
    with signal_io.open_npz(path) as d:
        rr = RrSeries(d["rr_peak_times"], d["rr_intervals"], d["rr_valid"])
        chest = SignalTrace("THOR RES", float(d["chest_rate"]), d["chest"])
        abd = (SignalTrace("ABDO RES", float(d["abd_rate"]), d["abd"])
               if "abd" in d.files else None)
        hyp = None
        if "stages" in d.files:
            hyp = signal_io.read_hypnogram("\n".join(str(s) for s in d["stages"]))
    return ProcessedSubject(subject_id=path.stem, rr=rr, breath_chest=chest,
                            breath_abdomen=abd, hypnogram=hyp)


def _extract_one(task) -> str:
    path, out_dir, profile = task
    manifest = registry.build_manifest(profile)
    processed = _load_processed(path)
    matrix = registry.assemble_feature_matrix(processed, manifest)
    signal_io.write_feature_matrix(matrix, out_dir / f"{processed.subject_id}.csv")
    return processed.subject_id


def cmd_extract(args, cfg: PipelineConfig) -> int:
    pre_dir = Path(args.preprocessed)
    out_dir = Path(args.out) / "features"
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = sorted(pre_dir.glob("*.npz"))
    if not paths:
        raise CardiosleepError(f"no preprocessed subjects in {pre_dir}")
    tasks = [(p, out_dir, cfg.profile) for p in paths]
    done = _map(_extract_one, tasks, cfg.workers)
    _log_run(Path(args.out), "extract", paths, cfg)
    print(f"extract: {len(done)} subjects -> {out_dir}")
    return EXIT_OK


def cmd_cohort(args, cfg: PipelineConfig) -> int:
    meta = Path(args.meta)
    base = meta.parent
    subjects = []
    for rec in signal_io.read_subject_metadata(meta.read_text()):
        hyp = None
        if rec.get("hypnogram"):
            hyp = signal_io.read_hypnogram((base / rec["hypnogram"]).read_text())
        subjects.append(SubjectRecord(subject_id=rec["subject_id"],
                                      hypnogram=hyp, ahi=rec.get("ahi")))
    kept, log = cohort.select_cohort(subjects)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "cohort.txt").write_text("subject\tdecision\treason\n"
                                    + "\n".join(log) + "\n")
    (out / "cohort_ids.json").write_text(
        json.dumps([s.subject_id for s in kept], indent=2))
    _log_run(out, "cohort", [meta], cfg)
    print(f"cohort: kept {len(kept)} of {len(subjects)} subjects")
    return EXIT_OK


def cmd_split(args, cfg: PipelineConfig) -> int:
    ids = json.loads(Path(args.ids).read_text())
    train_ids, val_ids = cohort.split_subjects(ids, seed=cfg.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "split.json").write_text(json.dumps(
        {"train": train_ids, "val": val_ids}, indent=2))
    _log_run(out, "split", [Path(args.ids)], cfg)
    print(f"split: {len(train_ids)} train / {len(val_ids)} validation")
    return EXIT_OK


def _load_matrices(feat_dir: Path, ids, manifest):
    mats = []
    for sid in ids:
        path = feat_dir / f"{sid}.csv"
        if not path.is_file():
            raise CardiosleepError(f"missing feature file {path}")
        mats.append(signal_io.read_feature_matrix(path, manifest))
    return mats


def _save_norm(stats: registry.NormStats, path: Path) -> None:
    np.savez(path, mean=stats.mean, sd=stats.sd, constant=stats.constant,
             manifest_hash=registry.manifest_hash(stats.manifest))


def _load_norm(path: Path, manifest) -> registry.NormStats:
    with signal_io.open_npz(path) as d:
        if str(d["manifest_hash"]) != registry.manifest_hash(manifest):
            raise CardiosleepError("normalization stats built for a different manifest")
        return registry.NormStats(manifest=manifest, mean=d["mean"], sd=d["sd"],
                                  constant=d["constant"])


def _sequences(mats, stats, require_labels: bool):
    seqs = []
    for m in mats:
        norm = registry.apply_normalization(m, stats)
        X, y = pipeline.matrix_to_sequence(norm)
        if y is None and require_labels:
            raise CardiosleepError(f"{m.subject_id}: no stage labels")
        seqs.append((m.subject_id, X, y))
    return seqs


def cmd_train(args, cfg: PipelineConfig) -> int:
    feat_dir = Path(args.features)
    split = json.loads(Path(args.split).read_text())
    manifest = registry.build_manifest(cfg.profile)
    train_mats = _load_matrices(feat_dir, split["train"], manifest)
    val_mats = _load_matrices(feat_dir, split["val"], manifest)
    stats = registry.fit_normalization(train_mats)
    train_seqs = [(X, y) for _, X, y in _sequences(train_mats, stats, True)]
    val_seqs = [(X, y) for _, X, y in _sequences(val_mats, stats, True)]
    params, history = blstm.train(cfg.train, train_seqs, val_seqs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _save_norm(stats, out / "norm.npz")
    blstm.save_checkpoint(params, out / "model.npz",
                          registry.manifest_hash(manifest), cfg.to_dict())
    (out / "history.json").write_text(json.dumps(history, indent=2))
    _log_run(out, "train", [Path(args.split)], cfg)
    print(f"train: best validation loss {min(history['val_loss']):.4f} "
          f"after {len(history['val_loss'])} epochs")
    return EXIT_OK


def _load_model(args, cfg: PipelineConfig):
    manifest = registry.build_manifest(cfg.profile)
    params, _ = blstm.load_checkpoint(args.model, registry.manifest_hash(manifest))
    stats = _load_norm(Path(args.norm), manifest)
    return manifest, params, stats


def cmd_predict(args, cfg: PipelineConfig) -> int:
    manifest, params, stats = _load_model(args, cfg)
    feat_dir = Path(args.features)
    ids = [p.stem for p in sorted(feat_dir.glob("*.csv"))]
    if args.ids:
        ids = json.loads(Path(args.ids).read_text())
    mats = _load_matrices(feat_dir, ids, manifest)
    out_dir = Path(args.out) / "predictions"
    out_dir.mkdir(parents=True, exist_ok=True)
    seqs = _sequences(mats, stats, require_labels=False)
    hyps = blstm.predict_batch(params, [X for _, X, _ in seqs])
    for (sid, _, _), hyp in zip(seqs, hyps):
        (out_dir / f"{sid}.hyp").write_text(signal_io.write_hypnogram(hyp))
    _log_run(Path(args.out), "predict", [Path(args.model)], cfg)
    print(f"predict: {len(mats)} subjects -> {out_dir}")
    return EXIT_OK


def cmd_evaluate(args, cfg: PipelineConfig) -> int:
    manifest, params, stats = _load_model(args, cfg)
    split = json.loads(Path(args.split).read_text())
    mats = _load_matrices(Path(args.features), split[args.subset], manifest)
    total_cm = evaluate.ConfusionMatrix(np.zeros((4, 4), dtype=int))
    per_subject = {}
    seqs = _sequences(mats, stats, require_labels=True)
    hyps = blstm.predict_batch(params, [X for _, X, _ in seqs])
    for m, (sid, _, _), hyp in zip(mats, seqs, hyps):
        cm = evaluate.confusion_matrix(hyp, m.labels)
        total_cm = total_cm + cm
        per_subject[sid] = evaluate.accuracy(cm)

    acc = evaluate.accuracy(total_cm)
    kappa = evaluate.cohens_kappa(total_cm)
    best, median, worst = evaluate.rank_cases(per_subject)
    cdf = evaluate.per_subject_cdf(list(per_subject.values()))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = [
        f"epochs: {total_cm.total}",
        f"accuracy (epoch-weighted): {acc:.4f}",
        f"accuracy (subject-averaged): {np.mean(list(per_subject.values())):.4f}",
        f"cohen_kappa: {kappa:.4f}",
        "",
        evaluate.format_confusion(total_cm),
        f"best: {best}  median: {median}  worst: {worst}",
    ]
    (out / "report.txt").write_text("\n".join(report) + "\n")
    np.savetxt(out / "confusion.csv", total_cm.counts, fmt="%d", delimiter=",",
               header=",".join(evaluate.CLASS_NAMES), comments="")
    with open(out / "cdf.csv", "w") as f:
        f.write("accuracy,cumulative_fraction\n")
        for x, p in cdf:
            f.write(f"{x:.6f},{p:.6f}\n")
    with open(out / "subjects.csv", "w") as f:
        f.write("subject_id,accuracy\n")
        for sid in sorted(per_subject):
            f.write(f"{sid},{per_subject[sid]:.6f}\n")
    _log_run(out, "evaluate", [Path(args.model), Path(args.split)], cfg)
    print(f"evaluate: accuracy {acc:.4f}, kappa {kappa:.4f} "
          f"on {len(per_subject)} subjects")
    return EXIT_OK


def cmd_importance(args, cfg: PipelineConfig) -> int:
    if args.repeats < 1:
        raise ConfigError("--repeats must be >= 1")
    manifest, params, stats = _load_model(args, cfg)
    split = json.loads(Path(args.split).read_text())
    mats = _load_matrices(Path(args.features), split["val"], manifest)
    seqs = [(X, y) for _, X, y in _sequences(mats, stats, require_labels=True)]
    ranking = evaluate.permutation_importance(params, seqs, manifest.names,
                                              seed=cfg.seed, repeats=args.repeats)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "importance.csv", "w") as f:
        f.write("feature,mean_accuracy_drop\n")
        for name, drop in ranking:
            f.write(f"{name},{drop:.6f}\n")
    _log_run(out, "importance", [Path(args.model)], cfg)
    print(f"importance: top feature {ranking[0][0]} ({ranking[0][1]:.4f} drop)")
    return EXIT_OK


# --- argument parsing -----------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cardiosleep",
        description="Four-class sleep staging from ECG and respiratory effort")
    parser.add_argument("--config", help="YAML config file")
    parser.add_argument("--seed", type=int, help="override config seed")
    parser.add_argument("--workers", type=int, help="per-subject parallelism")
    parser.add_argument("--profile", choices=["single", "two-channel"],
                        help="breathing-channel profile")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic subjects")
    p.add_argument("--out", required=True)
    p.add_argument("--subjects", type=int, default=30)
    p.add_argument("--epochs", type=int, default=120)
    p.add_argument("--profile-name", choices=["easy", "default"], default="easy")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("preprocess", help="ECG to RR, breathing denoising")
    p.add_argument("--meta", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_preprocess)

    p = sub.add_parser("extract", help="per-epoch feature matrices")
    p.add_argument("--preprocessed", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("cohort", help="subject selection")
    p.add_argument("--meta", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_cohort)

    p = sub.add_parser("split", help="subject-disjoint train/validation split")
    p.add_argument("--ids", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_split)

    p = sub.add_parser("train", help="fit normalization and the sequence model")
    p.add_argument("--features", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("predict", help="stage predictions for subjects")
    p.add_argument("--features", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--norm", required=True)
    p.add_argument("--ids")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("evaluate", help="metrics against reference stages")
    p.add_argument("--features", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--subset", choices=["train", "val"], default="val")
    p.add_argument("--model", required=True)
    p.add_argument("--norm", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("importance", help="permutation feature importance")
    p.add_argument("--features", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--norm", required=True)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_importance)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.workers is not None:
            overrides["workers"] = args.workers
        if args.profile is not None:
            overrides["profile"] = args.profile
        cfg = load_config(args.config, **overrides)
        return args.fn(args, cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonFiniteLoss, NonFiniteInput) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CardiosleepError, OSError, json.JSONDecodeError, KeyError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
