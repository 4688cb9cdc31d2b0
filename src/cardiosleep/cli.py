"""Command-line pipeline: every stage reads and writes interchange files so
runs are resumable and inspectable.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric failure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import blstm, cohort, evaluate, pipeline, preprocess, registry, signal_io, synth
from .config import PipelineConfig, load_config
from .errors import (CardiosleepError, ConfigError, InvalidSeries, MalformedHeader,
                     MissingMetadata, NonFiniteInput, NonFiniteLoss)
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


def _peak_rss_mb() -> float:
    """The process's peak resident memory so far, in MB: the larger of its own
    ``ru_maxrss`` and that of its largest finished child (KB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _log_run(out_dir: Path, stage: str, inputs: list, cfg: PipelineConfig,
             wall_s: float) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    line = {
        "stage": stage,
        "inputs": {str(p): _sha256(p) for p in map(Path, inputs) if p.is_file()},
        "config_hash": cfg.config_hash(),
        "version": 1,
        "wall_s": wall_s,
        "peak_rss_mb": _peak_rss_mb(),
    }
    with open(out_dir / "run_manifest.jsonl", "a") as f:
        f.write(json.dumps(line, sort_keys=True) + "\n")


def _map(fn, items, workers: int):
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items))


def _parse_file(path: Path, parse, read=lambda path: path.read_text(encoding="utf-8")):
    """``parse`` applied to the file at ``path`` as ``read`` gives it, by
    default as UTF-8 text, inside ``signal_io.naming``."""
    with signal_io.naming(path):
        return parse(read(path))


def _read_metadata(meta: Path) -> list:
    """The records of a metadata file, which must list subjects."""
    records = _parse_file(meta, signal_io.read_subject_metadata)
    if not records:
        raise CardiosleepError(f"no subjects in {meta}")
    return records


def _hypnogram(rec: dict, base: Path):
    """The hypnogram a metadata record names, or None."""
    if not rec.get("hypnogram"):
        return None
    return _parse_file(base / rec["hypnogram"], signal_io.read_hypnogram)


_CHANNELS = ("ECG", "THOR RES", "ABDO RES")  # the EDF labels the pipeline reads


def _channels(traces: list) -> dict:
    """The traces of ``_CHANNELS`` by label; a label on two signals raises."""
    labels = Counter(t.channel_label for t in traces)
    twice = [label for label in _CHANNELS if labels[label] > 1]
    if twice:
        raise MalformedHeader(f"label {twice[0]!r} is on {labels[twice[0]]} signals")
    return {t.channel_label: t for t in traces}


def _load_subject(rec: dict, base: Path) -> SubjectRecord:
    if rec.get("edf") is None:
        raise MissingMetadata(f"{rec['subject_id']}: no edf path in the metadata")
    by_label = _parse_file(base / rec["edf"],
                           lambda data: _channels(signal_io.read_edf(data)),
                           Path.read_bytes)
    return SubjectRecord(subject_id=rec["subject_id"], ecg=by_label.get("ECG"),
                         breath_chest=by_label.get("THOR RES"),
                         breath_abdomen=by_label.get("ABDO RES"),
                         hypnogram=_hypnogram(rec, base), ahi=rec.get("ahi"))


# --- stages ---------------------------------------------------------------
# Each cmd_* runs one stage and returns the input files to record in the run
# manifest and the stage's one-line summary; main records and prints them.

def cmd_synth(args, cfg: PipelineConfig) -> tuple:
    if args.subjects < 1 or args.epochs < synth.MIN_EPOCHS:
        raise ConfigError(f"--subjects must be >= 1 and --epochs >= {synth.MIN_EPOCHS}")
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
    return [], f"wrote {len(records)} subjects to {out}"


def _preprocess_one(task) -> str:
    rec, base, out_dir, profile = task
    subj = _load_subject(rec, base)
    processed = pipeline.preprocess_subject(subj, profile)
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


def cmd_preprocess(args, cfg: PipelineConfig) -> tuple:
    meta = Path(args.meta)
    records = _read_metadata(meta)
    out_dir = Path(args.out) / "preprocessed"
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(rec, meta.parent, out_dir, cfg.profile) for rec in records]
    done = _map(_preprocess_one, tasks, cfg.workers)
    return [meta], f"{len(done)} subjects -> {out_dir}"


def _rate(d, member: str) -> float:
    """One finite sample rate in ``member``, above twice the belt's low-pass cutoff."""
    rate, low = d[member], 2 * preprocess.BREATH_CUTOFF_HZ
    if rate.shape != () or rate.dtype.kind not in "biuf" or not low < rate < np.inf:
        raise MalformedHeader(f"member {member!r} is not a sample rate above {low:g} Hz")
    return float(rate)


def _trace(d, label: str, member: str) -> SignalTrace:
    """The belt in ``member``, sampled at the rate in ``<member>_rate``."""
    rate = _rate(d, f"{member}_rate")
    try:
        return SignalTrace(label, rate, d[member])
    except InvalidSeries as e:
        raise MalformedHeader(f"member {member!r} is not a trace ({e})") from e


def _load_processed(path: Path) -> ProcessedSubject:
    with signal_io.open_npz(path) as d:
        members = [d[k] for k in ("rr_peak_times", "rr_intervals", "rr_valid")]
        try:
            rr = RrSeries(*members)
        except InvalidSeries as e:
            raise MalformedHeader("members 'rr_peak_times', 'rr_intervals' and "
                                  f"'rr_valid' are not an RR series ({e})") from e
        chest = _trace(d, "THOR RES", "chest")
        abd = _trace(d, "ABDO RES", "abd") if "abd" in d.files else None
        hyp = None
        if "stages" in d.files:
            hyp = signal_io.read_hypnogram("\n".join(str(s) for s in d["stages"]))
    return ProcessedSubject(subject_id=path.stem, rr=rr, breath_chest=chest,
                            breath_abdomen=abd, hypnogram=hyp)


def _extract_one(task) -> str:
    path, out_dir, profile = task
    manifest = registry.build_manifest(profile)
    processed = _load_processed(path)  # open_npz names the archive
    with signal_io.naming(path):
        matrix = registry.assemble_feature_matrix(processed, manifest)
    signal_io.write_feature_matrix(matrix, out_dir / f"{processed.subject_id}.csv")
    return processed.subject_id


def cmd_extract(args, cfg: PipelineConfig) -> tuple:
    pre_dir = Path(args.preprocessed)
    paths = sorted(pre_dir.glob("*.npz"))
    if not paths:
        raise CardiosleepError(f"no preprocessed subjects in {pre_dir}")
    out_dir = Path(args.out) / "features"
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(p, out_dir, cfg.profile) for p in paths]
    done = _map(_extract_one, tasks, cfg.workers)
    return paths, f"{len(done)} subjects -> {out_dir}"


def cmd_cohort(args, cfg: PipelineConfig) -> tuple:
    meta = Path(args.meta)
    records = _read_metadata(meta)
    kept, log = cohort.select_cohort(
        SubjectRecord(subject_id=rec["subject_id"], ahi=rec.get("ahi"),
                      hypnogram=_hypnogram(rec, meta.parent))
        for rec in records)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "cohort.txt").write_text("subject\tdecision\treason\n"
                                    + "\n".join(log) + "\n")
    (out / "cohort_ids.json").write_text(json.dumps(kept, indent=2))
    return [meta], f"kept {len(kept)} of {len(records)} subjects"


def _read_id_lists(path: str, shape: str, id_lists) -> object:
    """The JSON document at ``path``, of which ``id_lists`` gives the lists
    of subject ids it must hold, or None if it is not ``shape``. Raises
    ``CardiosleepError`` naming the file unless each list holds only ids,
    each a plain file name as in the metadata, and no id appears twice
    across them."""
    with signal_io.naming(path):
        text = Path(path).read_text(encoding="utf-8")
        try:
            doc = json.loads(text)
        except ValueError as e:  # a number too long to convert is no JSONDecodeError
            raise CardiosleepError(f"not JSON ({e})") from e
        lists = id_lists(doc)
        if lists is None or not all(map(_is_ids, lists)):
            raise CardiosleepError(f"not {shape}")
        ids = sum(lists, [])
        bad = [sid for sid in ids if not signal_io.plain_file_name(sid)]
        if bad:
            raise CardiosleepError(f"subject id {bad[0]!r} is not a plain file name")
        twice = [sid for sid, n in Counter(ids).items() if n > 1]
        if twice:
            raise CardiosleepError(f"subject {twice[0]!r} is listed more than once")
    return doc


def _is_ids(doc) -> bool:
    return isinstance(doc, list) and all(isinstance(s, str) for s in doc)


def _read_ids(path: str) -> list:
    """An ids file: a JSON list of distinct subject ids."""
    return _read_id_lists(path, "a JSON list of subject ids", lambda doc: [doc])


def cmd_split(args, cfg: PipelineConfig) -> tuple:
    ids = _read_ids(args.ids)
    train_ids, val_ids = cohort.split_subjects(ids, seed=cfg.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "split.json").write_text(json.dumps(
        {"train": train_ids, "val": val_ids}, indent=2))
    return [args.ids], f"{len(train_ids)} train / {len(val_ids)} validation"


def _load_matrices(feat_dir: Path, ids, manifest):
    return [signal_io.read_feature_matrix(feat_dir / f"{sid}.csv", manifest)
            for sid in ids]


def _split_matrices(args, manifest, *subsets, may_be_empty=()) -> list:
    """For each named list of the split file ``args.split``, a JSON object of
    train and val subject-id lists that share no id and repeat none, the
    feature matrices of its subjects in ``args.features``. A list not in
    ``may_be_empty`` that holds no subject raises ``CardiosleepError``
    naming the file and the list."""
    split = _read_id_lists(args.split,
                           "a JSON object with train and val lists of subject ids",
                           lambda doc: [doc.get("train"), doc.get("val")]
                           if isinstance(doc, dict) else None)
    for subset in subsets:
        if not split[subset] and subset not in may_be_empty:
            raise CardiosleepError(f"{args.split}: no subjects in the {subset!r} list")
    return [_load_matrices(Path(args.features), split[s], manifest) for s in subsets]


def _save_norm(stats: registry.NormStats, path: Path) -> None:
    np.savez(path, mean=stats.mean, sd=stats.sd, constant=stats.constant,
             manifest_hash=registry.manifest_hash(stats.manifest))


def _load_norm(path: Path, manifest) -> registry.NormStats:
    with signal_io.open_npz(path) as d:
        if str(d["manifest_hash"]) != registry.manifest_hash(manifest):
            raise CardiosleepError("statistics built for a different manifest")
        stats = {k: d[k] for k in ("mean", "sd", "constant")}
        if any(np.shape(v) != (len(manifest),) for v in stats.values()):
            raise CardiosleepError(f"statistics do not cover the {len(manifest)} features")
    return registry.NormStats(manifest=manifest, **stats)


def _sequences(mats, stats, require_labels: bool):
    seqs = []
    for m in mats:
        norm = registry.apply_normalization(m, stats)
        X, y = pipeline.matrix_to_sequence(norm)
        if y is None and require_labels:
            raise CardiosleepError(f"{m.subject_id}: no stage labels")
        seqs.append((X, y))
    return seqs


def cmd_train(args, cfg: PipelineConfig) -> tuple:
    manifest = registry.build_manifest(cfg.profile)
    train_mats, val_mats = _split_matrices(args, manifest, "train", "val",
                                           may_be_empty=("val",))
    stats = registry.fit_normalization(train_mats)
    train_seqs = _sequences(train_mats, stats, True)
    val_seqs = _sequences(val_mats, stats, True)
    params, history = blstm.train(cfg.train, train_seqs, val_seqs)
    label, losses = (("validation loss", history["val_loss"]) if val_seqs else
                     ("training loss (no validation subjects)", history["train_loss"]))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _save_norm(stats, out / "norm.npz")
    blstm.save_checkpoint(params, out / "model.npz",
                          registry.manifest_hash(manifest), cfg.to_dict())
    (out / "history.json").write_text(json.dumps(history, indent=2))
    return [args.split], f"best {label} {min(losses):.4f} after {len(losses)} epochs"


def _load_model(args, cfg: PipelineConfig):
    manifest = registry.build_manifest(cfg.profile)
    params, _ = blstm.load_checkpoint(args.model, registry.manifest_hash(manifest))
    stats = _load_norm(Path(args.norm), manifest)
    return manifest, params, stats


def cmd_predict(args, cfg: PipelineConfig) -> tuple:
    manifest, params, stats = _load_model(args, cfg)
    feat_dir = Path(args.features)
    ids = [p.stem for p in sorted(feat_dir.glob("*.csv"))]
    if args.ids:
        ids = _read_ids(args.ids)
    if not ids:
        raise CardiosleepError(f"no subjects to predict in {args.ids or feat_dir}")
    mats = _load_matrices(feat_dir, ids, manifest)
    out_dir = Path(args.out) / "predictions"
    out_dir.mkdir(parents=True, exist_ok=True)
    hyps = blstm.predict_batch(params, [X for X, _ in _sequences(mats, stats, False)])
    for m, hyp in zip(mats, hyps):
        (out_dir / f"{m.subject_id}.hyp").write_text(signal_io.write_hypnogram(hyp))
    return [args.model], f"{len(mats)} subjects -> {out_dir}"


def cmd_evaluate(args, cfg: PipelineConfig) -> tuple:
    manifest, params, stats = _load_model(args, cfg)
    [mats] = _split_matrices(args, manifest, args.subset)
    total_cm = evaluate.ConfusionMatrix(np.zeros((4, 4), dtype=int))
    per_subject = {}
    hyps = blstm.predict_batch(params, [X for X, _ in _sequences(mats, stats, True)])
    for m, hyp in zip(mats, hyps):
        cm = evaluate.confusion_matrix(hyp, m.labels)
        total_cm = total_cm + cm
        per_subject[m.subject_id] = evaluate.accuracy(cm)

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
    return ([args.model, args.split],
            f"accuracy {acc:.4f}, kappa {kappa:.4f} on {len(per_subject)} subjects")


def cmd_importance(args, cfg: PipelineConfig) -> tuple:
    if args.repeats < 1:
        raise ConfigError("--repeats must be >= 1")
    manifest, params, stats = _load_model(args, cfg)
    [mats] = _split_matrices(args, manifest, "val")
    seqs = _sequences(mats, stats, require_labels=True)
    ranking = evaluate.permutation_importance(params, seqs, manifest.names,
                                              seed=cfg.seed, repeats=args.repeats)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "importance.csv", "w") as f:
        f.write("feature,mean_accuracy_drop\n")
        for name, drop in ranking:
            f.write(f"{name},{drop:.6f}\n")
    return [args.model], f"top feature {ranking[0][0]} ({ranking[0][1]:.4f} drop)"


# --- argument parsing -----------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cardiosleep",
        description="Four-class sleep staging from ECG and respiratory effort")
    parser.add_argument("--config", help="YAML config file")
    parser.add_argument("--seed", type=int, help="override config seed")
    parser.add_argument("--workers", type=int, help="per-subject parallelism")
    parser.add_argument("--profile", choices=registry.PROFILES,
                        help="breathing-channel profile")
    shared = {}
    for flag in ("--out", "--meta", "--features", "--split", "--model", "--norm"):
        shared[flag] = argparse.ArgumentParser(add_help=False)
        shared[flag].add_argument(flag, required=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def stage(name, fn, summary, *flags):
        """The subcommand ``name``, taking --out and the shared ``flags``."""
        p = sub.add_parser(name, help=summary,
                           parents=[shared[f] for f in (*flags, "--out")])
        p.set_defaults(fn=fn)
        return p

    p = stage("synth", cmd_synth, "generate synthetic subjects")
    p.add_argument("--subjects", type=int, default=30)
    p.add_argument("--epochs", type=int, default=120)
    p.add_argument("--profile-name", choices=["easy", "default"], default="easy")

    stage("preprocess", cmd_preprocess, "ECG to RR, breathing denoising", "--meta")

    p = stage("extract", cmd_extract, "per-epoch feature matrices")
    p.add_argument("--preprocessed", required=True)

    stage("cohort", cmd_cohort, "subject selection", "--meta")

    p = stage("split", cmd_split, "subject-disjoint train/validation split")
    p.add_argument("--ids", required=True)

    stage("train", cmd_train, "fit normalization and the sequence model",
          "--features", "--split")

    p = stage("predict", cmd_predict, "stage predictions for subjects",
              "--features", "--model", "--norm")
    p.add_argument("--ids")

    p = stage("evaluate", cmd_evaluate, "metrics against reference stages",
              "--features", "--split", "--model", "--norm")
    p.add_argument("--subset", choices=["train", "val"], default="val")

    p = stage("importance", cmd_importance, "permutation feature importance",
              "--features", "--split", "--model", "--norm")
    p.add_argument("--repeats", type=int, default=5)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.workers is not None:
            overrides["workers"] = args.workers
        if args.profile is not None:
            overrides["profile"] = args.profile
        cfg = load_config(args.config, **overrides)
        start = time.perf_counter()
        inputs, summary = args.fn(args, cfg)
        wall_s = time.perf_counter() - start
        _log_run(Path(args.out), args.command, inputs, cfg, wall_s)
        print(f"{args.command}: {summary}")
        return EXIT_OK
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonFiniteLoss, NonFiniteInput) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CardiosleepError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
