"""End-to-end command-line pipeline on a miniature synthetic dataset."""
import importlib.util
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from cardiosleep import blstm, cli, registry, signal_io
from cardiosleep.types import FourStage, Hypnogram, SignalTrace

REPO = Path(__file__).resolve().parents[1]

CONFIG = """
seed: 0
train:
  max_epochs: 4
  patience: 4
"""


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """synth -> preprocess -> extract -> cohort -> split -> train, once."""
    out = tmp_path_factory.mktemp("mini")
    cfg = out / "config.yaml"
    cfg.write_text(CONFIG)
    base = ["--config", str(cfg)]
    steps = [
        ["synth", "--out", str(out), "--subjects", "6", "--epochs", "20"],
        ["preprocess", "--meta", str(out / "subjects.jsonl"), "--out", str(out)],
        ["extract", "--preprocessed", str(out / "preprocessed"),
         "--out", str(out)],
        ["cohort", "--meta", str(out / "subjects.jsonl"), "--out", str(out)],
        ["split", "--ids", str(out / "cohort_ids.json"), "--out", str(out)],
        ["train", "--features", str(out / "features"),
         "--split", str(out / "split.json"), "--out", str(out)],
    ]
    for step in steps:
        assert cli.main(base + step) == 0
    return out


class TestPipelineStages:
    def test_artifacts_exist(self, pipeline_dir):
        out = pipeline_dir
        assert len(list((out / "raw").glob("*.edf"))) == 6
        assert len(list((out / "preprocessed").glob("*.npz"))) == 6
        assert len(list((out / "features").glob("*.csv"))) == 6
        split = json.loads((out / "split.json").read_text())
        assert len(split["train"]) == 4 and len(split["val"]) == 2
        assert not set(split["train"]) & set(split["val"])
        assert (out / "model.npz").is_file()
        assert (out / "norm.npz").is_file()
        history = json.loads((out / "history.json").read_text())
        assert len(history["val_loss"]) <= 4

    def test_run_manifest_logs_every_stage(self, pipeline_dir):
        lines = (pipeline_dir / "run_manifest.jsonl").read_text().splitlines()
        stages = [json.loads(l)["stage"] for l in lines]
        assert stages[:6] == ["synth", "preprocess", "extract", "cohort",
                              "split", "train"]
        for l in lines:
            rec = json.loads(l)
            assert "config_hash" in rec and "inputs" in rec

    def test_every_stage_line_carries_a_positive_peak_memory(self, pipeline_dir):
        lines = (pipeline_dir / "run_manifest.jsonl").read_text().splitlines()
        assert lines
        for l in lines:
            peak = json.loads(l)["peak_rss_mb"]
            assert type(peak) is float and math.isfinite(peak) and peak > 0

    def test_predict_then_evaluate(self, pipeline_dir):
        out = pipeline_dir
        cfg = ["--config", str(out / "config.yaml")]
        assert cli.main(cfg + ["predict", "--features", str(out / "features"),
                               "--model", str(out / "model.npz"),
                               "--norm", str(out / "norm.npz"),
                               "--out", str(out)]) == 0
        preds = sorted((out / "predictions").glob("*.hyp"))
        assert len(preds) == 6
        hyp = signal_io.read_hypnogram(preds[0].read_text())
        assert hyp.scheme == "four" and len(hyp) >= 19
        assert cli.main(cfg + ["evaluate", "--features", str(out / "features"),
                               "--split", str(out / "split.json"),
                               "--model", str(out / "model.npz"),
                               "--norm", str(out / "norm.npz"),
                               "--out", str(out)]) == 0
        report = (out / "report.txt").read_text()
        assert "cohen_kappa" in report
        assert (out / "confusion.csv").is_file()
        assert (out / "cdf.csv").is_file()

    def test_predictions_deterministic_across_reruns(self, pipeline_dir):
        out = pipeline_dir
        cfg = ["--config", str(out / "config.yaml")]
        args = cfg + ["predict", "--features", str(out / "features"),
                      "--model", str(out / "model.npz"),
                      "--norm", str(out / "norm.npz"), "--out", str(out)]
        assert cli.main(args) == 0
        first = {p.name: p.read_text()
                 for p in (out / "predictions").glob("*.hyp")}
        assert cli.main(args) == 0
        second = {p.name: p.read_text()
                  for p in (out / "predictions").glob("*.hyp")}
        assert first == second

    def test_importance_ranks_all_features(self, pipeline_dir):
        out = pipeline_dir
        cfg = ["--config", str(out / "config.yaml")]
        assert cli.main(cfg + ["importance",
                               "--features", str(out / "features"),
                               "--split", str(out / "split.json"),
                               "--model", str(out / "model.npz"),
                               "--norm", str(out / "norm.npz"),
                               "--repeats", "1", "--out", str(out)]) == 0
        lines = (out / "importance.csv").read_text().splitlines()
        assert len(lines) == 153  # header + 152 features
        drops = [float(l.split(",")[1]) for l in lines[1:]]
        assert drops == sorted(drops, reverse=True)

    def test_seed_flag_seeds_training(self, pipeline_dir, tmp_path,
                                      monkeypatch):
        out = pipeline_dir
        seeds = []
        train = blstm.train

        def recorded(config, *args, **kwargs):
            seeds.append(config.seed)
            return train(config, *args, **kwargs)
        monkeypatch.setattr(blstm, "train", recorded)
        assert cli.main(["--config", str(out / "config.yaml"), "--seed", "5",
                         "train", "--features", str(out / "features"),
                         "--split", str(out / "split.json"),
                         "--out", str(tmp_path)]) == 0
        assert seeds == [5]

    def test_train_without_validation_subjects_labels_training_loss(
            self, pipeline_dir, tmp_path, capsys):
        out = pipeline_dir
        split = tmp_path / "split.json"
        split.write_text(json.dumps({"train": json.loads(
            (out / "split.json").read_text())["train"], "val": []}))
        assert cli.main(["--config", str(out / "config.yaml"), "train",
                         "--features", str(out / "features"),
                         "--split", str(split), "--out", str(tmp_path)]) == 0
        printed = capsys.readouterr().out
        assert "best training loss (no validation subjects)" in printed
        assert "validation loss" not in printed
        history = json.loads((tmp_path / "history.json").read_text())
        assert sorted(history) == ["train_acc", "train_loss"]


class TestWorkers:
    def test_worker_count_changes_no_output_or_hash(self, tmp_path):
        hashes, features = {}, {}
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            base = ["--workers", str(workers)]
            for step in (
                    ["synth", "--out", str(out), "--subjects", "2",
                     "--epochs", "20"],
                    ["preprocess", "--meta", str(out / "subjects.jsonl"),
                     "--out", str(out)],
                    ["extract", "--preprocessed", str(out / "preprocessed"),
                     "--out", str(out)]):
                assert cli.main(base + step) == 0
            lines = (out / "run_manifest.jsonl").read_text().splitlines()
            hashes[workers] = {json.loads(l)["config_hash"] for l in lines}
            # each CSV and its binary copy
            features[workers] = {p.name: p.read_bytes()
                                 for p in (out / "features").iterdir()}
        assert len(hashes[1]) == 1
        assert hashes[1] == hashes[2]
        csvs = sorted(n for n in features[1] if n.endswith(".csv"))
        assert len(csvs) == 2
        assert sorted(features[1]) == sorted(csvs + [n + ".bin" for n in csvs])
        assert features[1] == features[2]

    def test_no_more_worker_processes_than_subjects(self, pipeline_dir,
                                                    tmp_path, monkeypatch):
        pools = []

        class SerialPool:
            """Records the pool's size and maps in this process."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        for workers, items in ((64, "ab"), (2, "abcdefghij"), (3, "abcd"),
                               (8, "a"), (8, "")):
            assert cli._map(str.upper, list(items), workers) == list(
                items.upper())
        assert pools == [2, 2, 3]
        assert cli.main(["--workers", "64", "preprocess",
                         "--meta", str(pipeline_dir / "subjects.jsonl"),
                         "--out", str(tmp_path)]) == 0
        assert pools[3:] == [6]


class TestEpilogue:
    def test_each_stage_prints_one_summary_and_appends_one_record(
            self, tmp_path, capsys):
        out = tmp_path
        cfg = out / "config.yaml"
        cfg.write_text("train:\n  max_epochs: 1\n")
        features, split = str(out / "features"), out / "split.json"
        model = ["--model", str(out / "model.npz"), "--norm", str(out / "norm.npz")]
        manifest = out / "run_manifest.jsonl"
        for step in (
                ["synth", "--out", str(out), "--subjects", "4", "--epochs", "20"],
                ["preprocess", "--meta", str(out / "subjects.jsonl"),
                 "--out", str(out)],
                ["extract", "--preprocessed", str(out / "preprocessed"),
                 "--out", str(out)],
                ["cohort", "--meta", str(out / "subjects.jsonl"), "--out", str(out)],
                ["split", "--ids", str(out / "cohort_ids.json"), "--out", str(out)],
                ["train", "--features", features, "--split", str(split),
                 "--out", str(out)],
                ["evaluate", "--features", features, "--split", str(split),
                 *model, "--out", str(out)],
                ["predict", "--features", features, *model, "--out", str(out)],
                ["importance", "--features", features, "--split", str(split),
                 *model, "--repeats", "1", "--out", str(out)]):
            before = manifest.read_text() if manifest.exists() else ""
            assert cli.main(["--config", str(cfg)] + step) == 0, step[0]
            printed = capsys.readouterr().out.splitlines()
            assert len(printed) == 1 and printed[0].startswith(f"{step[0]}: ")
            after = manifest.read_text()
            assert after.startswith(before)
            added = [json.loads(line) for line in after[len(before):].splitlines()]
            assert [rec["stage"] for rec in added] == [step[0]]
            # the stage's own seconds and the process's peak memory so far,
            # beside the keys every line carries
            assert set(added[0]) == {"stage", "inputs", "config_hash", "version",
                                     "wall_s", "peak_rss_mb"}
            assert type(added[0]["wall_s"]) is float
            assert math.isfinite(added[0]["wall_s"]) and added[0]["wall_s"] >= 0
        split.write_text(json.dumps({"train": [], "val": []}))
        before = manifest.read_text()
        assert cli.main(["--config", str(cfg), "evaluate", "--features", features,
                         "--split", str(split), *model, "--out", str(out)]) == 3
        assert capsys.readouterr().out == ""
        assert manifest.read_text() == before


class TestSynthExperimentScript:
    @pytest.mark.parametrize("flags, given", [
        pytest.param([], (None, None), id="config-values"),
        pytest.param(["--seed", "3", "--workers", "2"], (3, 2), id="flags")])
    def test_seed_and_workers_default_to_the_config(self, tmp_path, monkeypatch,
                                                    flags, given):
        spec = importlib.util.spec_from_file_location(
            "run_synth_experiment", REPO / "scripts" / "run_synth_experiment.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        calls = []

        def spy(argv):
            calls.append(argv)
            return 1
        monkeypatch.setattr(cli, "main", spy)
        cfg = tmp_path / "config.yaml"
        cfg.write_text("seed: 7\nworkers: 1\n")
        assert script.main(["--out", str(tmp_path / "exp"), "--config", str(cfg),
                            *flags]) == 1
        [argv] = calls
        args = cli.build_parser().parse_args(argv)
        assert (args.command, args.config) == ("synth", str(cfg))
        assert (args.seed, args.workers) == given


class TestTwoChannelProfile:
    def test_abdomen_belt_runs_through_every_stage(self, tmp_path):
        out = tmp_path
        cfg = out / "config.yaml"
        cfg.write_text("train:\n  max_epochs: 2\n")
        base = ["--config", str(cfg), "--profile", "two-channel"]
        features, split = str(out / "features"), str(out / "split.json")
        for step in (
                ["synth", "--out", str(out), "--subjects", "4", "--epochs", "40"],
                ["preprocess", "--meta", str(out / "subjects.jsonl"),
                 "--out", str(out)],
                ["extract", "--preprocessed", str(out / "preprocessed"),
                 "--out", str(out)],
                ["cohort", "--meta", str(out / "subjects.jsonl"), "--out", str(out)],
                ["split", "--ids", str(out / "cohort_ids.json"), "--out", str(out)],
                ["train", "--features", features, "--split", split,
                 "--out", str(out)],
                ["evaluate", "--features", features, "--split", split,
                 "--model", str(out / "model.npz"), "--norm", str(out / "norm.npz"),
                 "--out", str(out)]):
            assert cli.main(base + step) == 0, step[0]
        names = registry.build_manifest("two-channel").names
        csvs = sorted((out / "features").glob("*.csv"))
        assert len(csvs) == 4
        for path in csvs:
            header = path.read_text().splitlines()[0].split(",")
            assert header == names + ["stage"]
            assert sum(n.startswith("br_abd_") for n in header) == 25


    def test_single_profile_archives_refused_by_two_channel_extract(
            self, tmp_path, capsys):
        out = tmp_path
        for step in (
                ["synth", "--out", str(out), "--subjects", "2", "--epochs", "40"],
                ["preprocess", "--meta", str(out / "subjects.jsonl"),
                 "--out", str(out)]):
            assert cli.main(step) == 0, step[0]
        archives = sorted((out / "preprocessed").glob("*.npz"))
        assert len(archives) == 2
        for path in archives:
            with np.load(path) as d:
                assert "chest" in d.files and "abd" not in d.files
        code = cli.main(["--profile", "two-channel", "extract", "--preprocessed",
                         str(out / "preprocessed"), "--out", str(out)])
        assert code == 3
        assert "breath_abdomen" in capsys.readouterr().err


def _cut_l0f_w(payload):
    """A model whose first layer's input weights lost columns."""
    payload["l0f_W"] = payload["l0f_W"][:, :100]


def _meta_hidden_8(payload):
    """A model whose metadata says 8 units over 16-unit weights."""
    meta = json.loads(str(payload["__meta"]))
    meta["hidden"] = 8
    payload["__meta"] = json.dumps(meta, sort_keys=True)


def _cut_mean(payload):
    """Normalization statistics with 100 means for 152 features."""
    payload["mean"] = payload["mean"][:100]


def _meta_not_an_object(payload):
    """A model whose metadata is a JSON list."""
    payload["__meta"] = "[1]"


def _set(name, value):
    """An archive whose member ``name`` holds ``value``."""
    def damage(payload):
        payload[name] = np.array(value)
    return damage


def _meta_version_2(payload):
    """A model whose metadata gives checkpoint version 2."""
    meta = json.loads(str(payload["__meta"]))
    meta["version"] = 2
    payload["__meta"] = json.dumps(meta)


def _copy_features(src, dest):
    """``dest``, a copy of the feature directory ``src``."""
    dest.mkdir()
    for csv in src.glob("*.csv"):
        (dest / csv.name).write_text(csv.read_text())
    return dest


def _drop(name):
    """An archive without the member ``name``."""
    return lambda payload: payload.pop(name)


def _drop_meta_key(key):
    """A model whose metadata lacks ``key``."""
    def damage(payload):
        meta = json.loads(str(payload["__meta"]))
        del meta[key]
        payload["__meta"] = json.dumps(meta)
    return damage


_RR_MEMBERS = ("members 'rr_peak_times', 'rr_intervals' and 'rr_valid' are "
               "not an RR series")


class TestExitCodes:
    def test_config_error_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        for text in ("workers: 0\n", "train:\n  max_epochs: 0\n",
                     "workers: two\n", "seed: abc\n",
                     "train:\n  max_epochs: 2.5\n", "seed: -1\n",
                     "- a\n- b\n", "profile: triple\n"):
            bad.write_text(text)
            code = cli.main(["--config", str(bad), "synth",
                             "--out", str(tmp_path), "--subjects", "2"])
            assert code == 2, text
        assert cli.main(["--config", str(tmp_path / "missing.yaml"), "synth",
                         "--out", str(tmp_path), "--subjects", "2"]) == 2
        bad.write_bytes(b"#" * 5000 + b"\nseed: 1\n\xff\n")
        capsys.readouterr()
        assert cli.main(["--config", str(bad), "synth",
                         "--out", str(tmp_path), "--subjects", "2"]) == 2
        assert f"{bad}: 'utf-8' codec can't decode byte 0xff in position 5009" in (
            capsys.readouterr().err)

    def test_unknown_config_key_is_two(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        for text in ("not_a_key: 1\n", "ahi_max: 10\n", "epoch_len_s: 20\n",
                     "deep_min_frac: 0.1\n", "regular_sleep_denominator: sleep\n",
                     "split_ratio: 0.5\n", "train:\n  clip_norm: 1.0\n",
                     "train:\n  class_weights: [1, 1, 1, 1]\n",
                     "train:\n  seed: 3\n"):
            bad.write_text(text)
            assert cli.main(["--config", str(bad), "synth",
                             "--out", str(tmp_path)]) == 2, text

    def test_missing_input_file_is_three(self, tmp_path):
        assert cli.main(["preprocess", "--meta", str(tmp_path / "nope.jsonl"),
                         "--out", str(tmp_path)]) == 3

    def test_missing_channel_is_three(self, tmp_path):
        t = np.arange(25 * 60) / 25.0
        trace = SignalTrace("THOR RES", 25.0, np.sin(2 * np.pi * 0.25 * t))
        (tmp_path / "solo.edf").write_bytes(signal_io.write_edf([trace]))
        meta = {"subject_id": "solo", "ahi": 1.0, "edf": "solo.edf"}
        (tmp_path / "meta.jsonl").write_text(json.dumps(meta) + "\n")
        assert cli.main(["preprocess", "--meta", str(tmp_path / "meta.jsonl"),
                         "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("edf", [{}, {"edf": None}], ids=["absent", "null"])
    def test_metadata_without_edf_is_three_for_preprocess(self, tmp_path,
                                                          capsys, edf):
        meta = {"subject_id": "noedf", "ahi": 1.0, **edf}
        (tmp_path / "meta.jsonl").write_text(json.dumps(meta) + "\n")
        assert cli.main(["preprocess", "--meta", str(tmp_path / "meta.jsonl"),
                         "--out", str(tmp_path)]) == 3
        assert "noedf: no edf path" in capsys.readouterr().err

    def test_low_rate_ecg_is_three(self, tmp_path):
        t = np.arange(50 * 60) / 50.0
        ecg = SignalTrace("ECG", 50.0, (np.sin(2 * np.pi * t) > 0.99) * 1.0)
        chest = SignalTrace("THOR RES", 25.0, np.sin(2 * np.pi * 0.25 * t[::2]))
        (tmp_path / "slow.edf").write_bytes(signal_io.write_edf([ecg, chest]))
        meta = {"subject_id": "slow", "ahi": 1.0, "edf": "slow.edf"}
        (tmp_path / "meta.jsonl").write_text(json.dumps(meta) + "\n")
        assert cli.main(["preprocess", "--meta", str(tmp_path / "meta.jsonl"),
                         "--out", str(tmp_path)]) == 3

    def test_corrupt_edf_is_three(self, tmp_path, capsys):
        (tmp_path / "bad.edf").write_bytes(b"garbage")
        meta = {"subject_id": "bad", "ahi": 1.0, "edf": "bad.edf"}
        (tmp_path / "meta.jsonl").write_text(json.dumps(meta) + "\n")
        assert cli.main(["preprocess", "--meta", str(tmp_path / "meta.jsonl"),
                         "--out", str(tmp_path)]) == 3
        assert f"{tmp_path / 'bad.edf'}: file of 7 bytes" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["preprocess", "cohort"])
    def test_unknown_hypnogram_token_names_the_file(self, pipeline_dir, tmp_path,
                                                    capsys, command):
        rec = signal_io.read_subject_metadata(
            (pipeline_dir / "subjects.jsonl").read_text())[0]
        hyp = tmp_path / "bad.hyp"
        lines = (pipeline_dir / rec["hypnogram"]).read_text().splitlines()
        hyp.write_text("\n".join(lines[:2] + ["X"] + lines[3:]) + "\n")
        rec.update(edf=str(pipeline_dir / rec["edf"]), hypnogram="bad.hyp")
        meta = tmp_path / "subjects.jsonl"
        meta.write_text(json.dumps(rec) + "\n")
        assert cli.main([command, "--meta", str(meta),
                         "--out", str(tmp_path / "out")]) == 3
        assert f"{hyp}: line 3: unknown stage token 'X'" in capsys.readouterr().err

    def test_corrupt_preprocessed_file_is_three(self, tmp_path, capsys):
        pre = tmp_path / "preprocessed"
        pre.mkdir()
        (pre / "bad.npz").write_bytes(b"garbage")
        assert cli.main(["extract", "--preprocessed", str(pre),
                         "--out", str(tmp_path)]) == 3
        assert "bad.npz" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt, damage", [
        pytest.param("model.npz", None, id="model.npz"),
        pytest.param("norm.npz", None, id="norm.npz"),
        pytest.param("model.npz", _cut_l0f_w, id="model.npz-l0f_W-cut"),
        pytest.param("model.npz", _meta_hidden_8, id="model.npz-hidden-8"),
        pytest.param("norm.npz", _cut_mean, id="norm.npz-mean-cut"),
        pytest.param("model.npz", _drop("__meta"), id="model.npz-no-__meta"),
        pytest.param("model.npz", _meta_not_an_object,
                     id="model.npz-__meta-not-an-object"),
        pytest.param("model.npz", _drop_meta_key("hidden"),
                     id="model.npz-__meta-no-hidden"),
        pytest.param("model.npz", _drop_meta_key("manifest_hash"),
                     id="model.npz-__meta-no-manifest_hash"),
        pytest.param("norm.npz", _drop("manifest_hash"),
                     id="norm.npz-no-manifest_hash"),
        pytest.param("norm.npz", _drop("sd"), id="norm.npz-no-sd"),
        pytest.param("norm.npz", _set("manifest_hash", "0" * 64),
                     id="norm.npz-other-manifest"),
        pytest.param("model.npz", _meta_version_2, id="model.npz-version-2"),
        pytest.param("model.npz", _drop_meta_key("version"),
                     id="model.npz-__meta-no-version")])
    def test_corrupt_model_or_norm_is_three(self, pipeline_dir, tmp_path,
                                            capsys, corrupt, damage):
        out = pipeline_dir
        files = {name: out / name for name in ("model.npz", "norm.npz")}
        files[corrupt] = tmp_path / corrupt
        if damage is None:
            files[corrupt].write_bytes(b"garbage")  # 7 bytes, not a zip archive
        else:
            with np.load(out / corrupt, allow_pickle=False) as d:
                payload = {k: d[k] for k in d.files}
            damage(payload)
            np.savez(files[corrupt], **payload)
        code = cli.main(["--config", str(out / "config.yaml"), "predict",
                         "--features", str(out / "features"),
                         "--model", str(files["model.npz"]),
                         "--norm", str(files["norm.npz"]),
                         "--out", str(tmp_path)])
        assert code == 3
        assert str(files[corrupt]) in capsys.readouterr().err

    def test_non_numeric_feature_cell_is_three(self, pipeline_dir, tmp_path,
                                               capsys):
        out = pipeline_dir
        features = _copy_features(out / "features", tmp_path / "features")
        sid = json.loads((out / "split.json").read_text())["train"][0]
        lines = (features / f"{sid}.csv").read_text().splitlines()
        lines[3] = ",".join(["abc"] + lines[3].split(",")[1:])
        (features / f"{sid}.csv").write_text("\n".join(lines) + "\n")
        code = cli.main(["--config", str(out / "config.yaml"), "train",
                         "--features", str(features),
                         "--split", str(out / "split.json"),
                         "--out", str(tmp_path)])
        assert code == 3
        assert f"{sid}.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", [
        pytest.param(lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0]]
                     + lines[4:], id="row-without-stage-field"),
        pytest.param(lambda lines: lines[:1], id="no-rows")])
    def test_malformed_feature_csv_is_three(self, pipeline_dir, tmp_path,
                                            capsys, damage):
        out = pipeline_dir
        features = _copy_features(out / "features", tmp_path / "features")
        csv = sorted(features.glob("*.csv"))[0]
        csv.write_text("\n".join(damage(csv.read_text().splitlines())) + "\n")
        code = cli.main(["--config", str(out / "config.yaml"), "predict",
                         "--features", str(features),
                         "--model", str(out / "model.npz"),
                         "--norm", str(out / "norm.npz"),
                         "--out", str(tmp_path / "out")])
        assert code == 3
        assert str(csv) in capsys.readouterr().err

    def test_split_naming_a_missing_feature_csv_is_three(
            self, pipeline_dir, tmp_path, capsys):
        out = pipeline_dir
        split = json.loads((out / "split.json").read_text())
        split["train"].append("absent")
        (tmp_path / "split.json").write_text(json.dumps(split))
        code = cli.main(["--config", str(out / "config.yaml"), "train",
                         "--features", str(out / "features"),
                         "--split", str(tmp_path / "split.json"),
                         "--out", str(tmp_path / "out")])
        assert code == 3
        assert str(out / "features" / "absent.csv") in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["preprocess", "cohort"])
    def test_repeated_metadata_subject_is_three(self, pipeline_dir, tmp_path,
                                               capsys, command):
        lines = (pipeline_dir / "subjects.jsonl").read_text().splitlines()
        sid = json.loads(lines[0])["subject_id"]
        meta = tmp_path / "subjects.jsonl"
        meta.write_text("\n".join(lines[:2] + lines[:1]) + "\n")
        assert cli.main([command, "--meta", str(meta),
                         "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert f"{meta}: line 3: subject_id {sid!r} repeats line 1" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, option, lists, sid", [
        ("split", "--ids", ["a", "b", "a"], "a"),
        ("predict", "--ids", ["a", "a"], "a"),
        ("train", "--split", {"train": ["a", "b", "a"], "val": ["c"]}, "a"),
        ("train", "--split", {"train": ["a", "b"], "val": ["c", "c"]}, "c"),
        ("train", "--split", {"train": ["a", "b"], "val": ["c", "b"]}, "b"),
        ("evaluate", "--split", {"train": ["a"], "val": ["a"]}, "a")])
    def test_repeated_split_or_ids_subject_is_three(
            self, pipeline_dir, tmp_path, capsys, command, option, lists, sid):
        out = pipeline_dir
        path = tmp_path / "given.json"
        path.write_text(json.dumps(lists))
        args = {"split": [],
                "train": ["--features", str(out / "features")]}.get(command, [
            "--features", str(out / "features"),
            "--model", str(out / "model.npz"), "--norm", str(out / "norm.npz")])
        code = cli.main(["--config", str(out / "config.yaml"), command, option,
                         str(path), *args, "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert str(path) in err
        assert f"subject {sid!r} is listed more than once" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("counts", [
        ["--subjects", "-1"], ["--subjects", "0"], ["--epochs", "5"],
        ["--epochs", "19"]])
    def test_bad_synth_count_is_two(self, tmp_path, capsys, counts):
        assert cli.main(["synth", "--out", str(tmp_path / "out"),
                         "--subjects", "1", *counts]) == 2
        assert counts[0] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command",
                             ["train", "evaluate", "predict", "importance"])
    def test_unknown_stage_token_is_three(self, pipeline_dir, tmp_path, capsys,
                                          command):
        out = pipeline_dir
        features = _copy_features(out / "features", tmp_path / "features")
        sid = json.loads((out / "split.json").read_text())["val"][0]
        lines = (features / f"{sid}.csv").read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ",W"
        (features / f"{sid}.csv").write_text("\n".join(lines) + "\n")
        args = ["--split", str(out / "split.json")] if command != "predict" else []
        if command != "train":
            args += ["--model", str(out / "model.npz"),
                     "--norm", str(out / "norm.npz")]
        code = cli.main(["--config", str(out / "config.yaml"), command,
                         "--features", str(features), *args,
                         "--out", str(tmp_path / "out")])
        assert code == 3
        assert f"{sid}.csv: line 4: unknown stage token 'W'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, kind", [
        ("preprocess", "meta"), ("cohort", "meta"),
        ("preprocess", "hypnogram"), ("cohort", "hypnogram"),
        ("split", "ids"), ("predict", "ids"),
        ("train", "split"), ("evaluate", "split"), ("importance", "split"),
        ("evaluate", "csv-with-copy"), ("evaluate", "csv-alone")])
    def test_text_that_is_not_utf8_names_the_file_and_byte(
            self, pipeline_dir, tmp_path, capsys, command, kind):
        out = pipeline_dir
        rec = json.loads((out / "subjects.jsonl").read_text().splitlines()[0])
        rec.update(edf=str(out / rec["edf"]), hypnogram=str(out / rec["hypnogram"]))
        files = {"--meta": tmp_path / "subjects.jsonl",
                 "--ids": tmp_path / "ids.json", "--split": tmp_path / "split.json",
                 "--features": tmp_path / "features",
                 "--model": out / "model.npz", "--norm": out / "norm.npz"}
        files["--ids"].write_bytes((out / "cohort_ids.json").read_bytes())
        files["--split"].write_bytes((out / "split.json").read_bytes())
        shutil.copytree(out / "features", files["--features"])
        sid = json.loads(files["--split"].read_text())["val"][0]
        bad = {"meta": files["--meta"], "hypnogram": tmp_path / "h.hyp",
               "ids": files["--ids"], "split": files["--split"]}.get(
            kind, files["--features"] / f"{sid}.csv")
        if kind == "hypnogram":
            bad.write_bytes(Path(rec["hypnogram"]).read_bytes())
            rec["hypnogram"] = str(bad)
        files["--meta"].write_text(json.dumps(rec) + "\n")
        if kind == "csv-alone":
            signal_io._copy_path(bad).unlink()
        data = bytearray(bad.read_bytes())
        data[len(data) // 2] = 0xff
        bad.write_bytes(bytes(data))
        flags = {"preprocess": ["--meta"], "cohort": ["--meta"], "split": ["--ids"],
                 "train": ["--features", "--split"],
                 "predict": ["--features", "--model", "--norm", "--ids"]}.get(
            command, ["--features", "--split", "--model", "--norm"])
        code = cli.main(["--config", str(out / "config.yaml"), command,
                         *(a for f in flags for a in (f, str(files[f]))),
                         "--out", str(tmp_path / "out")])
        assert code == 3
        assert (f"{bad}: byte {len(data) // 2} is not UTF-8"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("member", ["rr_valid", "chest_rate"])
    def test_preprocessed_file_without_a_member_is_three(
            self, pipeline_dir, tmp_path, capsys, member):
        src = sorted((pipeline_dir / "preprocessed").glob("*.npz"))[0]
        with np.load(src, allow_pickle=False) as d:
            payload = {k: d[k] for k in d.files if k != member}
        pre = tmp_path / "preprocessed"
        pre.mkdir()
        np.savez(pre / src.name, **payload)
        assert cli.main(["extract", "--preprocessed", str(pre),
                         "--out", str(tmp_path)]) == 3
        assert f"{src.name}: no member '{member}'" in capsys.readouterr().err

    def test_short_hypnogram_is_three(self, pipeline_dir, tmp_path):
        src = sorted((pipeline_dir / "preprocessed").glob("*.npz"))[0]
        with np.load(src, allow_pickle=False) as d:
            payload = {k: d[k] for k in d.files}
        payload["stages"] = payload["stages"][:5]
        pre = tmp_path / "preprocessed"
        pre.mkdir()
        np.savez(pre / src.name, **payload)
        assert cli.main(["extract", "--preprocessed", str(pre),
                         "--out", str(tmp_path)]) == 3
        assert not list((tmp_path / "features").glob("*.csv"))

    def test_labels_that_do_not_fit_the_rows_are_three(
            self, pipeline_dir, tmp_path, capsys, monkeypatch):
        # the writer used to zip rows with labels and drop the extra rows
        def five_rows_three_labels(processed, manifest):
            vals = np.zeros((5, len(manifest)))
            return registry.FeatureMatrix(
                manifest, vals, vals != 0,
                Hypnogram((FourStage.WAKE,) * 3, "four"), processed.subject_id)

        monkeypatch.setattr(registry, "assemble_feature_matrix",
                            five_rows_three_labels)
        src = sorted((pipeline_dir / "preprocessed").glob("*.npz"))[0]
        pre = tmp_path / "preprocessed"
        pre.mkdir()
        (pre / src.name).write_bytes(src.read_bytes())
        assert cli.main(["extract", "--preprocessed", str(pre),
                         "--out", str(tmp_path)]) == 3
        assert f"{src.stem}: 3 labels for 5 rows" in capsys.readouterr().err
        assert not list((tmp_path / "features").glob("*.csv"))

    def test_unknown_stage_in_a_preprocessed_archive_names_it(
            self, pipeline_dir, tmp_path, capsys):
        src = sorted((pipeline_dir / "preprocessed").glob("*.npz"))[0]
        with np.load(src, allow_pickle=False) as d:
            payload = {k: d[k] for k in d.files}
        payload["stages"][2] = "X"
        pre = tmp_path / "preprocessed"
        pre.mkdir()
        np.savez(pre / src.name, **payload)
        assert cli.main(["extract", "--preprocessed", str(pre),
                         "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert f"{pre / src.name}: line 3: unknown stage token 'X'" in err

    @pytest.mark.parametrize("member, value", [
        ("chest_rate", np.array([25.0, 25.0])), ("chest_rate", np.array([25.0])),
        ("chest_rate", np.array(25 + 1j)), ("chest_rate", np.array(np.nan)),
        ("chest_rate", np.array(0.0)), ("chest_rate", np.array(-25.0)),
        ("chest_rate", np.array(1e-300))])
    def test_rate_that_is_not_a_sample_rate_is_three(
            self, pipeline_dir, tmp_path, capsys, member, value):
        src = sorted((pipeline_dir / "preprocessed").glob("*.npz"))[0]
        with np.load(src, allow_pickle=False) as d:
            payload = {k: d[k] for k in d.files}
        payload[member] = value
        pre = tmp_path / "preprocessed"
        pre.mkdir()
        np.savez(pre / src.name, **payload)
        assert cli.main(["extract", "--preprocessed", str(pre),
                         "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert f"{pre / src.name}: member {member!r} is not a sample rate" in err

    @pytest.mark.parametrize("member, change, message", [
        ("chest_rate", lambda rate: np.array(1e300),
         "recording of 0.0 s is shorter than one epoch"),
        ("rr_peak_times", lambda times: times[::-1],
         f"{_RR_MEMBERS} (peak times must be strictly increasing)"),
        ("rr_peak_times", lambda times: np.append(times[:-1], np.nan),
         f"{_RR_MEMBERS} (peak times must be finite)"),
        ("rr_intervals", lambda rr: np.where(np.arange(len(rr)) == 5, np.nan, rr),
         f"{_RR_MEMBERS} (intervals must be finite)"),
        ("rr_intervals", lambda rr: rr + 1j,
         f"{_RR_MEMBERS} (intervals must be a 1-D array of real numbers)"),
        ("rr_valid", lambda valid: valid.astype(float),
         f"{_RR_MEMBERS} (valid_mask must be a 1-D boolean array)"),
        ("chest", lambda x: np.where(np.arange(len(x)) == 100, np.inf, x),
         "member 'chest' is not a trace (samples must be finite)"),
        ("chest", lambda x: x.reshape(-1, 1),
         "member 'chest' is not a trace (samples must be a 1-D array of "
         "real numbers)")],
        ids=["rate-1e300", "reversed-peak-times", "nan-last-peak-time",
             "nan-interval", "complex-intervals", "float-rr-valid",
             "inf-chest-sample", "2d-chest"])
    def test_member_that_fails_extraction_names_the_archive(
            self, pipeline_dir, tmp_path, capsys, member, change, message):
        src = sorted((pipeline_dir / "preprocessed").glob("*.npz"))[0]
        with np.load(src, allow_pickle=False) as d:
            payload = {k: d[k] for k in d.files}
        payload[member] = change(payload[member])
        pre = tmp_path / "preprocessed"
        pre.mkdir()
        np.savez(pre / src.name, **payload)
        assert cli.main(["extract", "--preprocessed", str(pre),
                         "--out", str(tmp_path)]) == 3
        assert f"{pre / src.name}: {message}" in capsys.readouterr().err

    def test_missing_archive_names_it(self, pipeline_dir, tmp_path, capsys):
        out = pipeline_dir
        code = cli.main(["--config", str(out / "config.yaml"), "predict",
                         "--features", str(out / "features"),
                         "--model", str(out / "model.npz"),
                         "--norm", str(tmp_path / "nope.npz"),
                         "--out", str(tmp_path / "out")])
        assert code == 3
        assert (f"data error: [Errno 2] No such file or directory: "
                f"'{tmp_path / 'nope.npz'}'") in capsys.readouterr().err

    @pytest.mark.parametrize("label, flat_first", [
        ("ECG", False), ("ECG", True), ("THOR RES", False), ("ABDO RES", True)])
    def test_label_on_two_signals_is_three(self, pipeline_dir, tmp_path, capsys,
                                           label, flat_first):
        # a flat copy of the signal, before or after the real one
        rec = signal_io.read_subject_metadata(
            (pipeline_dir / "subjects.jsonl").read_text())[0]
        traces = signal_io.read_edf((pipeline_dir / rec["edf"]).read_bytes())
        i = [t.channel_label for t in traces].index(label)
        flat = traces[i].with_samples(np.zeros(len(traces[i].samples)))
        traces[i + (not flat_first):i + (not flat_first)] = [flat]
        edf = tmp_path / "twice.edf"
        edf.write_bytes(signal_io.write_edf(traces))
        rec.update(edf=str(edf), hypnogram=str(pipeline_dir / rec["hypnogram"]))
        meta = tmp_path / "subjects.jsonl"
        meta.write_text(json.dumps(rec) + "\n")
        assert cli.main(["preprocess", "--meta", str(meta),
                         "--out", str(tmp_path / "out")]) == 3
        assert (f"{edf}: label {label!r} is on 2 signals"
                in capsys.readouterr().err)
        assert not list(tmp_path.rglob("*.npz"))

    def test_evaluate_without_labels_is_three(self, pipeline_dir, tmp_path):
        out = pipeline_dir
        unlabeled = tmp_path / "features"
        unlabeled.mkdir()
        sid = json.loads((out / "split.json").read_text())["val"][0]
        src = (out / "features" / f"{sid}.csv").read_text().splitlines()
        stripped = [src[0]] + [",".join(l.split(",")[:-1] + ["?"])
                               for l in src[1:]]
        (unlabeled / f"{sid}.csv").write_text("\n".join(stripped) + "\n")
        split = tmp_path / "split.json"
        split.write_text(json.dumps({"train": [], "val": [sid]}))
        code = cli.main(["--config", str(out / "config.yaml"), "evaluate",
                         "--features", str(unlabeled), "--split", str(split),
                         "--model", str(out / "model.npz"),
                         "--norm", str(out / "norm.npz"),
                         "--out", str(tmp_path)])
        assert code == 3

    @pytest.mark.parametrize("fields", [
        {"ahi": "2.5"}, {"edf": 5}, {"subject_id": ["x"]},
        {"subject_id": "../escaped"}])
    def test_mistyped_metadata_is_three(self, pipeline_dir, tmp_path, capsys,
                                        fields):
        rec = signal_io.read_subject_metadata(
            (pipeline_dir / "subjects.jsonl").read_text())[0]
        rec.update({key: str(pipeline_dir / rec[key])
                    for key in ("edf", "hypnogram")})
        rec.update(fields)
        meta = tmp_path / "meta" / "subjects.jsonl"
        meta.parent.mkdir()
        meta.write_text(json.dumps(rec) + "\n")
        for stage in ("preprocess", "cohort"):
            assert cli.main([stage, "--meta", str(meta),
                             "--out", str(tmp_path / "out")]) == 3, stage
            assert "line 1" in capsys.readouterr().err
        assert not [p for p in tmp_path.rglob("*") if p.is_file()
                    and p != meta]

    @pytest.mark.parametrize("command, option, text", [
        ("split", "--ids", '{"a": 1, "b": 2}'),
        ("split", "--ids", '["a", 2]'),
        ("split", "--ids", "not json"),
        ("predict", "--ids", '{"a": 1}'),
        ("train", "--split", '["a", "b"]'),
        ("train", "--split", '{"train": ["a"]}'),
        ("train", "--split", '{"train": "ab", "val": []}'),
        ("evaluate", "--split", '{"train": [], "val": [1]}'),
        ("importance", "--split", '["a"]'),
        pytest.param("split", "--ids", "[" + "1" * 5000 + "]",
                     id="split---ids-a-number-too-long-to-convert")])
    def test_misshapen_split_or_ids_file_is_three(self, pipeline_dir, tmp_path,
                                                  capsys, command, option, text):
        out = pipeline_dir
        path = tmp_path / "given.json"
        path.write_text(text)
        args = {"split": [],
                "train": ["--features", str(out / "features")]}.get(command, [
            "--features", str(out / "features"),
            "--model", str(out / "model.npz"), "--norm", str(out / "norm.npz")])
        code = cli.main(["--config", str(out / "config.yaml"), command, option,
                         str(path), *args, "--out", str(tmp_path / "out")])
        assert code == 3
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sid", ["../x", "a/b", "", "a\0b"])
    @pytest.mark.parametrize("command, option, lists", [
        ("split", "--ids", lambda sid: ["a", sid]),
        ("predict", "--ids", lambda sid: [sid]),
        ("train", "--split", lambda sid: {"train": ["a", sid], "val": []})])
    def test_subject_id_that_is_not_a_plain_file_name_is_three(
            self, pipeline_dir, tmp_path, capsys, command, option, lists, sid):
        out = pipeline_dir
        path = tmp_path / "given.json"
        path.write_text(json.dumps(lists(sid)))
        args = {"split": [],
                "train": ["--features", str(out / "features")]}.get(command, [
            "--features", str(out / "features"),
            "--model", str(out / "model.npz"), "--norm", str(out / "norm.npz")])
        code = cli.main(["--config", str(out / "config.yaml"), command, option,
                         str(path), *args, "--out", str(tmp_path / "out")])
        assert code == 3
        assert (f"{path}: subject id {sid!r} is not a plain file name"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, option, make", [
        pytest.param("preprocess", "--meta", lambda p: p.write_text("\n"),
                     id="preprocess-metadata-without-subjects"),
        pytest.param("cohort", "--meta", lambda p: p.write_text("\n"),
                     id="cohort-metadata-without-subjects"),
        pytest.param("predict", "--features", lambda p: None,
                     id="predict-missing-features-dir"),
        pytest.param("predict", "--features", lambda p: p.mkdir(),
                     id="predict-features-dir-without-csv"),
        pytest.param("predict", "--ids", lambda p: p.write_text("[]"),
                     id="predict-empty-ids"),
        pytest.param("extract", "--preprocessed", lambda p: p.mkdir(),
                     id="extract-dir-without-npz"),
        pytest.param("train", "--split",
                     lambda p: p.write_text('{"train": [], "val": ["a"]}'),
                     id="train-empty-train-list"),
        pytest.param("evaluate", "--split",
                     lambda p: p.write_text('{"train": ["a"], "val": []}'),
                     id="evaluate-empty-val-list"),
        pytest.param("importance", "--split",
                     lambda p: p.write_text('{"train": ["a"], "val": []}'),
                     id="importance-empty-val-list")])
    def test_no_subjects_is_three(self, pipeline_dir, tmp_path, capsys,
                                  command, option, make):
        out = pipeline_dir
        path = tmp_path / "given"
        make(path)
        args = {}
        if command in ("train", "predict", "evaluate", "importance"):
            args["--features"] = str(out / "features")
        if command in ("predict", "evaluate", "importance"):
            args.update({"--model": str(out / "model.npz"),
                         "--norm": str(out / "norm.npz")})
        args[option] = str(path)
        code = cli.main(["--config", str(out / "config.yaml"), command,
                         *[x for item in args.items() for x in item],
                         "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert str(path) in err
        if option == "--split":
            empty = "train" if command == "train" else "val"
            assert f"no subjects in the {empty!r} list" in err
        assert not (tmp_path / "out").exists()

    def test_non_finite_inputs_are_four(self, pipeline_dir, tmp_path):
        out = pipeline_dir
        with np.load(out / "norm.npz", allow_pickle=False) as d:
            broken = {k: np.array(d[k]) for k in d.files}
        broken["mean"] = np.full_like(broken["mean"], np.nan)
        np.savez(tmp_path / "norm.npz", **broken)
        code = cli.main(["--config", str(out / "config.yaml"), "predict",
                         "--features", str(out / "features"),
                         "--model", str(out / "model.npz"),
                         "--norm", str(tmp_path / "norm.npz"),
                         "--out", str(tmp_path)])
        assert code == 4

    def test_key_error_inside_a_stage_is_not_a_data_error(self, tmp_path,
                                                         monkeypatch):
        # missing archive members raise MissingMember; a bare KeyError is a
        # fault of the program and must surface with its traceback
        def faulty(args, cfg):
            raise KeyError("not data")
        monkeypatch.setattr(cli, "cmd_split", faulty)
        with pytest.raises(KeyError):
            cli.main(["split", "--ids", str(tmp_path / "ids.json"),
                      "--out", str(tmp_path)])

    def test_importance_repeat_validation_is_two(self, pipeline_dir, tmp_path):
        out = pipeline_dir
        code = cli.main(["importance", "--features", str(out / "features"),
                         "--split", str(out / "split.json"),
                         "--model", str(out / "model.npz"),
                         "--norm", str(out / "norm.npz"),
                         "--repeats", "0", "--out", str(tmp_path)])
        assert code == 2
