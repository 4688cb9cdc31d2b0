"""End-to-end command-line pipeline on a miniature synthetic dataset."""
import json
from pathlib import Path

import numpy as np
import pytest

from cardiosleep import blstm, cli, registry, signal_io
from cardiosleep.types import SignalTrace

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
            features[workers] = {p.name: p.read_bytes()
                                 for p in (out / "features").glob("*.csv")}
        assert len(hashes[1]) == 1
        assert hashes[1] == hashes[2]
        assert len(features[1]) == 2
        assert features[1] == features[2]


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


class TestExitCodes:
    def test_config_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        for text in ("workers: 0\n", "train:\n  max_epochs: 0\n",
                     "workers: two\n", "seed: abc\n",
                     "train:\n  max_epochs: 2.5\n", "seed: -1\n"):
            bad.write_text(text)
            code = cli.main(["--config", str(bad), "synth",
                             "--out", str(tmp_path), "--subjects", "2"])
            assert code == 2, text

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

    def test_low_rate_ecg_is_three(self, tmp_path):
        t = np.arange(50 * 60) / 50.0
        ecg = SignalTrace("ECG", 50.0, (np.sin(2 * np.pi * t) > 0.99) * 1.0)
        chest = SignalTrace("THOR RES", 25.0, np.sin(2 * np.pi * 0.25 * t[::2]))
        (tmp_path / "slow.edf").write_bytes(signal_io.write_edf([ecg, chest]))
        meta = {"subject_id": "slow", "ahi": 1.0, "edf": "slow.edf"}
        (tmp_path / "meta.jsonl").write_text(json.dumps(meta) + "\n")
        assert cli.main(["preprocess", "--meta", str(tmp_path / "meta.jsonl"),
                         "--out", str(tmp_path)]) == 3

    def test_corrupt_edf_is_three(self, tmp_path):
        (tmp_path / "bad.edf").write_bytes(b"garbage")
        meta = {"subject_id": "bad", "ahi": 1.0, "edf": "bad.edf"}
        (tmp_path / "meta.jsonl").write_text(json.dumps(meta) + "\n")
        assert cli.main(["preprocess", "--meta", str(tmp_path / "meta.jsonl"),
                         "--out", str(tmp_path)]) == 3

    def test_corrupt_preprocessed_file_is_three(self, tmp_path, capsys):
        pre = tmp_path / "preprocessed"
        pre.mkdir()
        (pre / "bad.npz").write_bytes(b"garbage")
        assert cli.main(["extract", "--preprocessed", str(pre),
                         "--out", str(tmp_path)]) == 3
        assert "bad.npz" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt", ["model.npz", "norm.npz"])
    def test_corrupt_model_or_norm_is_three(self, pipeline_dir, tmp_path,
                                            capsys, corrupt):
        out = pipeline_dir
        files = {name: out / name for name in ("model.npz", "norm.npz")}
        files[corrupt] = tmp_path / corrupt
        files[corrupt].write_bytes(b"garbage")  # 7 bytes, not a zip archive
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
        features = tmp_path / "features"
        features.mkdir()
        for src in (out / "features").glob("*.csv"):
            (features / src.name).write_text(src.read_text())
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

    def test_importance_repeat_validation_is_two(self, pipeline_dir, tmp_path):
        out = pipeline_dir
        code = cli.main(["importance", "--features", str(out / "features"),
                         "--split", str(out / "split.json"),
                         "--model", str(out / "model.npz"),
                         "--norm", str(out / "norm.npz"),
                         "--repeats", "0", "--out", str(tmp_path)])
        assert code == 2
