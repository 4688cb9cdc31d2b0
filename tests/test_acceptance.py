"""Acceptance gate: ten scaled-down, property-based criteria for the whole
pipeline. Each test prints a single pass/fail line with its headline numbers.
"""
import argparse
import json
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from cardiosleep import (blstm, cli, cohort, evaluate, features_rr, preprocess,
                         registry, signal_io, synth, wavelet)
from cardiosleep.epoching import resolve_window
from cardiosleep.errors import CardiosleepError
from cardiosleep.types import (Hypnogram, SignalTrace, SixStage,
                               four_hypnogram_from_indices)

DOCS_MANIFEST = Path(__file__).resolve().parents[1] / "docs" / "feature_manifest.tsv"


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:02d} ({name}): {verdict} {detail}".rstrip())
    assert ok, f"criterion {num:02d} ({name}) failed: {detail}"


# -- 1: novel-feature brute-force oracle ------------------------------------

def _raw_night(rng, n_epochs=150, epoch_len=30.0):
    """Raw interval list: (first-peak times, values), plus per-epoch stats."""
    t, times, values = rng.uniform(0.0, 0.5), [], []
    while t < n_epochs * epoch_len - 2.0:
        v = rng.uniform(0.4, 1.6)
        times.append(t)
        values.append(v)
        t += v
    times, values = np.array(times), np.array(values)
    idx = np.floor(times / epoch_len).astype(int)
    means = np.full(n_epochs, np.nan)
    counts = np.zeros(n_epochs, dtype=int)
    for e in range(n_epochs):
        sel = idx == e
        counts[e] = np.sum(sel)
        if counts[e]:
            means[e] = np.mean(values[sel])
    return times, values, means, counts


def test_criterion_1_novel_feature_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    checked, worst = 0, 0.0
    for _night in range(10):
        times, values, means, counts = _raw_night(rng)
        # plain per-epoch buckets of raw interval values for the oracle loops
        buckets = [[] for _ in range(150)]
        for t, v in zip(times.tolist(), values.tolist()):
            buckets[int(t // 30.0)].append(v)
        # one call per feature covers every centre of the night
        first, last = resolve_window(150, np.arange(150), 9)
        lo, hi = np.searchsorted(times, [first * 30.0, (last + 1) * 30.0])
        night_f1 = features_rr.novel_f1(means, counts, 119)
        night_f2 = features_rr.novel_f2(means, counts, values, lo, hi)
        night_f3 = features_rr.novel_f3(means, counts, 9)
        for center in rng.integers(0, 150, 100):
            center = int(center)
            f1, f2, f3 = night_f1[center], night_f2[center], night_f3[center]
            first9, last9 = resolve_window(150, center, 9)

            # oracle: direct loops over the raw interval lists
            c_vals = buckets[center]
            c_mean = sum(c_vals) / len(c_vals)
            first1, last1 = resolve_window(150, center, 119)
            w_sum = w_cnt = 0.0
            for e in range(first1, last1 + 1):
                w_sum += sum(buckets[e])
                w_cnt += len(buckets[e])
            o1 = c_mean - w_sum / w_cnt
            w9 = []
            for e in range(first9, last9 + 1):
                w9.extend(buckets[e])
            o2 = c_mean - statistics.median(w9)
            e_means = [sum(buckets[e]) / len(buckets[e])
                       for e in range(first9, last9 + 1)
                       if buckets[e]]
            w9_mean = sum(w9) / len(w9)
            o3 = (sum((m - w9_mean) ** 2 for m in e_means) / len(e_means)) ** 0.5

            worst = max(worst, abs(f1 - o1), abs(f2 - o2), abs(f3 - o3))
            checked += 1
    elapsed = time.perf_counter() - start
    _report(1, "novel-feature oracle", worst < 1e-12 and checked == 1000
            and elapsed < 5.0,
            f"max |diff| {worst:.2e} over {checked} windows, {elapsed:.1f} s")


# -- 2: gradient correctness ------------------------------------------------

def _max_grad_error(params, batch, cw, rng, n_coords=100, eps=1e-5):
    _, grads = blstm.loss_and_gradients(params, batch, cw)
    keys = list(params.weights)
    worst = 0.0
    for _ in range(n_coords):
        k = keys[rng.integers(len(keys))]
        idx = tuple(rng.integers(s) for s in params.weights[k].shape)
        orig = params.weights[k][idx]
        params.weights[k][idx] = orig + eps
        lp, _ = blstm.loss_and_gradients(params, batch, cw)
        params.weights[k][idx] = orig - eps
        lm, _ = blstm.loss_and_gradients(params, batch, cw)
        params.weights[k][idx] = orig
        fd = (lp - lm) / (2 * eps)
        an = grads[k][idx]
        worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-8))
    return worst


def test_criterion_2_gradient_check():
    rng = np.random.default_rng(202)
    params = blstm.init_params(0, input_dim=152)
    batch = [(rng.normal(size=(12, 152)), rng.integers(0, 4, 12))
             for _ in range(2)]
    cw = np.array([1.0, 2.0, 0.5, 1.5])
    start = time.perf_counter()
    err_init = _max_grad_error(params, batch, cw, rng)
    for _ in range(50):  # plain gradient steps to a non-trivial weight point
        _, grads = blstm.loss_and_gradients(params, batch, cw)
        for k in params.weights:
            params.weights[k] -= 0.01 * grads[k]
    err_trained = _max_grad_error(params, batch, cw, rng)
    elapsed = time.perf_counter() - start
    worst = max(err_init, err_trained)
    _report(2, "gradient correctness", worst < 1e-5 and elapsed < 30.0,
            f"max relative error {worst:.2e} (init {err_init:.2e}, "
            f"after 50 steps {err_trained:.2e}), {elapsed:.1f} s")


# -- 3: overfit sanity ------------------------------------------------------

def _separable_sequences(rng, n=20, t=20, dim=10):
    data = []
    for _ in range(n):
        y = rng.integers(0, 4, t)
        X = np.zeros((t, dim))
        X[np.arange(t), y] = 3.0
        X += rng.normal(0, 0.05, (t, dim))
        data.append((X, y))
    return data


def test_criterion_3_overfit_sanity():
    rng = np.random.default_rng(303)
    data = _separable_sequences(rng)
    cfg = blstm.TrainConfig(learning_rate=0.02, max_epochs=200, batch_size=4,
                            patience=200, seed=0)
    start = time.perf_counter()
    _, ha = blstm.train(cfg, data)
    _, hb = blstm.train(cfg, data)
    elapsed = time.perf_counter() - start
    acc = max(ha["train_acc"])
    ok = acc >= 0.99 and ha == hb and elapsed < 120.0
    _report(3, "overfit sanity", ok,
            f"best training accuracy {acc:.4f}, deterministic={ha == hb}, "
            f"{elapsed:.0f} s")


# -- 4: bidirectionality proof ----------------------------------------------

def _future_task(rng, n=40, t=20, dim=4):
    """Label at epoch e is the class planted at epoch e+1."""
    data = []
    for _ in range(n):
        codes = rng.integers(0, 4, t + 1)
        X = 2.0 * np.eye(4)[codes[:t]] + rng.normal(0, 0.1, (t, dim))
        y = codes[1:t + 1]
        data.append((X, y))
    return data


def _adam_fit(params, data, steps, lr, seed):
    rng = np.random.default_rng(seed)
    m = {k: np.zeros_like(v) for k, v in params.weights.items()}
    v = {k: np.zeros_like(w) for k, w in params.weights.items()}
    cw = np.ones(4)
    for step in range(1, steps + 1):
        batch = [data[i] for i in rng.integers(0, len(data), 4)]
        _, grads = blstm.loss_and_gradients(params, batch, cw)
        lr_t = lr * np.sqrt(1 - 0.999 ** step) / (1 - 0.9 ** step)
        for k in params.weights:
            m[k] = 0.9 * m[k] + 0.1 * grads[k]
            v[k] = 0.999 * v[k] + 0.001 * grads[k] ** 2
            params.weights[k] -= lr_t * m[k] / (np.sqrt(v[k]) + 1e-8)
    return params


def _accuracy_on(params, data):
    correct = total = 0
    for X, y in data:
        correct += int(np.sum(np.argmax(blstm.forward(params, X), axis=1) == y))
        total += len(y)
    return correct / total


def test_criterion_4_bidirectionality():
    rng = np.random.default_rng(404)
    train_data = _future_task(rng)
    test_data = _future_task(rng, n=10)
    start = time.perf_counter()
    bi = _adam_fit(blstm.init_params(0, input_dim=4), train_data, 400, 0.01, 1)
    uni = _adam_fit(blstm.init_params(0, input_dim=4, bidirectional=False),
                    train_data, 400, 0.01, 1)
    acc_bi = _accuracy_on(bi, test_data)
    acc_uni = _accuracy_on(uni, test_data)
    elapsed = time.perf_counter() - start
    ok = acc_bi >= 0.95 and acc_uni <= 0.60 and elapsed < 180.0
    _report(4, "bidirectionality proof", ok,
            f"bidirectional {acc_bi:.3f}, forward-only {acc_uni:.3f}, "
            f"{elapsed:.0f} s")


# -- 5: end-to-end synthetic pipeline ---------------------------------------

@pytest.mark.slow
def test_criterion_5_end_to_end(tmp_path):
    out = tmp_path / "e2e"
    base = ["--seed", "0", "--workers", "4"]
    start = time.perf_counter()
    steps = [
        ["synth", "--out", str(out), "--subjects", "30", "--epochs", "120",
         "--profile-name", "easy"],
        ["preprocess", "--meta", str(out / "subjects.jsonl"), "--out", str(out)],
        ["extract", "--preprocessed", str(out / "preprocessed"), "--out", str(out)],
        ["cohort", "--meta", str(out / "subjects.jsonl"), "--out", str(out)],
        ["split", "--ids", str(out / "cohort_ids.json"), "--out", str(out)],
        ["train", "--features", str(out / "features"),
         "--split", str(out / "split.json"), "--out", str(out)],
        ["evaluate", "--features", str(out / "features"),
         "--split", str(out / "split.json"), "--model", str(out / "model.npz"),
         "--norm", str(out / "norm.npz"), "--out", str(out)],
    ]
    for step in steps:
        assert cli.main(base + step) == 0, f"stage {step[0]} failed"
    elapsed = time.perf_counter() - start

    counts = np.loadtxt(out / "confusion.csv", delimiter=",", skiprows=1)
    cm = evaluate.ConfusionMatrix(counts.astype(int))
    acc = evaluate.accuracy(cm)
    kappa = evaluate.cohens_kappa(cm)
    off = counts.copy()
    np.fill_diagonal(off, 0)
    dominant = np.unravel_index(np.argmax(off), off.shape)
    deep_light = dominant in ((2, 1), (1, 2))
    ok = acc >= 0.90 and kappa >= 0.85 and deep_light and elapsed < 600.0
    _report(5, "end-to-end synthetic pipeline", ok,
            f"accuracy {acc:.4f}, kappa {kappa:.4f}, dominant off-diagonal "
            f"truth={dominant[0]} pred={dominant[1]}, {elapsed:.0f} s")


# -- 6: signal-processing numerics ------------------------------------------

def test_criterion_6_signal_numerics():
    fs, seconds = 25.0, 120.0
    t = np.arange(int(fs * seconds)) / fs

    def gain(freq):
        x = np.sin(2 * np.pi * freq * t)
        y = preprocess.butterworth_lowpass(SignalTrace("B", fs, x)).samples
        core = slice(int(5 * fs), -int(5 * fs))
        return np.sqrt(np.mean(y[core] ** 2) / np.mean(x[core] ** 2))

    db1 = 20 * np.log10(gain(1.0))
    db5 = 20 * np.log10(gain(5.0))

    const = np.full(int(fs * seconds), 3.0)
    baseline = wavelet.approximation(const, wavelet.baseline_depth(fs))
    dc_resid = np.max(np.abs(const - baseline)) / 3.0

    planted = 0.22
    x = np.sin(2 * np.pi * planted * t)
    p = features_rr._one_sided_power((x - x.mean()) * np.hanning(len(x)))
    freqs = np.fft.rfftfreq(len(x), d=1.0 / fs)
    fft_err = abs(freqs[np.argmax(p[1:]) + 1] - planted)
    bin_width = freqs[1]

    # the row-wise spectrum every RR and breathing window goes through
    rng = np.random.default_rng(606)
    y = rng.normal(size=(4, 4096))
    power = np.mean(y ** 2, axis=1)
    parseval = np.max(np.abs(
        np.sum(features_rr._one_sided_power(y), axis=1) - power))
    parseval_rel = parseval / np.min(power)

    ok = (abs(db1 + 6.0) <= 0.3 and db5 <= -40.0 and dc_resid <= 1e-6
          and fft_err <= bin_width and parseval_rel <= 1e-6)
    _report(6, "signal-processing numerics", ok,
            f"1 Hz {db1:.2f} dB, 5 Hz {db5:.1f} dB, DC residual {dc_resid:.1e}, "
            f"FFT error {fft_err:.4f} Hz, Parseval {parseval_rel:.1e}")


# -- 7: metric closed forms --------------------------------------------------

def test_criterion_7_metric_closed_forms():
    rows = np.array([0.4, 0.3, 0.2, 0.1])
    cols = np.array([0.1, 0.2, 0.3, 0.4])
    indep = evaluate.ConfusionMatrix(
        (np.outer(rows, cols) * 1000).round().astype(int))
    k_indep = evaluate.cohens_kappa(indep)
    k_perfect = evaluate.cohens_kappa(
        evaluate.ConfusionMatrix(np.diag([10, 20, 30, 40])))
    rng = np.random.default_rng(707)
    pred = four_hypnogram_from_indices(rng.integers(0, 4, 10000))
    truth = four_hypnogram_from_indices(rng.integers(0, 4, 10000))
    acc = evaluate.accuracy(evaluate.confusion_matrix(pred, truth))
    ok = (abs(k_indep) < 1e-12 and k_perfect == 1.0
          and abs(acc - 0.25) <= 0.02)
    _report(7, "metric closed forms", ok,
            f"kappa(independent) {k_indep:.2e}, kappa(perfect) {k_perfect}, "
            f"uniform accuracy {acc:.4f}")


# -- 8: cohort rules ---------------------------------------------------------

def test_criterion_8_cohort_rules():
    from cardiosleep.cohort import AhiLevel
    from cardiosleep.types import FourStage, Hypnogram, SixStage

    levels = [cohort.classify_ahi(a) for a in (4.999, 5.0, 15.0, 30.0, 30.001)]
    ahi_ok = levels == [AhiLevel.NO_APNEA, AhiLevel.MILD, AhiLevel.MEDIUM,
                        AhiLevel.MEDIUM, AhiLevel.SEVERE]

    def six(tokens):
        m = {"W": SixStage.W, "R": SixStage.REM, "1": SixStage.S1,
             "2": SixStage.S2, "3": SixStage.S3, "4": SixStage.S4}
        return Hypnogram(tuple(m[c] for c in tokens), "six")

    at = six("3" + "R" * 3 + "2" * 16)            # exactly 5% deep, 15% REM
    below_deep = six("3" + "R" * 4 + "2" * 16)    # deep 1/21
    below_rem = six("33" + "R" * 5 + "2" * 33)    # REM 5/40
    regular_ok = (cohort.is_regular_sleep(at)
                  and not cohort.is_regular_sleep(below_deep)
                  and not cohort.is_regular_sleep(below_rem))

    merged = cohort.merge_stages(six("W12R34"))
    merge_ok = [s for s in merged.labels] == [
        FourStage.WAKE, FourStage.LIGHT, FourStage.LIGHT, FourStage.REM,
        FourStage.DEEP, FourStage.DEEP]

    ids = [f"s{i:04d}" for i in range(417)]
    train, val = cohort.split_subjects(ids, 0.7, seed=0)
    split_ok = (len(train) == 291 and len(val) == 126
                and not set(train) & set(val)
                and sorted(train + val) == ids)

    ok = ahi_ok and regular_ok and merge_ok and split_ok
    _report(8, "cohort rules", ok,
            f"ahi={ahi_ok} regular={regular_ok} merge={merge_ok} "
            f"split={split_ok}")


# -- 9: manifest integrity ----------------------------------------------------

def test_criterion_9_manifest_integrity(feature_matrix):
    from cardiosleep import registry
    manifest = registry.build_manifest("single")
    rows = [l.split("\t") for l in
            DOCS_MANIFEST.read_text().strip().splitlines()[1:]]
    file_ok = (len(rows) == 152
               and [r[0] for r in rows] == manifest.names
               and [int(r[2]) for r in rows]
               == [e.window_n for e in manifest.entries])

    cols_ok = (feature_matrix.values.shape[1] == 152
               and feature_matrix.manifest.names == manifest.names)

    stats = registry.fit_normalization([feature_matrix])
    z = registry.apply_normalization(feature_matrix, stats).values
    live = ~stats.constant  # constant columns map to zero by contract
    mean_err = np.max(np.abs(z[:, live].mean(axis=0)))
    var_err = np.max(np.abs(z[:, live].var(axis=0) - 1.0))
    norm_ok = mean_err < 1e-9 and var_err < 1e-6

    ok = file_ok and cols_ok and norm_ok
    _report(9, "manifest integrity", ok,
            f"152 columns={cols_ok}, checked-in file={file_ok}, "
            f"|mean| {mean_err:.1e}, |var-1| {var_err:.1e}")


# -- 10: parser robustness ----------------------------------------------------

def _mutated(rng, valid: bytes) -> bytes:
    """``valid`` after one of four mutations drawn from ``rng``."""
    data = bytearray(valid)
    kind = rng.integers(0, 4)
    if kind == 0:  # corrupt random bytes
        for _ in range(int(rng.integers(1, 16))):
            data[rng.integers(0, len(data))] = int(rng.integers(0, 256))
    elif kind == 1:  # truncate
        data = data[:rng.integers(0, len(data))]
    elif kind == 2:  # extend with noise
        data = data + bytes(rng.integers(0, 256, int(rng.integers(1, 64)),
                                         dtype=np.uint8))
    else:  # splice a random block
        i = rng.integers(0, len(data))
        j = rng.integers(0, len(data))
        data[i:i + 32], data[j:j + 32] = data[j:j + 32], data[i:i + 32]
    return bytes(data)


def test_criterion_10_parser_robustness():
    rng = np.random.default_rng(1010)
    t = np.arange(300) / 100.0
    traces = [SignalTrace("ECG", 100.0, np.sin(2 * np.pi * 3 * t)),
              SignalTrace("THOR RES", 25.0, np.cos(2 * np.pi * 0.25 * t[:75]))]
    valid = signal_io.write_edf(traces)

    back = signal_io.read_edf(valid)
    steps = [np.ptp(tr.samples) / 65535 for tr in traces]
    rt_ok = all(np.max(np.abs(b.samples - tr.samples)) <= s + 1e-12
                for b, tr, s in zip(back, traces, steps))

    crashes = 0
    for _ in range(10000):
        try:
            signal_io.read_edf(_mutated(rng, valid))
        except CardiosleepError:
            pass
        except Exception:
            crashes += 1
    ok = crashes == 0 and rt_ok
    _report(10, "parser robustness", ok,
            f"crashes {crashes}/10000, round-trip within quantization={rt_ok}")


def test_every_text_input_reads_to_a_value_or_a_data_error(tmp_path):
    # criterion 10's mutations on writer-produced text inputs and on the
    # feature CSV's binary copy, read from disk through the readers the
    # stages use, which name the file
    rng = np.random.default_rng(1011)
    manifest = registry.build_manifest("single")
    ids = [f"synth-{i:05d}" for i in range(4)]
    csv = tmp_path / f"{ids[0]}.csv"
    vals = rng.normal(size=(3, len(manifest)))
    vals[1, 5] = np.nan
    signal_io.write_feature_matrix(registry.FeatureMatrix(
        manifest, vals, ~np.isfinite(vals),
        four_hypnogram_from_indices([0, 1, 3]), ids[0]), csv)
    csv_bytes, copy = csv.read_bytes(), signal_io._copy_path(csv)
    copy_bytes = copy.read_bytes()
    hyp = Hypnogram(tuple(SixStage)[::-1] * 3, "six")
    records = [{"subject_id": sid, "ahi": 1.5 * i, "edf": f"raw/{sid}.edf",
                "hypnogram": f"raw/{sid}.hyp"} for i, sid in enumerate(ids)]
    split = argparse.Namespace(split=str(tmp_path / "split.json"),
                               features=str(tmp_path))

    def read_csv(path, beside=None):
        """The matrix of the CSV at ``path`` with ``beside`` as its copy, if given."""
        copy.unlink(missing_ok=True)
        if beside is not None:
            copy.write_bytes(beside)
        return signal_io.read_feature_matrix(path, manifest)

    targets = {  # name: (file, its valid bytes, its reader)
        "hypnogram": (tmp_path / "h.hyp", signal_io.write_hypnogram(hyp).encode(),
                      lambda p: cli._parse_file(p, signal_io.read_hypnogram)),
        "metadata": (tmp_path / "subjects.jsonl",
                     signal_io.write_subject_metadata(records).encode(),
                     cli._read_metadata),
        "ids": (tmp_path / "ids.json", json.dumps(ids, indent=2).encode(),
                cli._read_ids),
        "split": (tmp_path / "split.json",
                  json.dumps({"train": ids[:3], "val": ids[3:]}, indent=2).encode(),
                  lambda p: cli._split_matrices(split, manifest)),
        "csv-with-copy": (csv, csv_bytes, lambda p: read_csv(p, copy_bytes)),
        "csv-alone": (csv, csv_bytes, read_csv),
        "copy": (copy, copy_bytes, lambda p: signal_io.read_feature_matrix(
            csv, manifest)),
    }
    crashes = []
    for name, (path, valid, read) in targets.items():
        for _ in range(4000):
            path.write_bytes(_mutated(rng, valid))
            try:
                read(path)
            except CardiosleepError:
                pass
            except Exception as e:
                crashes.append(f"{name}: {type(e).__name__}: {e}")
        path.write_bytes(valid)
    assert not crashes, f"{len(crashes)} crashes, first {crashes[:3]}"


def test_every_archive_reads_to_a_value_or_a_data_error(tmp_path):
    # criterion 10's mutations on a preprocessed archive, a model and its
    # normalisation statistics, each as its stage writes it, read from disk
    # through the readers the stages use, which name the archive
    rng = np.random.default_rng(1012)
    record = synth.generate_subject(seed=12, profile=synth.easy_profile(),
                                    n_epochs=synth.MIN_EPOCHS)
    (tmp_path / "r.edf").write_bytes(signal_io.write_edf(
        [record.ecg, record.breath_chest, record.breath_abdomen]))
    (tmp_path / "r.hyp").write_text(signal_io.write_hypnogram(record.hypnogram))
    cli._preprocess_one(({"subject_id": "r", "edf": "r.edf", "hypnogram": "r.hyp"},
                         tmp_path, tmp_path, "two-channel"))
    manifest = registry.build_manifest("single")
    digest = registry.manifest_hash(manifest)
    blstm.save_checkpoint(blstm.init_params(0, hidden=2, layers=1),
                          tmp_path / "model.npz", digest, {})
    vals = rng.normal(size=(3, len(manifest)))
    cli._save_norm(registry.fit_normalization([registry.FeatureMatrix(
        manifest, vals, ~np.isfinite(vals))]), tmp_path / "norm.npz")
    targets = {  # name: (archive, its reader)
        "preprocessed": (tmp_path / "r.npz", cli._load_processed),
        "model": (tmp_path / "model.npz",
                  lambda p: blstm.load_checkpoint(p, digest)),
        "norm": (tmp_path / "norm.npz", lambda p: cli._load_norm(p, manifest)),
    }
    crashes = []
    for name, (path, read) in targets.items():
        valid = path.read_bytes()
        read(path)
        for _ in range(1500):
            path.write_bytes(_mutated(rng, valid))
            try:
                read(path)
            except CardiosleepError as e:
                assert str(e).startswith(f"{path}: "), e
            except Exception as e:
                crashes.append(f"{name}: {type(e).__name__}: {e}")
        path.write_bytes(valid)
    assert not crashes, f"{len(crashes)} crashes, first {crashes[:3]}"
