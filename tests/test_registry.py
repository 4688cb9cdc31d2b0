"""Manifest accounting, matrix assembly, and Z-score normalization."""
import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import resample_poly

from cardiosleep import features_resp, features_rr, registry, synth
from cardiosleep.epoching import EPOCH_S
from cardiosleep.errors import (EmptyTrainingSet, LengthMismatch,
                                ManifestMismatch, SubjectUnusable)
from cardiosleep.pipeline import preprocess_subject
from cardiosleep.registry import (FeatureMatrix, NormStats,
                                  apply_normalization, assemble_feature_matrix,
                                  build_manifest, fit_normalization, manifest_hash)
from cardiosleep.preprocess import usable_intervals
from cardiosleep.types import (FourStage, Hypnogram, ProcessedSubject,
                              RrSeries, SignalTrace, SixStage)
from test_features_resp import _cpc_window_columns
from test_features_rr import (_freq_window_columns, _novel_window_columns,
                              _window_columns, _window_hrv_time_features,
                              _window_nonlinear_without_sampen,
                              _window_rr_freq_features, _window_sampen_entry,
                              _window_statistical_features)

REPO = Path(__file__).resolve().parents[1]


class TestManifest:
    def test_single_profile_counts(self):
        m = build_manifest("single")
        assert len(m) == 152
        by_source = {}
        for e in m.entries:
            by_source[e.source] = by_source.get(e.source, 0) + 1
        assert by_source == {"rr_time": 20, "rr_stat": 68, "rr_nonlinear": 5,
                             "rr_novel": 3, "rr_freq": 25, "breath_chest": 25,
                             "cpc": 6}

    def test_two_channel_profile_counts(self):
        m = build_manifest("two-channel")
        assert len(m) == 152
        abd = [e for e in m.entries if e.source == "breath_abdomen"]
        assert len(abd) == 25

    def test_names_unique_and_deterministic(self):
        a = build_manifest("single")
        b = build_manifest("single")
        assert a.names == b.names
        assert len(set(a.names)) == 152
        assert manifest_hash(a) == manifest_hash(b)
        assert manifest_hash(a) != manifest_hash(build_manifest("two-channel"))

    def test_window_assignments(self):
        m = build_manifest("single")
        by_name = {e.name: e for e in m.entries}
        assert by_name["rr_f1"].window_n == 119
        assert by_name["rr_f2"].window_n == 9
        assert by_name["rr_f3"].window_n == 9
        assert by_name["rr_mean_nn"].window_n == 1
        assert by_name["rr_mean_nn_w9"].window_n == 9
        assert by_name["rr_sampen"].window_n == 9
        assert by_name["rrf_total_power"].window_n == 9
        assert by_name["cpc_sum_hf"].window_n == 9

    def test_bad_profile_rejected(self):
        with pytest.raises(ValueError):
            build_manifest("triple")

    def test_manifest_hashes_pinned(self):
        # the stored benchmark model is keyed by the single-profile hash
        assert manifest_hash(build_manifest("single")) == (
            "c387d0b9f84d3083566a28f11503deb1fdef5780bc41c0d3aedc6a96a3d086d9")
        assert manifest_hash(build_manifest("two-channel")) == (
            "b92f1d5eebe79e07287ba788dc56c75a08932b52ba14dca4d7e10ea6ccac82c3")

    def test_one_family_row_per_manifest_source(self):
        sources = {e.source for p in registry.PROFILES
                   for e in build_manifest(p).entries}
        assert set(registry._FAMILIES) == sources
        assert len(sources) == 8

    def test_export_reproduces_checked_in_manifest(self, tmp_path):
        spec = importlib.util.spec_from_file_location(
            "export_manifest", REPO / "scripts" / "export_manifest.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        out = tmp_path / "manifest.tsv"
        assert script.main(["--out", str(out)]) == 0
        assert out.read_bytes() == (REPO / "docs" / "feature_manifest.tsv").read_bytes()


class TestWindows:
    def test_trace_samples_follow_window_bounds(self):
        empty = np.array([])

        def bounds(n):
            edges, _ = registry._spans(4, empty, n)
            lo, hi = features_resp.sample_bounds(25 * 120, 25.0, *edges.T)
            return lo[1], hi[1]
        assert bounds(1) == (750, 1500)  # first sample at t = 30 s
        assert bounds(9) == (0, 25 * 120)  # shrunk to the whole recording

    def test_one_window_per_epoch_and_width(self, processed_subject,
                                            single_manifest, feature_matrix,
                                            monkeypatch):
        calls = []
        resolve = registry.resolve_window

        def counted(n_epochs, centers, n):
            calls.append((n_epochs, tuple(centers), n))
            return resolve(n_epochs, centers, n)
        monkeypatch.setattr(registry, "resolve_window", counted)
        again = assemble_feature_matrix(processed_subject, single_manifest)
        widths = {e.window_n for e in single_manifest.entries}
        assert widths == {1, 9, 119}
        every = tuple(range(again.n_epochs))
        assert sorted(calls) == [(again.n_epochs, every, n)
                                 for n in sorted(widths)]
        assert np.array_equal(again.values, feature_matrix.values, equal_nan=True)


class TestAssembly:
    def test_clean_subject_has_no_missing_entries(self, feature_matrix):
        assert feature_matrix.values.shape[1] == 152
        assert feature_matrix.missing_mask.mean() == 0.0
        assert np.all(np.isfinite(feature_matrix.values))

    def test_labels_align_with_rows(self, feature_matrix):
        assert feature_matrix.labels is not None
        assert len(feature_matrix.labels) == feature_matrix.n_epochs

    def test_grid_stops_at_last_whole_epoch_before_last_r_peak(
            self, clean_subject, processed_subject, feature_matrix):
        # the last R-peak falls inside the 40th epoch, so the grid has 39
        # epochs and the 40-label hypnogram is cut to them
        assert len(clean_subject.hypnogram) == 40
        assert processed_subject.rr.peak_times_s[-1] < 40 * EPOCH_S
        assert feature_matrix.n_epochs == 39
        assert feature_matrix.labels.labels == clean_subject.hypnogram.labels[:39]

    def test_assembly_is_deterministic(self, processed_subject, single_manifest,
                                       feature_matrix):
        again = assemble_feature_matrix(processed_subject, single_manifest)
        assert np.array_equal(again.values, feature_matrix.values)

    def test_preprocessing_reads_the_belts_of_its_profile(
            self, clean_subject, processed_subject, single_manifest,
            feature_matrix):
        single = preprocess_subject(clean_subject)
        assert single.breath_abdomen is None
        assert processed_subject.breath_abdomen is not None
        assert np.array_equal(single.breath_chest.samples,
                              processed_subject.breath_chest.samples)
        assert np.array_equal(single.rr.intervals_s,
                              processed_subject.rr.intervals_s)
        assert np.array_equal(
            assemble_feature_matrix(single, single_manifest).values,
            feature_matrix.values)
        with pytest.raises(SubjectUnusable, match="breath_abdomen"):
            assemble_feature_matrix(single, build_manifest("two-channel"))
        with pytest.raises(ValueError, match="profile"):
            preprocess_subject(clean_subject, "three-channel")

    def test_two_channel_requires_abdomen(self, processed_subject):
        manifest = build_manifest("two-channel")
        stripped = ProcessedSubject(
            subject_id=processed_subject.subject_id, rr=processed_subject.rr,
            breath_chest=processed_subject.breath_chest,
            breath_abdomen=None, hypnogram=processed_subject.hypnogram)
        with pytest.raises(SubjectUnusable, match="breath_abdomen"):
            assemble_feature_matrix(stripped, manifest)

    def test_mostly_empty_subject_unusable(self, processed_subject):
        # keep only the first two minutes of RR data over a 20-minute grid
        from cardiosleep.types import RrSeries
        rr = processed_subject.rr
        early = rr.peak_times_s[rr.peak_times_s <= 120.0]
        times = np.concatenate([early, [rr.peak_times_s[-1] - 0.9,
                                        rr.peak_times_s[-1]]])
        short = RrSeries(times, np.diff(times),
                         np.ones(len(times) - 1, dtype=bool))
        crippled = ProcessedSubject(
            subject_id="crippled", rr=short,
            breath_chest=processed_subject.breath_chest,
            hypnogram=processed_subject.hypnogram)
        with pytest.raises(SubjectUnusable):
            assemble_feature_matrix(crippled, build_manifest("single"))

    def test_unexpected_novel_error_propagates(self, processed_subject,
                                               single_manifest, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("bug in novel_f3")
        monkeypatch.setattr(features_rr, "novel_f3", broken)
        with pytest.raises(RuntimeError, match="bug in novel_f3"):
            assemble_feature_matrix(processed_subject, single_manifest)

    def test_six_class_hypnogram_gives_four_class_labels(
            self, processed_subject, single_manifest, feature_matrix):
        to_six = {FourStage.WAKE: SixStage.W, FourStage.LIGHT: SixStage.S2,
                  FourStage.DEEP: SixStage.S3, FourStage.REM: SixStage.REM}
        four = processed_subject.hypnogram
        six = Hypnogram(tuple(to_six[s] for s in four.labels), "six")
        subject = dataclasses.replace(processed_subject, hypnogram=six)
        matrix = assemble_feature_matrix(subject, single_manifest)
        assert matrix.labels == feature_matrix.labels

    def test_short_hypnogram_is_length_mismatch(self, processed_subject,
                                                single_manifest, monkeypatch):
        def computed(*args, **kwargs):
            raise AssertionError("features computed before the label check")
        monkeypatch.setattr(features_rr, "hrv_time_features", computed)
        hyp = processed_subject.hypnogram
        short = dataclasses.replace(
            processed_subject, hypnogram=Hypnogram(hyp.labels[:10], hyp.scheme))
        with pytest.raises(LengthMismatch, match="hypnogram has 10 epochs"):
            assemble_feature_matrix(short, single_manifest)

    def test_each_novel_feature_runs_once_per_width(
            self, processed_subject, single_manifest, feature_matrix,
            monkeypatch):
        calls = {}
        for name in ("novel_f1", "novel_f2", "novel_f3"):
            def counted(*args, _fn=getattr(features_rr, name), _name=name):
                out = _fn(*args)
                calls.setdefault(_name, []).append(len(out))
                return out
            monkeypatch.setattr(features_rr, name, counted)
        again = assemble_feature_matrix(processed_subject, single_manifest)
        n = again.n_epochs
        assert calls == {"novel_f1": [n], "novel_f2": [n], "novel_f3": [n]}
        assert np.array_equal(again.values, feature_matrix.values)

    def test_novel_row_computes_only_the_keys_it_names(
            self, processed_subject, monkeypatch):
        calls = []
        for name in ("novel_f1", "novel_f2", "novel_f3"):
            def counted(*args, _fn=getattr(features_rr, name), _name=name):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(features_rr, name, counted)
        night = registry._Night(processed_subject, 39, {9})
        out = registry._FAMILIES["rr_novel"](night, 9, ["rr_f3"])
        assert list(out) == ["rr_f3"] and calls == ["novel_f3"]

    @staticmethod
    def _count_whole_night_calls(monkeypatch):
        """Wrap every whole-night family; each call records its first
        argument and its window count."""
        calls = {}
        for module, name in ((features_rr, "hrv_time_features"),
                             (features_rr, "statistical_features"),
                             (features_rr, "nonlinear_features"),
                             (features_rr, "rr_freq_features"),
                             (features_resp, "breath_features"),
                             (features_resp, "cpc_spectrum")):
            def counted(*args, _fn=getattr(module, name), _name=name):
                calls.setdefault(_name, []).append((args[0], len(args[-1])))
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)
        return calls

    def test_each_whole_night_family_runs_once_per_width(
            self, processed_subject, single_manifest, feature_matrix,
            monkeypatch):
        calls = self._count_whole_night_calls(monkeypatch)
        again = assemble_feature_matrix(processed_subject, single_manifest)
        widths = {(e.source, e.window_n) for e in single_manifest.entries}
        assert {n for s, n in widths if s in ("rr_stat", "rr_freq")} == {1, 9}
        n = again.n_epochs
        assert {k: [count for _, count in v] for k, v in calls.items()} == {
            "hrv_time_features": [n, n], "statistical_features": [n, n],
            "nonlinear_features": [n],
            "rr_freq_features": [n, n], "breath_features": [n],
            "cpc_spectrum": [n]}
        assert calls["breath_features"][0][0] is (
            processed_subject.breath_chest.samples)
        assert np.array_equal(again.values, feature_matrix.values)

    def test_two_channel_breath_runs_once_per_belt(self, processed_subject,
                                                   monkeypatch):
        manifest = build_manifest("two-channel")
        expected = assemble_feature_matrix(processed_subject, manifest)
        calls = self._count_whole_night_calls(monkeypatch)
        again = assemble_feature_matrix(processed_subject, manifest)
        n = again.n_epochs
        assert [(x is processed_subject.breath_chest.samples,
                 x is processed_subject.breath_abdomen.samples, count)
                for x, count in calls["breath_features"]] == [
            (True, False, n), (False, True, n)]
        assert np.array_equal(again.values, expected.values)

    def test_short_windows_miss_the_oracle_cells(self, processed_subject,
                                                 single_manifest):
        """Epochs 10-20 lose every usable interval, so their width-1 windows
        and the width-9 window around epoch 15 are empty; epochs 25, 27 and
        30 keep one, three and five intervals, the five spanning under 75%
        of the epoch. Every family's columns are missing exactly where its
        per-window oracle gives NaN."""
        rr = processed_subject.rr
        starts = rr.peak_times_s[:-1]
        epoch = np.floor(starts / EPOCH_S).astype(int)
        gone = (epoch >= 10) & (epoch <= 20)
        for e, keep in ((25, 1), (27, 3), (30, 5)):
            gone |= (epoch == e) & (np.cumsum(epoch == e) > keep)
        # out of range and rejected, so not even interpolated values are kept
        holed = dataclasses.replace(processed_subject, rr=RrSeries(
            rr.peak_times_s, np.where(gone, 5.0, rr.intervals_s),
            rr.valid_mask & ~gone))
        matrix = assemble_feature_matrix(holed, single_manifest)
        times, values = usable_intervals(holed.rr)
        means, counts = registry._rr_epoch_means(times, values, matrix.n_epochs)
        chest = holed.breath_chest
        checked = set()
        for n in (1, 9, 119):
            edges, bounds = registry._spans(matrix.n_epochs, times, n)
            lo, hi = bounds.T
            oracles = {
                "rr_time": lambda: _window_columns(_window_hrv_time_features,
                                                   values, lo, hi),
                "rr_stat": lambda: _window_columns(_window_statistical_features,
                                                   values, lo, hi),
                "rr_nonlinear": lambda: {
                    **_window_columns(_window_nonlinear_without_sampen,
                                      values, lo, hi),
                    **_window_columns(_window_sampen_entry, values, lo, hi)},
                "rr_freq": lambda: _freq_window_columns(
                    _window_rr_freq_features, times, values, *edges.T),
                "rr_novel": lambda: _novel_window_columns(
                    means, counts, values, lo, hi, n),
                "cpc": lambda: _cpc_window_columns(
                    times, values, chest.samples, chest.sample_rate_hz,
                    *edges.T),
            }
            # every family that reads the RR series
            at_n = [e for e in single_manifest.entries
                    if e.window_n == n and e.source in oracles]
            want = {s: oracles[s]() for s in {e.source for e in at_n}}
            if n < 119:
                assert hi[15] == lo[15]
            if n == 1:
                assert (hi - lo)[[25, 27, 30]].tolist() == [1, 3, 5]
                assert np.isnan(want["rr_freq"]["rrf_total_power"][30])
            for e in at_n:
                j = single_manifest.names.index(e.name)
                col = want[e.source][e.key]
                assert np.isnan(col[15]), e.name
                assert np.array_equal(matrix.missing_mask[:, j], np.isnan(col)), (
                    e.name)
                checked.add((e.source, n))
        assert checked == {("rr_time", 1), ("rr_stat", 1), ("rr_time", 9),
                           ("rr_stat", 9), ("rr_nonlinear", 9),
                           ("rr_freq", 1), ("rr_freq", 9),
                           ("cpc", 9), ("rr_novel", 119), ("rr_novel", 9)}

    def test_empty_interior_epoch_misses_only_center_features(
            self, processed_subject, single_manifest):
        """An epoch without usable RR intervals has no centre mean, so rr_f1
        and rr_f2 go missing there; rr_f3 averages the window's other
        epochs and stays finite."""
        holed = _without_rr_in(processed_subject, 20, 20)
        assert not holed.rr.valid_mask.all()
        matrix = assemble_feature_matrix(holed, single_manifest)
        col = {name: single_manifest.names.index(name)
               for name in ("rr_f1", "rr_f2", "rr_f3")}
        assert matrix.missing_mask[20, col["rr_f1"]]
        assert matrix.missing_mask[20, col["rr_f2"]]
        assert np.isfinite(matrix.values[20, col["rr_f3"]])
        assert not matrix.missing_mask[[19, 21]][:, list(col.values())].any()

    @pytest.mark.parametrize("ecg_hz", [125, 250])
    def test_typical_psg_sample_rates(self, ecg_hz):
        """An easy night resampled to common PSG rates (10 Hz belts) loses
        no RR interval and no feature entry."""
        def resampled(trace, rate):
            up = resample_poly(trace.samples, rate, int(trace.sample_rate_hz))
            return SignalTrace(trace.channel_label, float(rate), up)
        rec = synth.generate_subject(5, synth.easy_profile(), 120)
        rec = dataclasses.replace(
            rec, ecg=resampled(rec.ecg, ecg_hz),
            breath_chest=resampled(rec.breath_chest, 10),
            breath_abdomen=resampled(rec.breath_abdomen, 10))
        subject = preprocess_subject(rec)
        assert subject.rr.valid_mask.all()
        matrix = assemble_feature_matrix(subject, build_manifest("single"))
        assert matrix.n_epochs == 119
        assert not matrix.missing_mask.any()


def _without_rr_in(subject: ProcessedSubject, first: int, last: int
                   ) -> ProcessedSubject:
    """The subject with every RR interval starting in epochs first..last
    out of range and rejected, so not even interpolated values are kept."""
    rr = subject.rr
    epoch = np.floor(rr.peak_times_s[:-1] / EPOCH_S).astype(int)
    gone = (epoch >= first) & (epoch <= last)
    return dataclasses.replace(subject, rr=RrSeries(
        rr.peak_times_s, np.where(gone, 5.0, rr.intervals_s),
        rr.valid_mask & ~gone))


class TestBlockSize:
    """The row blocks of the whole-night evaluators bound memory only: the
    matrix's missing cells do not depend on ``BLOCK_VALUES``, and its
    values only at the rounding level, because ``_padded`` pads each block
    to its own longest window."""

    @staticmethod
    def _night(name, request):
        if name == "960-single":
            return _without_rr_in(request.getfixturevalue(
                "night_960_subject"), 400, 420), "single"
        if name == "40-single":
            return _without_rr_in(request.getfixturevalue(
                "processed_subject"), 10, 20), "single"
        n, profile, hole = {"130-two-channel": (130, "two-channel", (60, 75)),
                            "20-single": (20, "single", (5, 7))}[name]
        record = synth.generate_subject(17, synth.default_profile(), n)
        return _without_rr_in(preprocess_subject(record, profile), *hole), profile

    @pytest.mark.parametrize("name", ["130-two-channel", "40-single",
                                      "20-single", "960-single"])
    def test_missing_cells_do_not_depend_on_block_size(self, name, request,
                                                          monkeypatch):
        subject, profile = self._night(name, request)
        manifest = build_manifest(profile)
        assert features_rr.BLOCK_VALUES == 65_536
        want = assemble_feature_matrix(subject, manifest)
        miss = want.missing_mask
        assert miss.any()
        ref = np.where(miss, 0.0, want.values)
        bound = 1e-12 * np.abs(ref) + 1e-12 * np.abs(ref).max(axis=0)
        for size in (1, 97, 4096, 2 ** 20):
            monkeypatch.setattr(features_rr, "BLOCK_VALUES", size)
            got = assemble_feature_matrix(subject, manifest)
            assert np.array_equal(got.missing_mask, miss), size
            assert np.all(np.abs(np.where(miss, 0.0, got.values) - ref)
                          <= bound), size


class TestNormalization:
    def _mats(self, rng, n=3, rows=40):
        manifest = build_manifest("single")
        mats = []
        for _ in range(n):
            vals = rng.normal(2.0, 3.0, size=(rows, 152))
            mats.append(FeatureMatrix(manifest, vals,
                                      np.zeros_like(vals, dtype=bool)))
        return manifest, mats

    def test_training_columns_standardized(self):
        rng = np.random.default_rng(21)
        _, mats = self._mats(rng)
        stats = fit_normalization(mats)
        z = np.vstack([apply_normalization(m, stats).values for m in mats])
        assert np.max(np.abs(z.mean(axis=0))) < 1e-9
        assert np.max(np.abs(z.var(axis=0) - 1.0)) < 1e-6

    def test_missing_entries_ignored_in_fit_and_imputed_to_zero(self):
        manifest = build_manifest("single")
        vals = np.ones((4, 152))
        vals[:, 0] = [1.0, 3.0, np.nan, np.nan]
        mask = ~np.isfinite(vals)
        m = FeatureMatrix(manifest, vals, mask)
        stats = fit_normalization([m])
        assert stats.mean[0] == pytest.approx(2.0)
        assert stats.sd[0] == pytest.approx(1.0)
        z = apply_normalization(m, stats)
        assert z.values[2, 0] == 0.0 and z.values[3, 0] == 0.0
        assert z.values[0, 0] == pytest.approx(-1.0)

    def test_constant_column_maps_to_zero(self):
        manifest = build_manifest("single")
        vals = np.full((5, 152), 7.0)
        m = FeatureMatrix(manifest, vals, np.zeros_like(vals, dtype=bool))
        stats = fit_normalization([m])
        assert stats.constant.all()
        z = apply_normalization(m, stats)
        assert np.all(z.values == 0.0)

    def test_validation_uses_training_statistics(self):
        rng = np.random.default_rng(23)
        manifest, train = self._mats(rng, n=2)
        val_vals = rng.normal(10.0, 1.0, size=(20, 152))  # shifted distribution
        val = FeatureMatrix(manifest, val_vals,
                            np.zeros_like(val_vals, dtype=bool))
        stats = fit_normalization(train)
        z = apply_normalization(val, stats)
        # a shifted validation set must not come out centered
        assert np.abs(z.values.mean()) > 1.0

    def test_empty_training_set_rejected(self):
        with pytest.raises(EmptyTrainingSet):
            fit_normalization([])

    def test_manifest_mismatch_rejected(self):
        rng = np.random.default_rng(24)
        _, mats = self._mats(rng, n=1)
        stats = fit_normalization(mats)
        other = build_manifest("two-channel")
        vals = np.zeros((3, 152))
        m2 = FeatureMatrix(other, vals, np.zeros_like(vals, dtype=bool))
        with pytest.raises(ManifestMismatch):
            apply_normalization(m2, stats)


class TestNegativeControl:
    def test_shuffled_labels_destroy_class_separation(self, feature_matrix):
        """Within-class spread of a discriminative feature should grow when
        the labels are shuffled; guards against label leakage in assembly."""
        y = feature_matrix.labels.indices()
        col = feature_matrix.manifest.names.index("rr_mean_nn")
        x = feature_matrix.values[:, col]
        def within_class_var(labels):
            return np.mean([np.var(x[labels == k])
                            for k in np.unique(labels)])
        rng = np.random.default_rng(0)
        shuffled = rng.permutation(y)
        assert within_class_var(y) < within_class_var(shuffled)
