"""Manifest accounting, matrix assembly, and Z-score normalization."""
import dataclasses

import numpy as np
import pytest

from cardiosleep import features_rr, registry, synth
from cardiosleep.errors import (EmptyTrainingSet, ManifestMismatch,
                                SubjectUnusable)
from cardiosleep.pipeline import preprocess_subject
from cardiosleep.registry import (FeatureMatrix, NormStats,
                                  apply_normalization, assemble_feature_matrix,
                                  build_manifest, fit_normalization, manifest_hash)
from cardiosleep.types import (FourStage, Hypnogram, ProcessedSubject,
                              SixStage)


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


class TestAssembly:
    def test_clean_subject_has_no_missing_entries(self, feature_matrix):
        assert feature_matrix.values.shape[1] == 152
        assert feature_matrix.missing_mask.mean() == 0.0
        assert np.all(np.isfinite(feature_matrix.values))

    def test_labels_align_with_rows(self, feature_matrix):
        assert feature_matrix.labels is not None
        assert len(feature_matrix.labels) == feature_matrix.n_epochs

    def test_assembly_is_deterministic(self, processed_subject, single_manifest,
                                       feature_matrix):
        again = assemble_feature_matrix(processed_subject, single_manifest)
        assert np.array_equal(again.values, feature_matrix.values)

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
        six = Hypnogram(tuple(to_six[s] for s in four.labels), "six",
                        four.epoch_len_s)
        subject = dataclasses.replace(processed_subject, hypnogram=six)
        matrix = assemble_feature_matrix(subject, single_manifest)
        assert matrix.labels == feature_matrix.labels


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
