"""Synthetic-subject generator: determinism, structure, stage separation."""
import numpy as np
import pytest

from cardiosleep import preprocess, synth
from cardiosleep.errors import InvalidProfile
from cardiosleep.types import FourStage


class TestProfiles:
    def test_default_profile_valid(self):
        p = synth.default_profile()
        assert set(p.stages) == set(FourStage)
        assert np.allclose(p.transition.sum(axis=1), 1.0)

    def test_separability_scales_gaps(self):
        base = synth.default_profile().stages
        wide = synth.default_profile(separability=2.0).scaled()
        gap = lambda d: d[FourStage.WAKE].rr_mean_s - d[FourStage.DEEP].rr_mean_s
        assert gap(wide) == pytest.approx(2.0 * gap(base), rel=1e-9)

    def test_separability_one_is_identity(self):
        p = synth.default_profile()
        assert p.scaled() is p.stages

    def test_bad_transition_rejected(self):
        stages = synth.default_profile().stages
        with pytest.raises(InvalidProfile):
            synth.StageProfile(stages=stages, transition=np.eye(4) * 0.5)

    def test_implausible_rr_rejected(self):
        p = synth.default_profile()
        stages = dict(p.stages)
        stages[FourStage.WAKE] = synth.StageDynamics(
            2.0, 0.05, 0.01, 0.3, 0.1, 1.0, 0.1)
        with pytest.raises(InvalidProfile):
            synth.StageProfile(stages=stages, transition=p.transition)


class TestGenerateSubject:
    def test_deterministic_per_seed(self):
        a = synth.generate_subject(5, synth.easy_profile(), 25)
        b = synth.generate_subject(5, synth.easy_profile(), 25)
        c = synth.generate_subject(6, synth.easy_profile(), 25)
        assert np.array_equal(a.ecg.samples, b.ecg.samples)
        assert np.array_equal(a.breath_chest.samples, b.breath_chest.samples)
        assert a.hypnogram.labels == b.hypnogram.labels
        assert a.ahi == b.ahi
        assert not np.array_equal(a.ecg.samples, c.ecg.samples)

    def test_shapes_and_metadata(self, clean_subject):
        s = clean_subject
        assert len(s.hypnogram) == 40
        assert s.ecg.duration_s == pytest.approx(1200.0)
        assert s.breath_chest.duration_s == pytest.approx(1200.0)
        assert s.breath_abdomen is not None
        assert 0.0 <= s.ahi < 5.0
        assert s.subject_id == "synth-00003"

    def test_too_few_epochs_rejected(self):
        with pytest.raises(InvalidProfile):
            synth.generate_subject(0, synth.easy_profile(), 10)
        with pytest.raises(InvalidProfile):
            synth.generate_subject(0, synth.easy_profile(), synth.MIN_EPOCHS - 1)

    def test_rr_means_track_stage_dynamics(self, clean_subject,
                                           processed_subject):
        """Detected per-epoch RR means should sit close to the generating
        stage means, and deep sleep should be steadier than wake."""
        dyn = synth.easy_profile().scaled()
        rr = processed_subject.rr
        stages = clean_subject.hypnogram.labels
        times, values = preprocess.usable_intervals(rr)
        by_stage = {}
        for e, stage in enumerate(stages):
            sel = (times >= e * 30.0) & (times < (e + 1) * 30.0)
            if np.sum(sel) > 5:
                by_stage.setdefault(stage, []).append(values[sel])
        for stage, chunks in by_stage.items():
            mean = np.mean(np.concatenate(chunks))
            assert mean == pytest.approx(dyn[stage].rr_mean_s, abs=0.08)
        if FourStage.DEEP in by_stage and FourStage.WAKE in by_stage:
            sd = {st: np.std(np.concatenate(ch)) for st, ch in by_stage.items()}
            assert sd[FourStage.DEEP] < sd[FourStage.WAKE]

    def test_breathing_rate_tracks_stage(self, clean_subject):
        """Dominant breathing frequency per long stage run lands near the
        generating rate."""
        from cardiosleep import features_resp
        dyn = synth.easy_profile().scaled()
        s = clean_subject
        stages = s.hypnogram.labels
        fs = s.breath_chest.sample_rate_hz
        checked = 0
        for e, stage in enumerate(stages):
            if stage not in (FourStage.LIGHT, FourStage.DEEP):
                continue  # wake/REM rates jitter too much for a tight check
            lo = int(e * 30 * fs)
            dom_freq = features_resp.breath_features(
                s.breath_chest.samples, fs, [lo], [int((e + 1) * 30 * fs)]
            )["dom_freq"][0]
            if np.isfinite(dom_freq):
                assert dom_freq == pytest.approx(
                    dyn[stage].breath_rate_hz, abs=0.06)
                checked += 1
        assert checked >= 5
