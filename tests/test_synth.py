"""Synthetic-subject generator: determinism, structure, stage separation."""
import numpy as np
import pytest

from cardiosleep import preprocess, synth
from cardiosleep.epoching import EPOCH_S
from cardiosleep.errors import InvalidProfile
from cardiosleep.synth import BREATH_RATE_HZ, ECG_RATE_HZ, MIN_EPOCHS
from cardiosleep.types import (FOUR_STAGE_ORDER, FourStage, SignalTrace,
                               SubjectRecord, four_hypnogram_from_indices)


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

    def test_rows_must_sum_to_one_as_generation_needs(self):
        """A row off by more than ``Generator.choice``'s tolerance fails at
        construction, not inside ``generate_subject``; one within it still
        generates."""
        p = synth.default_profile()
        off, near = p.transition.copy(), p.transition.copy()
        off[0, 0] += 1e-6
        near[0, 0] += 1e-9
        with pytest.raises(InvalidProfile):
            synth.StageProfile(stages=p.stages, transition=off)
        profile = synth.StageProfile(stages=p.stages, transition=near)
        assert len(synth.generate_subject(2, profile, 25).hypnogram) == 25

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


def _scalar_stage_sequence(rng: np.random.Generator, transition: np.ndarray,
                           n_epochs: int) -> np.ndarray:
    seq = np.empty(n_epochs, dtype=int)
    state = 0  # start awake
    for e in range(n_epochs):
        seq[e] = state
        state = int(rng.choice(4, p=transition[state]))
    return seq


def _scalar_generate_subject(seed: int, profile, n_epochs: int) -> SubjectRecord:
    """The generator with one NumPy scalar call per draw and per beat, kept
    as the oracle of ``synth.generate_subject``."""
    if n_epochs < MIN_EPOCHS:
        raise InvalidProfile(f"need >= {MIN_EPOCHS} epochs, got {n_epochs}")
    rng = np.random.default_rng(seed)
    dyn = profile.scaled()
    stages = _scalar_stage_sequence(rng, profile.transition, n_epochs)
    duration = n_epochs * EPOCH_S

    # breathing phase/amplitude evolve continuously; stage params switch per epoch
    n_breath = int(round(duration * BREATH_RATE_HZ))
    t_breath = np.arange(n_breath) / BREATH_RATE_HZ
    epoch_of = np.minimum((t_breath / EPOCH_S).astype(int), n_epochs - 1)
    bounds = np.searchsorted(epoch_of, np.arange(n_epochs + 1))
    freq = np.empty(n_breath)
    amp = np.empty(n_breath)
    for e in range(n_epochs):
        d = dyn[FOUR_STAGE_ORDER[stages[e]]]
        sl = slice(bounds[e], bounds[e + 1])
        # slowly varying per-epoch modulation
        f_jit = rng.normal(0.0, d.breath_rate_jitter)
        a_jit = rng.normal(0.0, d.breath_amp_jitter)
        freq[sl] = d.breath_rate_hz * (1.0 + f_jit)
        amp[sl] = d.breath_amp * (1.0 + a_jit)
        # within-epoch amplitude wobble
        amp[sl] *= 1.0 + 0.5 * d.breath_amp_jitter * np.sin(
            2 * np.pi * rng.uniform(0.01, 0.03) * t_breath[sl] + rng.uniform(0, 2 * np.pi))
    freq = np.clip(freq, 0.08, 0.6)
    phase = 2 * np.pi * np.cumsum(freq) / BREATH_RATE_HZ
    drift = profile.drift_amp * np.sin(
        2 * np.pi * profile.drift_freq_hz * t_breath + rng.uniform(0, 2 * np.pi))
    baseline_offset = rng.uniform(-2.0, 2.0)
    breath = (amp * np.sin(phase) + drift + baseline_offset
              + rng.normal(0.0, profile.breath_noise, n_breath))

    # RR process: AR(1) around the stage mean plus RSA at the breathing phase
    peak_times = []
    t = rng.uniform(0.2, 0.6)
    ar = 0.0
    while t < duration - 0.3:
        e = min(int(t / EPOCH_S), n_epochs - 1)
        d = dyn[FOUR_STAGE_ORDER[stages[e]]]
        ar = 0.95 * ar + rng.normal(0.0, d.rr_ar_sd_s * np.sqrt(1 - 0.95 ** 2))
        k = min(int(t * BREATH_RATE_HZ), n_breath - 1)
        rsa = d.rsa_depth_s * np.sin(phase[k])
        rr = d.rr_mean_s + ar + rsa + rng.normal(0.0, profile.rr_noise_s)
        rr = float(np.clip(rr, 0.4, 1.8))
        peak_times.append(t)
        t += rr

    n_ecg = int(round(duration * ECG_RATE_HZ))
    ecg = np.zeros(n_ecg)
    idx = np.round(np.array(peak_times) * ECG_RATE_HZ).astype(int)
    idx = idx[idx < n_ecg]
    ecg[idx] = 1.0

    return SubjectRecord(
        subject_id=f"synth-{seed:05d}",
        ecg=SignalTrace("ECG", ECG_RATE_HZ, ecg),
        breath_chest=SignalTrace("THOR RES", BREATH_RATE_HZ, breath),
        breath_abdomen=SignalTrace("ABDO RES", BREATH_RATE_HZ,
                                   breath + rng.normal(0.0, profile.breath_noise,
                                                       n_breath)),
        hypnogram=four_hypnogram_from_indices(stages),
        ahi=float(rng.uniform(0.0, 4.5)),
    )


_PROFILES = {
    "easy": synth.easy_profile,
    "default": synth.default_profile,
    "sep-0.5": lambda: synth.default_profile(separability=0.5),
    "sep-2.0": lambda: synth.default_profile(separability=2.0),
}


def _assert_same_subject(got: SubjectRecord, want: SubjectRecord) -> None:
    assert got.subject_id == want.subject_id
    for name in ("ecg", "breath_chest", "breath_abdomen"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.channel_label, a.sample_rate_hz) == (b.channel_label,
                                                       b.sample_rate_hz)
        assert a.samples.dtype == b.samples.dtype
        assert a.samples.tobytes() == b.samples.tobytes(), name
    assert got.hypnogram.labels == want.hypnogram.labels
    # ahi is the last draw, so a shift anywhere in the stream moves it
    assert got.ahi.hex() == want.ahi.hex()


class TestMatchesScalarOracle:
    """Every byte of every trace, the stages and ``ahi`` equal the oracle's,
    so the random stream is consumed in the same order."""

    @pytest.mark.parametrize("n_epochs", [MIN_EPOCHS, 41, 120])
    @pytest.mark.parametrize("seed", [0, 3, 101, 1000])
    @pytest.mark.parametrize("profile", sorted(_PROFILES))
    def test_short_nights(self, profile, seed, n_epochs):
        p = _PROFILES[profile]()
        _assert_same_subject(synth.generate_subject(seed, p, n_epochs),
                            _scalar_generate_subject(seed, p, n_epochs))

    @pytest.mark.parametrize("profile, seed", [("easy", 1000), ("default", 7)])
    def test_whole_night(self, profile, seed):
        p = _PROFILES[profile]()
        _assert_same_subject(synth.generate_subject(seed, p, 960),
                            _scalar_generate_subject(seed, p, 960))
