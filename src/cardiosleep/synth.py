"""Synthetic subjects with known stages and stage-dependent cardiorespiratory
dynamics: the end-to-end oracle for the pipeline.

Wake and REM get irregular RR and breathing, deep sleep is very regular, and
light sleep sits between deep and REM, closest to deep. The ECG is an impulse
train (sufficient for R-peak logic); breathing is an amplitude/frequency
modulated sinusoid plus baseline drift and noise.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .epoching import EPOCH_S
from .errors import InvalidProfile
from .types import (FOUR_STAGE_ORDER, FourStage, SignalTrace, SubjectRecord,
                    four_hypnogram_from_indices)

ECG_RATE_HZ = 200.0
BREATH_RATE_HZ = 25.0
MIN_EPOCHS = 20  # the shortest night generate_subject makes


@dataclass(frozen=True)
class StageDynamics:
    rr_mean_s: float          # base RR level
    rr_ar_sd_s: float         # SD of the slow AR(1) RR fluctuation
    rsa_depth_s: float        # respiratory sinus arrhythmia amplitude
    breath_rate_hz: float     # mean breathing frequency
    breath_rate_jitter: float # relative SD of the breathing frequency
    breath_amp: float         # mean breathing amplitude
    breath_amp_jitter: float  # relative SD of the per-breath amplitude


@dataclass(frozen=True)
class StageProfile:
    stages: dict                       # FourStage -> StageDynamics
    transition: np.ndarray             # 4x4 row-stochastic, stage order W,L,D,R
    rr_noise_s: float = 0.01
    breath_noise: float = 0.05
    drift_amp: float = 0.5
    drift_freq_hz: float = 0.003
    separability: float = 1.0

    def __post_init__(self):
        t = np.asarray(self.transition, dtype=float)
        if t.shape != (4, 4) or np.any(t < 0) or not np.allclose(t.sum(axis=1), 1.0):
            raise InvalidProfile("transition matrix must be 4x4 row-stochastic")
        object.__setattr__(self, "transition", t)
        for st, dyn in self.stages.items():
            if not 0.5 <= dyn.rr_mean_s <= 1.5:
                raise InvalidProfile(f"{st}: RR mean {dyn.rr_mean_s} outside [0.5, 1.5] s")
            if not 8.0 / 60 <= dyn.breath_rate_hz <= 25.0 / 60:
                raise InvalidProfile(
                    f"{st}: breathing rate {dyn.breath_rate_hz * 60:.1f}/min outside [8, 25]")

    def scaled(self) -> dict:
        """Stage dynamics with inter-stage gaps scaled by the separability
        factor around the across-stage mean."""
        s = self.separability
        if s == 1.0:
            return self.stages
        fields_ = ("rr_mean_s", "rr_ar_sd_s", "rsa_depth_s", "breath_rate_hz",
                   "breath_rate_jitter", "breath_amp", "breath_amp_jitter")
        means = {f: np.mean([getattr(d, f) for d in self.stages.values()])
                 for f in fields_}
        out = {}
        for st, dyn in self.stages.items():
            kw = {f: float(means[f] + s * (getattr(dyn, f) - means[f]))
                  for f in fields_}
            kw = {k: max(v, 1e-4) for k, v in kw.items()}
            out[st] = StageDynamics(**kw)
        return out


def default_profile(separability: float = 1.0) -> StageProfile:
    # light sleep sits deliberately close to deep sleep so their confusion
    # dominates, as it does on real recordings; wake and REM stay far apart
    stages = {
        FourStage.WAKE: StageDynamics(0.68, 0.065, 0.008, 0.31, 0.22, 0.85, 0.35),
        FourStage.LIGHT: StageDynamics(0.99, 0.012, 0.042, 0.220, 0.025, 1.09, 0.045),
        FourStage.DEEP: StageDynamics(1.00, 0.010, 0.045, 0.218, 0.020, 1.10, 0.04),
        FourStage.REM: StageDynamics(0.82, 0.055, 0.012, 0.27, 0.16, 0.70, 0.28),
    }
    transition = np.array([
        [0.85, 0.12, 0.01, 0.02],   # Wake
        [0.04, 0.82, 0.09, 0.05],   # Light
        [0.01, 0.12, 0.85, 0.02],   # Deep
        [0.03, 0.09, 0.01, 0.87],   # REM
    ])
    return StageProfile(stages=stages, transition=transition,
                        separability=separability)


def easy_profile() -> StageProfile:
    """Widened inter-stage gaps and low noise, for acceptance-scale runs."""
    p = default_profile(separability=1.6)
    return replace(p, rr_noise_s=0.004, breath_noise=0.02)


def _stage_sequence(rng: np.random.Generator, transition: np.ndarray,
                    n_epochs: int) -> np.ndarray:
    seq = np.empty(n_epochs, dtype=int)
    state = 0  # start awake
    for e in range(n_epochs):
        seq[e] = state
        state = int(rng.choice(4, p=transition[state]))
    return seq


def generate_subject(seed: int, profile: StageProfile, n_epochs: int) -> SubjectRecord:
    """One subject-night with ground-truth four-class stages."""
    if n_epochs < MIN_EPOCHS:
        raise InvalidProfile(f"need >= {MIN_EPOCHS} epochs, got {n_epochs}")
    rng = np.random.default_rng(seed)
    dyn = profile.scaled()
    stages = _stage_sequence(rng, profile.transition, n_epochs)
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
