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
_RR_MIN_S, _RR_MAX_S = 0.4, 1.8  # each synthetic RR interval is clipped to this range
_AR_COEF = 0.95
_AR_INNOVATION = float(np.sqrt(1 - _AR_COEF ** 2))  # stationary SD -> innovation SD


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
        # rows must sum to 1 within the tolerance Generator.choice applies
        if t.shape != (4, 4) or np.any(t < 0) or not np.all(
                np.abs(t.sum(axis=1) - 1.0) <= np.sqrt(np.finfo(float).eps)):
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


def _each(per_epoch: list, field: str) -> list:
    return [getattr(d, field) for d in per_epoch]


def _breathing(rng: np.random.Generator, profile: StageProfile,
               per_epoch: list) -> tuple:
    """The chest belt and the sine of its breathing phase, at BREATH_RATE_HZ.

    Phase and amplitude evolve continuously and the stage parameters switch
    per epoch. Each epoch draws its rate and amplitude jitter, then the
    frequency and phase of its within-epoch amplitude wobble, in that order.
    """
    n_epochs = len(per_epoch)
    n_breath = int(round(n_epochs * EPOCH_S * BREATH_RATE_HZ))
    t_breath = np.arange(n_breath) / BREATH_RATE_HZ
    epoch_of = np.minimum((t_breath / EPOCH_S).astype(int), n_epochs - 1)
    f_jit, a_jit, w_freq, w_phase = np.array([
        (rng.normal(0.0, d.breath_rate_jitter), rng.normal(0.0, d.breath_amp_jitter),
         rng.uniform(0.01, 0.03), rng.uniform(0, 2 * np.pi))
        for d in per_epoch]).T
    freq = np.clip(np.array(_each(per_epoch, "breath_rate_hz")) * (1.0 + f_jit),
                   0.08, 0.6)
    amp = np.array(_each(per_epoch, "breath_amp")) * (1.0 + a_jit)
    wobble = 0.5 * np.array(_each(per_epoch, "breath_amp_jitter"))
    amp = amp[epoch_of] * (1.0 + wobble[epoch_of] * np.sin(
        (2 * np.pi * w_freq)[epoch_of] * t_breath + w_phase[epoch_of]))
    sin_phase = np.sin(2 * np.pi * np.cumsum(freq[epoch_of]) / BREATH_RATE_HZ)
    drift = profile.drift_amp * np.sin(
        2 * np.pi * profile.drift_freq_hz * t_breath + rng.uniform(0, 2 * np.pi))
    baseline_offset = rng.uniform(-2.0, 2.0)
    breath = (amp * sin_phase + drift + baseline_offset
              + rng.normal(0.0, profile.breath_noise, n_breath))
    return breath, sin_phase


def _beat_times(rng: np.random.Generator, profile: StageProfile, per_epoch: list,
                sin_phase: np.ndarray) -> list:
    """R-peak times: an AR(1) RR process around the stage mean plus RSA at the
    breathing phase, with two normals per beat.

    ``Generator.normal(0.0, s)`` is ``s * standard_normal()``, so the normals
    come in one draw of more than a night can use; the stream is then rewound
    and advanced by exactly the draws used.
    """
    duration = len(per_epoch) * EPOCH_S
    t = rng.uniform(0.2, 0.6)
    state = rng.bit_generator.state
    normals = rng.standard_normal(2 * (int(duration / _RR_MIN_S) + 2))
    draw = iter(normals.tolist()).__next__
    rr_mean, rsa_depth = _each(per_epoch, "rr_mean_s"), _each(per_epoch, "rsa_depth_s")
    ar_sd = [v * _AR_INNOVATION for v in _each(per_epoch, "rr_ar_sd_s")]
    sin_at, rr_noise = sin_phase.item, profile.rr_noise_s
    peak_times = []
    ar = 0.0
    # a beat starts before the night's last 0.3 s, so its epoch and its
    # breathing sample both lie inside the night
    while t < duration - 0.3:
        e = int(t / EPOCH_S)
        ar = _AR_COEF * ar + ar_sd[e] * draw()
        rr = (rr_mean[e] + ar + rsa_depth[e] * sin_at(int(t * BREATH_RATE_HZ))
              + rr_noise * draw())
        peak_times.append(t)
        t += min(max(rr, _RR_MIN_S), _RR_MAX_S)
    rng.bit_generator.state = state
    rng.standard_normal(2 * len(peak_times))
    return peak_times


def generate_subject(seed: int, profile: StageProfile, n_epochs: int) -> SubjectRecord:
    """One subject-night with ground-truth four-class stages."""
    if n_epochs < MIN_EPOCHS:
        raise InvalidProfile(f"need >= {MIN_EPOCHS} epochs, got {n_epochs}")
    rng = np.random.default_rng(seed)
    dyn = profile.scaled()
    stages = _stage_sequence(rng, profile.transition, n_epochs)
    per_epoch = [dyn[FOUR_STAGE_ORDER[s]] for s in stages.tolist()]
    breath, sin_phase = _breathing(rng, profile, per_epoch)
    peak_times = _beat_times(rng, profile, per_epoch, sin_phase)

    n_ecg = int(round(n_epochs * EPOCH_S * ECG_RATE_HZ))
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
                                                       len(breath))),
        hypnogram=four_hypnogram_from_indices(stages),
        ahi=float(rng.uniform(0.0, 4.5)),
    )
