"""Canonical 152-feature manifest, per-epoch assembly, and Z-score normalization.

Feature accounting (single-breathing-channel profile, the default):
    10 HRV time-domain + 34 statistical + 5 nonlinear + 3 sudden-variation
    + 21 RR frequency + 25 chest breathing + 6 coupling-band = 104,
    plus 48 re-evaluations of RR features at a second window width
    (time-domain sets at 9 epochs, the first frequency entries at 1 epoch)
    = 152.
The two-channel profile swaps 25 of those re-evaluations for the abdomen
breathing set: 104 + 25 + 23 = 152.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import features_resp, features_rr
from .cohort import merge_stages
from .epoching import (EpochGrid, build_epoch_grid, resolve_window,
                       window_trace_values)
from .errors import (EmptyTrainingSet, InsufficientData, LengthMismatch,
                     ManifestMismatch, MissingCenter, NoBreathsDetected,
                     NoValidEpochs, SubjectUnusable, ZeroTotal)
from .preprocess import usable_intervals
from .types import Hypnogram, ProcessedSubject, SignalTrace

N_FEATURES = 152

F1_WINDOW = 119
MULTI_WINDOW = 9


@dataclass(frozen=True)
class ManifestEntry:
    name: str
    source: str      # extractor family
    window_n: int    # epochs
    units: str
    key: str         # the name the family's extractor returns for this entry


@dataclass(frozen=True)
class FeatureManifest:
    entries: tuple

    def __post_init__(self):
        names = [e.name for e in self.entries]
        if len(names) != len(set(names)):
            raise ValueError("manifest names must be unique")
        if len(names) != N_FEATURES:
            raise ValueError(f"manifest must have {N_FEATURES} entries, got {len(names)}")

    @property
    def names(self) -> list[str]:
        return [e.name for e in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class FeatureMatrix:
    manifest: FeatureManifest
    values: np.ndarray           # n_epochs x 152
    missing_mask: np.ndarray     # True where the entry is missing
    labels: Optional[Hypnogram] = None
    subject_id: str = ""

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.missing_mask = np.asarray(self.missing_mask, dtype=bool)
        if self.values.shape != self.missing_mask.shape:
            raise ValueError("values and missing_mask shapes differ")
        if self.values.ndim != 2 or self.values.shape[1] != len(self.manifest):
            raise ManifestMismatch(
                f"matrix has {self.values.shape[1] if self.values.ndim == 2 else '?'} "
                f"columns, manifest has {len(self.manifest)}")

    @property
    def n_epochs(self) -> int:
        return self.values.shape[0]


@dataclass
class NormStats:
    manifest: FeatureManifest
    mean: np.ndarray
    sd: np.ndarray
    constant: np.ndarray  # True where the training column had zero variance


# --- manifest construction ------------------------------------------------

def _entries(keys: list[str], source: str, window_n: int, units: str = "",
             name: str = "{}") -> list[ManifestEntry]:
    return [ManifestEntry(name.format(k), source, window_n, units, k) for k in keys]


def build_manifest(profile: str = "single") -> FeatureManifest:
    """The canonical manifest for a breathing-channel profile."""
    if profile not in ("single", "two-channel"):
        raise ValueError(f"unknown profile {profile!r}")
    base: list[ManifestEntry] = []
    base += _entries(features_rr.HRV_TIME_NAMES, "rr_time", 1, "s")
    base += _entries(features_rr.STAT_NAMES, "rr_stat", 1, "s")
    base += _entries(features_rr.NONLINEAR_NAMES, "rr_nonlinear", MULTI_WINDOW)
    base += _entries(["rr_f1"], "rr_novel", F1_WINDOW, "s")
    base += _entries(["rr_f2", "rr_f3"], "rr_novel", MULTI_WINDOW, "s")
    base += _entries(features_rr.FREQ_NAMES, "rr_freq", MULTI_WINDOW)
    base += _entries(features_resp.BREATH_NAMES, "breath_chest", 1, name="br_chest_{}")
    base += _entries(features_resp.CPC_NAMES, "cpc", MULTI_WINDOW)

    if profile == "two-channel":
        base += _entries(features_resp.BREATH_NAMES, "breath_abdomen", 1,
                         name="br_abd_{}")

    # second-window re-evaluations fill the remaining slots, in fixed order
    pool: list[ManifestEntry] = []
    pool += _entries(features_rr.HRV_TIME_NAMES, "rr_time", MULTI_WINDOW, "s",
                     name=f"{{}}_w{MULTI_WINDOW}")
    pool += _entries(features_rr.STAT_NAMES, "rr_stat", MULTI_WINDOW, "s",
                     name=f"{{}}_w{MULTI_WINDOW}")
    pool += _entries(features_rr.FREQ_NAMES, "rr_freq", 1, name="{}_w1")
    base += pool[:N_FEATURES - len(base)]
    return FeatureManifest(tuple(base))


def manifest_hash(manifest: FeatureManifest) -> str:
    import hashlib
    h = hashlib.sha256()
    for e in manifest.entries:
        h.update(f"{e.name}|{e.source}|{e.window_n}\n".encode())
    return h.hexdigest()


# --- assembly -------------------------------------------------------------

def _rr_epoch_means(times: np.ndarray, values: np.ndarray, grid: EpochGrid
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Per-epoch mean RR and interval counts over usable intervals."""
    idx = np.floor(times / grid.epoch_len_s).astype(int)
    ok = (idx >= 0) & (idx < grid.n_epochs)
    sums = np.bincount(idx[ok], weights=values[ok], minlength=grid.n_epochs)
    counts = np.bincount(idx[ok], minlength=grid.n_epochs)
    means = np.full(grid.n_epochs, np.nan)
    nz = counts > 0
    means[nz] = sums[nz] / counts[nz]
    return means, counts


class _Night:
    """One subject on its epoch grid: what the family evaluators read."""

    def __init__(self, subject: ProcessedSubject, grid: EpochGrid):
        self.subject = subject
        self.grid = grid
        self.times, self.values = usable_intervals(subject.rr)
        self.epoch_means, self.epoch_counts = _rr_epoch_means(
            self.times, self.values, grid)

    def rr_window(self, center: int, n: int):
        """Usable RR intervals starting inside the window: (times, values, t0, t1)."""
        t0, t1 = resolve_window(self.grid, center, n).time_span(self.grid)
        lo = np.searchsorted(self.times, t0, side="left")
        hi = np.searchsorted(self.times, t1, side="left")
        return self.times[lo:hi], self.values[lo:hi], t0, t1


# Each evaluator returns its family's dict for one centre epoch and window
# width.  Extractors are looked up on their modules at call time so that
# wrappers installed on those attributes see every call.

def _rr_time(night: _Night, center: int, n: int) -> dict:
    return features_rr.hrv_time_features(night.rr_window(center, n)[1])


def _rr_stat(night: _Night, center: int, n: int) -> dict:
    return features_rr.statistical_features(night.rr_window(center, n)[1])


def _rr_nonlinear(night: _Night, center: int, n: int) -> dict:
    return features_rr.nonlinear_features(night.rr_window(center, n)[1])


def _rr_freq(night: _Night, center: int, n: int) -> dict:
    return features_rr.rr_freq_features(*night.rr_window(center, n))


def _novel_or_nan(fn, *args) -> float:
    try:
        return fn(*args)
    except (MissingCenter, NoValidEpochs):
        return np.nan


def _rr_novel(night: _Night, center: int, n: int) -> dict:
    """The three sudden-variation features; each goes missing on its own."""
    means, counts, grid = night.epoch_means, night.epoch_counts, night.grid
    return {
        "rr_f1": _novel_or_nan(features_rr.novel_f1, means, counts, grid, center, n),
        "rr_f2": _novel_or_nan(features_rr.novel_f2, means, counts,
                               night.rr_window(center, n)[1], center),
        "rr_f3": _novel_or_nan(features_rr.novel_f3, means, counts, grid, center, n),
    }


def _breath(trace: SignalTrace, night: _Night, center: int, n: int) -> dict:
    seg, _ = window_trace_values(trace, night.grid, center, n)
    return features_resp.breath_features(seg, trace.sample_rate_hz)


def _breath_chest(night: _Night, center: int, n: int) -> dict:
    return _breath(night.subject.breath_chest, night, center, n)


def _breath_abdomen(night: _Night, center: int, n: int) -> dict:
    return _breath(night.subject.breath_abdomen, night, center, n)


def _cpc(night: _Night, center: int, n: int) -> dict:
    times, values, t0, t1 = night.rr_window(center, n)
    chest = night.subject.breath_chest
    seg, _ = window_trace_values(chest, night.grid, center, n)
    spec = features_resp.cpc_spectrum(times, values, seg, chest.sample_rate_hz,
                                      t0, t1)
    return features_resp.cpc_band_features(spec)


# manifest source -> (evaluator, errors that leave the family's entries missing)
_FAMILIES = {
    "rr_time": (_rr_time, InsufficientData),
    "rr_stat": (_rr_stat, InsufficientData),
    "rr_nonlinear": (_rr_nonlinear, InsufficientData),
    "rr_freq": (_rr_freq, InsufficientData),
    "rr_novel": (_rr_novel, ()),  # each feature catches its own errors
    "breath_chest": (_breath_chest, NoBreathsDetected),
    "breath_abdomen": (_breath_abdomen, NoBreathsDetected),
    "cpc": (_cpc, (InsufficientData, ZeroTotal, LengthMismatch)),
}


def assemble_feature_matrix(subject: ProcessedSubject,
                            manifest: Optional[FeatureManifest] = None,
                            epoch_len_s: float = 30.0,
                            max_missing_frac: float = 0.5) -> FeatureMatrix:
    """Evaluate every manifest feature for every epoch of one subject.

    Entries sharing a (source, window width) are computed by one evaluator
    call per epoch over exactly that width.
    """
    if manifest is None:
        manifest = build_manifest("single")
    two_channel = any(e.source == "breath_abdomen" for e in manifest.entries)
    if two_channel and subject.breath_abdomen is None:
        raise SubjectUnusable(
            f"{subject.subject_id}: missing channel breath_abdomen "
            "required by the two-channel profile")

    duration = min(subject.rr.peak_times_s[-1], subject.breath_chest.duration_s)
    grid = build_epoch_grid(duration, epoch_len_s)
    night = _Night(subject, grid)
    n_ep = grid.n_epochs

    groups: dict[tuple[str, int], list[int]] = {}
    for j, e in enumerate(manifest.entries):
        groups.setdefault((e.source, e.window_n), []).append(j)

    mat = np.full((n_ep, len(manifest)), np.nan)
    for (source, n), cols in groups.items():
        evaluate, errors = _FAMILIES[source]
        keys = [manifest.entries[j].key for j in cols]
        for c in range(n_ep):
            try:
                feats = evaluate(night, c, n)
            except errors:
                continue
            mat[c, cols] = [feats[k] for k in keys]

    missing = ~np.isfinite(mat)
    if missing.mean() > max_missing_frac:
        raise SubjectUnusable(
            f"{subject.subject_id}: {missing.mean():.0%} of feature entries missing")

    labels = None
    if subject.hypnogram is not None:
        hyp = merge_stages(subject.hypnogram)
        if len(hyp) >= n_ep:
            labels = Hypnogram(hyp.labels[:n_ep], "four", epoch_len_s)
    return FeatureMatrix(manifest=manifest, values=mat, missing_mask=missing,
                         labels=labels, subject_id=subject.subject_id)


# --- normalization --------------------------------------------------------

def fit_normalization(train: list[FeatureMatrix]) -> NormStats:
    """Per-feature mean/SD over all training epochs, ignoring missing entries.

    Population (divide-by-N) variance convention.
    """
    if not train:
        raise EmptyTrainingSet("no training matrices")
    manifest = train[0].manifest
    for m in train[1:]:
        if m.manifest.names != manifest.names:
            raise ManifestMismatch("training matrices disagree on manifest")
    stacked = np.vstack([m.values for m in train])
    mask = np.vstack([m.missing_mask for m in train])
    vals = np.where(mask, np.nan, stacked)
    with np.errstate(invalid="ignore"):
        mean = np.nanmean(vals, axis=0)
        sd = np.nanstd(vals, axis=0)  # population convention
    mean = np.where(np.isfinite(mean), mean, 0.0)
    sd = np.where(np.isfinite(sd), sd, 0.0)
    constant = sd == 0.0
    return NormStats(manifest=manifest, mean=mean, sd=sd, constant=constant)


def apply_normalization(matrix: FeatureMatrix, stats: NormStats) -> FeatureMatrix:
    """Z-score with training statistics; constant columns and missing entries
    map to 0 (the training mean)."""
    if matrix.manifest.names != stats.manifest.names:
        raise ManifestMismatch("matrix manifest differs from normalization stats")
    sd = np.where(stats.constant, 1.0, stats.sd)
    z = (matrix.values - stats.mean) / sd
    z = np.where(stats.constant[None, :], 0.0, z)
    z = np.where(matrix.missing_mask, 0.0, z)
    return FeatureMatrix(manifest=matrix.manifest, values=z,
                         missing_mask=matrix.missing_mask,
                         labels=matrix.labels, subject_id=matrix.subject_id)
