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
from .epoching import EPOCH_S, count_epochs, resolve_window
from .errors import (EmptyTrainingSet, InsufficientData, LengthMismatch,
                     ManifestMismatch, MissingCenter, NoBreathsDetected,
                     NoValidEpochs, SubjectUnusable, ZeroTotal)
from .preprocess import usable_intervals
from .types import Hypnogram, ProcessedSubject, SignalTrace

N_FEATURES = 152

F1_WINDOW = 119
MULTI_WINDOW = 9

MAX_MISSING_FRAC = 0.5  # a subject with more missing feature entries is unusable


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

def _rr_epoch_means(times: np.ndarray, values: np.ndarray, n_epochs: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Per-epoch mean RR and interval counts over usable intervals."""
    idx = np.floor(times / EPOCH_S).astype(int)
    ok = (idx >= 0) & (idx < n_epochs)
    sums = np.bincount(idx[ok], weights=values[ok], minlength=n_epochs)
    counts = np.bincount(idx[ok], minlength=n_epochs)
    means = np.full(n_epochs, np.nan)
    nz = counts > 0
    means[nz] = sums[nz] / counts[nz]
    return means, counts


@dataclass(frozen=True)
class _Window:
    """One centre epoch's feature window of one width, clipped to the night:
    epochs ``first..last``, seconds ``[t0, t1)`` and the usable RR intervals
    starting inside it."""
    center: int
    n: int
    first: int
    last: int
    t0: float
    t1: float
    rr_times: np.ndarray
    rr_values: np.ndarray

    def samples(self, trace: SignalTrace) -> np.ndarray:
        """The trace's samples whose timestamps lie inside ``[t0, t1)``."""
        rate = trace.sample_rate_hz
        lo = int(np.ceil(self.t0 * rate - 1e-9))
        hi = min(int(np.ceil(self.t1 * rate - 1e-9)), len(trace.samples))
        return trace.samples[lo:hi]


def _windows(n_epochs: int, times: np.ndarray, values: np.ndarray, n: int
             ) -> list[_Window]:
    """Every epoch's window of width n, indexed by centre epoch."""
    out = []
    for center in range(n_epochs):
        first, last = resolve_window(n_epochs, center, n)
        t0, t1 = first * EPOCH_S, (last + 1) * EPOCH_S
        lo, hi = np.searchsorted(times, (t0, t1), side="left")
        out.append(_Window(center, n, first, last, t0, t1,
                           times[lo:hi], values[lo:hi]))
    return out


class _Night:
    """One subject on its epoch grid, with its windows built once per width:
    what the family evaluators read."""

    def __init__(self, subject: ProcessedSubject, n_epochs: int, widths):
        self.subject = subject
        times, values = usable_intervals(subject.rr)
        self.epoch_means, self.epoch_counts = _rr_epoch_means(
            times, values, n_epochs)
        self.windows = {n: _windows(n_epochs, times, values, n) for n in widths}


def _breath(trace: SignalTrace, w: _Window) -> dict:
    return features_resp.breath_features(w.samples(trace), trace.sample_rate_hz)


def _cpc(night: _Night, w: _Window) -> dict:
    chest = night.subject.breath_chest
    spec = features_resp.cpc_spectrum(w.rr_times, w.rr_values, w.samples(chest),
                                      chest.sample_rate_hz, w.t0, w.t1)
    return features_resp.cpc_band_features(spec)


# manifest key or, failing that, source -> (the family's dict for one window,
# errors that leave the family's entries missing).  Extractors are looked up
# on their modules at call time so that wrappers installed on those
# attributes see every call.
_FAMILIES = {
    "rr_time": (lambda night, w: features_rr.hrv_time_features(w.rr_values),
                InsufficientData),
    "rr_stat": (lambda night, w: features_rr.statistical_features(w.rr_values),
                InsufficientData),
    "rr_nonlinear": (lambda night, w: features_rr.nonlinear_features(w.rr_values),
                     InsufficientData),
    "rr_freq": (lambda night, w: features_rr.rr_freq_features(
        w.rr_times, w.rr_values, w.t0, w.t1), InsufficientData),
    # the sudden-variation features (source rr_novel) differ in width and error
    "rr_f1": (lambda night, w: {"rr_f1": features_rr.novel_f1(
        night.epoch_means, night.epoch_counts, w.center, w.n)}, MissingCenter),
    "rr_f2": (lambda night, w: {"rr_f2": features_rr.novel_f2(
        night.epoch_means, night.epoch_counts, w.rr_values, w.center)},
              MissingCenter),
    "rr_f3": (lambda night, w: {"rr_f3": features_rr.novel_f3(
        night.epoch_means, night.epoch_counts, w.center, w.n)}, NoValidEpochs),
    "breath_chest": (lambda night, w: _breath(night.subject.breath_chest, w),
                     NoBreathsDetected),
    "breath_abdomen": (lambda night, w: _breath(night.subject.breath_abdomen, w),
                       NoBreathsDetected),
    "cpc": (_cpc, (InsufficientData, ZeroTotal, LengthMismatch)),
}


def assemble_feature_matrix(subject: ProcessedSubject,
                            manifest: Optional[FeatureManifest] = None) -> FeatureMatrix:
    """Evaluate every manifest feature for every epoch of one subject.

    Entries sharing a family (their key's own ``_FAMILIES`` row if it has
    one, else their source's) and a window width are computed by one
    evaluator call per epoch over exactly that width. A hypnogram shorter
    than the epoch grid is a ``LengthMismatch``; a longer one is cut to the
    grid.
    """
    if manifest is None:
        manifest = build_manifest("single")
    two_channel = any(e.source == "breath_abdomen" for e in manifest.entries)
    if two_channel and subject.breath_abdomen is None:
        raise SubjectUnusable(
            f"{subject.subject_id}: missing channel breath_abdomen "
            "required by the two-channel profile")

    duration = min(subject.rr.peak_times_s[-1], subject.breath_chest.duration_s)
    n_ep = count_epochs(duration)
    labels = None
    if subject.hypnogram is not None:
        if len(subject.hypnogram) < n_ep:
            raise LengthMismatch(
                f"{subject.subject_id}: hypnogram has {len(subject.hypnogram)} "
                f"epochs, fewer than the recording's {n_ep}")
        labels = Hypnogram(merge_stages(subject.hypnogram).labels[:n_ep], "four")

    night = _Night(subject, n_ep, {e.window_n for e in manifest.entries})

    # family-major: each (family, width) group runs over every epoch before
    # the next starts, which measured faster than every family per epoch
    groups: dict[tuple[str, int], list[int]] = {}
    for j, e in enumerate(manifest.entries):
        family = e.key if e.key in _FAMILIES else e.source
        groups.setdefault((family, e.window_n), []).append(j)

    mat = np.full((n_ep, len(manifest)), np.nan)
    for (family, n), cols in groups.items():
        evaluate, errors = _FAMILIES[family]
        keys = [manifest.entries[j].key for j in cols]
        for w in night.windows[n]:
            try:
                feats = evaluate(night, w)
            except errors:
                continue
            mat[w.center, cols] = [feats[k] for k in keys]

    missing = ~np.isfinite(mat)
    if missing.mean() > MAX_MISSING_FRAC:
        raise SubjectUnusable(
            f"{subject.subject_id}: {missing.mean():.0%} of feature entries missing")
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
