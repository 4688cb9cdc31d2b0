"""Core domain types: signal traces, hypnograms, RR series, subject records."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidSeries


class SixStage(Enum):
    W = "W"
    REM = "R"
    S1 = "1"
    S2 = "2"
    S3 = "3"
    S4 = "4"


class FourStage(Enum):
    WAKE = "WAKE"
    LIGHT = "LIGHT"
    DEEP = "DEEP"
    REM = "REM"

    @property
    def index(self) -> int:
        return FOUR_STAGE_ORDER.index(self)


FOUR_STAGE_ORDER = tuple(FourStage)


def _finite_reals(name: str, values) -> np.ndarray:
    """``values`` as a float array, refused unless 1-D, real and finite."""
    a = np.asarray(values)
    if a.ndim != 1 or a.dtype.kind not in "biuf":
        raise InvalidSeries(f"{name} must be a 1-D array of real numbers")
    a = a.astype(float, copy=False)
    if not np.isfinite(a).all():
        raise InvalidSeries(f"{name} must be finite")
    return a


@dataclass(frozen=True)
class SignalTrace:
    """Uniformly sampled channel."""

    channel_label: str
    sample_rate_hz: float
    samples: np.ndarray

    def __post_init__(self):
        rate = np.asarray(self.sample_rate_hz)
        if rate.shape != () or rate.dtype.kind not in "biuf" or not 0 < rate < np.inf:
            raise InvalidSeries("sample_rate_hz must be one finite positive number")
        object.__setattr__(self, "samples", _finite_reals("samples", self.samples))

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz

    def with_samples(self, samples: np.ndarray) -> "SignalTrace":
        return SignalTrace(self.channel_label, self.sample_rate_hz, samples)


@dataclass(frozen=True)
class Hypnogram:
    """Per-epoch sleep stage labels, six-class or four-class."""

    labels: tuple
    scheme: str  # "six" | "four"

    def __post_init__(self):
        cls = SixStage if self.scheme == "six" else FourStage
        if self.scheme not in ("six", "four"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        for lab in self.labels:
            if not isinstance(lab, cls):
                raise ValueError(f"label {lab!r} not in scheme {self.scheme}")

    def __len__(self) -> int:
        return len(self.labels)

    def indices(self) -> np.ndarray:
        """Four-class labels as integer indices (Wake=0, Light=1, Deep=2, REM=3)."""
        if self.scheme != "four":
            raise ValueError("indices() requires a four-class hypnogram")
        return np.array([lab.index for lab in self.labels], dtype=int)


def four_hypnogram_from_indices(idx: Sequence[int]) -> Hypnogram:
    return Hypnogram(tuple(FOUR_STAGE_ORDER[int(i)] for i in idx), "four")


@dataclass(frozen=True)
class RrSeries:
    """R-peak times and the RR intervals between them.

    ``valid_mask[i]`` is False where interval i was physiologically rejected;
    rejected runs of up to three intervals carry interpolated values but keep
    their False mask.
    """

    peak_times_s: np.ndarray
    intervals_s: np.ndarray
    valid_mask: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "peak_times_s", _finite_reals("peak times", self.peak_times_s))
        object.__setattr__(self, "intervals_s", _finite_reals("intervals", self.intervals_s))
        mask = np.asarray(self.valid_mask)
        if mask.ndim != 1 or mask.dtype != bool:
            raise InvalidSeries("valid_mask must be a 1-D boolean array")
        object.__setattr__(self, "valid_mask", mask)
        if len(self.intervals_s) != len(self.peak_times_s) - 1:
            raise InvalidSeries("len(intervals) must equal len(peaks) - 1")
        if len(self.valid_mask) != len(self.intervals_s):
            raise InvalidSeries("valid_mask length must match intervals")
        if np.any(np.diff(self.peak_times_s) <= 0):
            raise InvalidSeries("peak times must be strictly increasing")


@dataclass
class SubjectRecord:
    """One subject-night: raw channels plus optional annotations."""

    subject_id: str
    ecg: Optional[SignalTrace] = None
    breath_chest: Optional[SignalTrace] = None
    breath_abdomen: Optional[SignalTrace] = None
    hypnogram: Optional[Hypnogram] = None
    ahi: Optional[float] = None


@dataclass
class ProcessedSubject:
    """Preprocessed channels ready for feature extraction."""

    subject_id: str
    rr: RrSeries
    breath_chest: SignalTrace
    breath_abdomen: Optional[SignalTrace] = None
    hypnogram: Optional[Hypnogram] = None
