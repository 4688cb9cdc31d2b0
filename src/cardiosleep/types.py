"""Core domain types: signal traces, hypnograms, RR series, subject records."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np


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
        return _FOUR_ORDER.index(self)


_FOUR_ORDER = [FourStage.WAKE, FourStage.LIGHT, FourStage.DEEP, FourStage.REM]

FOUR_STAGE_ORDER = tuple(_FOUR_ORDER)


def four_stage_from_index(i: int) -> FourStage:
    return _FOUR_ORDER[i]


@dataclass(frozen=True)
class SignalTrace:
    """Uniformly sampled channel."""

    channel_label: str
    sample_rate_hz: float
    samples: np.ndarray
    start_time_s: float = 0.0

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz

    def with_samples(self, samples: np.ndarray) -> "SignalTrace":
        return SignalTrace(self.channel_label, self.sample_rate_hz,
                           np.asarray(samples, dtype=float), self.start_time_s)


@dataclass(frozen=True)
class Hypnogram:
    """Per-epoch sleep stage labels, six-class or four-class."""

    labels: tuple
    scheme: str  # "six" | "four"
    epoch_len_s: float = 30.0

    def __post_init__(self):
        if self.epoch_len_s <= 0:
            raise ValueError("epoch_len_s must be positive")
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


def four_hypnogram_from_indices(idx: Sequence[int], epoch_len_s: float = 30.0) -> Hypnogram:
    return Hypnogram(tuple(four_stage_from_index(int(i)) for i in idx), "four", epoch_len_s)


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
        object.__setattr__(self, "peak_times_s", np.asarray(self.peak_times_s, dtype=float))
        object.__setattr__(self, "intervals_s", np.asarray(self.intervals_s, dtype=float))
        object.__setattr__(self, "valid_mask", np.asarray(self.valid_mask, dtype=bool))
        if len(self.intervals_s) != len(self.peak_times_s) - 1:
            raise ValueError("len(intervals) must equal len(peaks) - 1")
        if len(self.valid_mask) != len(self.intervals_s):
            raise ValueError("valid_mask length must match intervals")
        if np.any(np.diff(self.peak_times_s) <= 0):
            raise ValueError("peak times must be strictly increasing")


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
