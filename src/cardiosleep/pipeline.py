"""Glue between the stages: raw record -> RR/breathing -> features -> sequences."""
from __future__ import annotations

from typing import Optional

import numpy as np

from . import preprocess
from .errors import SubjectUnusable
from .registry import PROFILES, FeatureMatrix
from .types import ProcessedSubject, SubjectRecord


def preprocess_subject(record: SubjectRecord,
                       profile: str = "single") -> ProcessedSubject:
    """ECG to cleaned RR series, and the breathing belts the profile reads
    to baseline-free, low-passed traces: the chest belt, plus the abdomen
    belt, where present, for ``"two-channel"``."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    if record.ecg is None or record.breath_chest is None:
        raise SubjectUnusable(f"{record.subject_id}: missing ECG or chest channel")
    peaks = preprocess.detect_r_peaks(record.ecg)
    rr = preprocess.rr_from_peaks(peaks, record.ecg.sample_rate_hz)
    chest = preprocess.preprocess_breathing(record.breath_chest)
    abdomen = (preprocess.preprocess_breathing(record.breath_abdomen)
               if profile == "two-channel" and record.breath_abdomen is not None
               else None)
    return ProcessedSubject(subject_id=record.subject_id, rr=rr,
                            breath_chest=chest, breath_abdomen=abdomen,
                            hypnogram=record.hypnogram)


def matrix_to_sequence(matrix: FeatureMatrix) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """(features, labels-or-None) ready for the sequence model. The matrix
    must already be normalized (missing entries imputed)."""
    y = matrix.labels.indices() if matrix.labels is not None else None
    return matrix.values, y
