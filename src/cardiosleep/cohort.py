"""Subject selection: apnea grading, regular-sleep filter, stage merging, splits."""
from __future__ import annotations

from enum import IntEnum
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyHypnogram, EmptyList, NegativeAhi
from .types import FourStage, Hypnogram, SixStage, SubjectRecord


class AhiLevel(IntEnum):
    NO_APNEA = 0
    MILD = 1
    MEDIUM = 2
    SEVERE = 3


def classify_ahi(ahi: float) -> AhiLevel:
    """Apnea severity from events/hour. The boundary AHI = 15, which the
    published intervals leave unassigned, is closed into MEDIUM."""
    if ahi < 0:
        raise NegativeAhi(f"AHI must be non-negative, got {ahi}")
    if ahi < 5:
        return AhiLevel.NO_APNEA
    if ahi < 15:
        return AhiLevel.MILD
    if ahi <= 30:
        return AhiLevel.MEDIUM
    return AhiLevel.SEVERE


def is_regular_sleep(hypnogram: Hypnogram, deep_min_frac: float = 0.05,
                     rem_min_frac: float = 0.15,
                     denominator: str = "all") -> bool:
    """True when deep sleep (S3+S4) is at least 5% and REM at least 15%.

    ``denominator`` chooses the epoch base: "all" scored epochs (default) or
    "sleep" (non-wake epochs only).
    """
    if hypnogram.scheme != "six":
        raise ValueError("regular-sleep filter needs a six-class hypnogram")
    if len(hypnogram) == 0:
        raise EmptyHypnogram("hypnogram has no epochs")
    labels = hypnogram.labels
    deep = sum(1 for s in labels if s in (SixStage.S3, SixStage.S4))
    rem = sum(1 for s in labels if s is SixStage.REM)
    if denominator == "sleep":
        total = sum(1 for s in labels if s is not SixStage.W)
        if total == 0:
            return False
    else:
        total = len(labels)
    return deep / total >= deep_min_frac and rem / total >= rem_min_frac


_MERGE = {SixStage.W: FourStage.WAKE, SixStage.REM: FourStage.REM,
          SixStage.S1: FourStage.LIGHT, SixStage.S2: FourStage.LIGHT,
          SixStage.S3: FourStage.DEEP, SixStage.S4: FourStage.DEEP}


def merge_stages(hypnogram: Hypnogram) -> Hypnogram:
    """Six-class to four-class: S1/S2 -> Light, S3/S4 -> Deep. Already
    four-class input passes through unchanged."""
    if hypnogram.scheme == "four":
        return hypnogram
    return Hypnogram(tuple(_MERGE[s] for s in hypnogram.labels), "four",
                     hypnogram.epoch_len_s)


def select_cohort(subjects: Iterable[SubjectRecord],
                  deep_min_frac: float = 0.05, rem_min_frac: float = 0.15,
                  denominator: str = "all") -> tuple[list[SubjectRecord], list[str]]:
    """Keep subjects with no apnea and regular sleep; merge their hypnograms
    to four-class. Returns (kept subjects, log lines for excluded/kept)."""
    kept, log = [], []
    for s in subjects:
        if s.ahi is None or s.hypnogram is None:
            log.append(f"{s.subject_id}\texcluded\tmissing metadata")
            continue
        try:
            level = classify_ahi(s.ahi)
        except NegativeAhi:
            log.append(f"{s.subject_id}\texcluded\tnegative AHI")
            continue
        if level is not AhiLevel.NO_APNEA:
            log.append(f"{s.subject_id}\texcluded\tAHI {s.ahi:.1f} ({level.name})")
            continue
        hyp = s.hypnogram
        if hyp.scheme == "six":
            if not is_regular_sleep(hyp, deep_min_frac, rem_min_frac, denominator):
                log.append(f"{s.subject_id}\texcluded\tirregular sleep")
                continue
            hyp = merge_stages(hyp)
        s = SubjectRecord(subject_id=s.subject_id, ecg=s.ecg,
                          breath_chest=s.breath_chest,
                          breath_abdomen=s.breath_abdomen,
                          hypnogram=hyp, ahi=s.ahi)
        kept.append(s)
        log.append(f"{s.subject_id}\tkept\tAHI {s.ahi:.1f}")
    return kept, log


def split_subjects(subject_ids: Sequence[str], ratio: float = 0.7,
                   seed: int = 0) -> tuple[list[str], list[str]]:
    """Deterministic subject-disjoint split; floor(ratio*N) ids go to train."""
    ids = list(subject_ids)
    if not ids:
        raise EmptyList("no subjects to split")
    if not 0 < ratio < 1:
        raise ValueError(f"ratio must be in (0,1), got {ratio}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    shuffled = [ids[i] for i in order]
    n_train = int(np.floor(ratio * len(ids)))
    return shuffled[:n_train], shuffled[n_train:]
