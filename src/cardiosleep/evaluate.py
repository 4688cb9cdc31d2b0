"""Evaluation artifacts: confusion matrix, accuracy, Cohen's kappa,
per-subject accuracy CDF, case ranking, and permutation feature importance."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import blstm
from .errors import DegenerateMarginals, EmptyList, EmptyMatrix, LengthMismatch
from .types import FOUR_STAGE_ORDER, Hypnogram

N_CLASSES = 4
CLASS_NAMES = [s.value for s in FOUR_STAGE_ORDER]


@dataclass(frozen=True)
class ConfusionMatrix:
    counts: np.ndarray  # rows = truth, columns = prediction

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.shape != (N_CLASSES, N_CLASSES) or np.any(c < 0):
            raise ValueError("confusion matrix must be 4x4 with non-negative counts")
        object.__setattr__(self, "counts", c.astype(int))

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(self.counts + other.counts)


def confusion_matrix(pred: Hypnogram, truth: Hypnogram) -> ConfusionMatrix:
    if len(pred) != len(truth):
        raise LengthMismatch(f"pred has {len(pred)} epochs, truth {len(truth)}")
    p = pred.indices()
    t = truth.indices()
    counts = np.zeros((N_CLASSES, N_CLASSES), dtype=int)
    np.add.at(counts, (t, p), 1)
    return ConfusionMatrix(counts)


def accuracy(cm: ConfusionMatrix) -> float:
    if cm.total == 0:
        raise EmptyMatrix("confusion matrix has no epochs")
    return float(np.trace(cm.counts)) / cm.total


def cohens_kappa(cm: ConfusionMatrix) -> float:
    """(p_o - p_e) / (1 - p_e) with chance agreement p_e from the marginals."""
    if cm.total == 0:
        raise EmptyMatrix("confusion matrix has no epochs")
    n = float(cm.total)
    p_o = np.trace(cm.counts) / n
    rows = cm.counts.sum(axis=1) / n
    cols = cm.counts.sum(axis=0) / n
    p_e = float(np.sum(rows * cols))
    if p_e >= 1.0:
        raise DegenerateMarginals("both raters constant; kappa undefined")
    return float((p_o - p_e) / (1.0 - p_e))


def per_subject_cdf(accuracies: Sequence[float]) -> list[tuple[float, float]]:
    """Empirical CDF as right-continuous (accuracy, cumulative fraction) steps."""
    if len(accuracies) == 0:
        raise EmptyList("no per-subject accuracies")
    xs = np.sort(np.asarray(accuracies, dtype=float))
    n = len(xs)
    uniq = np.unique(xs)
    return [(float(x), float(np.searchsorted(xs, x, side="right") / n))
            for x in uniq]


def rank_cases(per_subject: dict) -> tuple[str, str, str]:
    """(best, median, worst) subject ids; median is the lower middle for even
    counts; ties break by lexical subject id."""
    if not per_subject:
        raise EmptyList("no subjects to rank")
    ranked = sorted(per_subject.items(), key=lambda kv: (kv[1], kv[0]))
    worst = ranked[0][0]
    best = min(per_subject.items(), key=lambda kv: (-kv[1], kv[0]))[0]
    median = ranked[(len(ranked) - 1) // 2][0]
    return best, median, worst


def permutation_importance(params: blstm.BlstmParams,
                           sequences: Sequence[tuple],
                           feature_names: Sequence[str],
                           seed: int = 0, repeats: int = 5
                           ) -> list[tuple[str, float]]:
    """Mean accuracy drop when one feature column is shuffled across epochs
    within each sequence, averaged over seeded repeats; sorted descending."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if not sequences:
        raise EmptyList("no validation sequences")
    if len(feature_names) != params.input_dim:
        raise ValueError("feature_names length must match model input dim")

    def dataset_accuracy(seqs) -> float:
        return blstm.evaluate_loss(params, seqs, np.ones(params.classes))[1]

    base = dataset_accuracy(sequences)
    results = []
    for j, name in enumerate(feature_names):
        drops = []
        for r in range(repeats):
            rng = np.random.default_rng(seed + j * 1000 + r)
            shuffled = []
            for X, y in sequences:
                Xp = np.array(X, dtype=float, copy=True)
                rng.shuffle(Xp[:, j])
                shuffled.append((Xp, y))
            drops.append(base - dataset_accuracy(shuffled))
        results.append((name, float(np.mean(drops))))
    results.sort(key=lambda kv: (-kv[1], kv[0]))
    return results


# --- report rendering -----------------------------------------------------

def format_confusion(cm: ConfusionMatrix) -> str:
    width = max(6, max(len(n) for n in CLASS_NAMES) + 1)
    lines = ["truth\\pred".ljust(12) + "".join(n.rjust(width) for n in CLASS_NAMES)]
    for i, name in enumerate(CLASS_NAMES):
        lines.append(name.ljust(12)
                     + "".join(str(int(c)).rjust(width) for c in cm.counts[i]))
    return "\n".join(lines) + "\n"
