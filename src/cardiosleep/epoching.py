"""30-second epoch grid and odd-width multi-epoch sliding windows.

A recording's grid is its epoch count; epoch ``e`` covers
``[e * EPOCH_S, (e + 1) * EPOCH_S)``. A feature computed over a window of n
consecutive epochs (n odd) is assigned to the middle epoch. Near recording
edges the window shrinks to the available epochs; a window is the
``(first, last)`` pair of inclusive epoch indices it covers.
"""
from __future__ import annotations

import numpy as np

from .errors import RecordingTooShort

EPOCH_S = 30.0  # the scoring epoch (Rechtschaffen & Kales; AASM)


def count_epochs(duration_s: float) -> int:
    """Whole epochs in a recording, dropping the trailing remainder."""
    if duration_s < EPOCH_S:
        raise RecordingTooShort(
            f"recording of {duration_s:.1f} s is shorter than one epoch ({EPOCH_S:.0f} s)")
    return int(np.floor(duration_s / EPOCH_S))


def resolve_window(n_epochs: int, center, n: int):
    """Clip a centered odd-width window to the epoch grid: (first, last),
    for one centre or an array of them."""
    if n < 1 or n % 2 == 0:
        raise ValueError("window width must be a positive odd number")
    center = np.asarray(center)
    if np.any((center < 0) | (center >= n_epochs)):
        raise ValueError(f"center epoch outside grid of {n_epochs} epochs")
    half = n // 2
    return np.maximum(0, center - half), np.minimum(n_epochs - 1, center + half)
