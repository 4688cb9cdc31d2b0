"""30-second epoch grid and odd-width multi-epoch sliding windows.

A feature computed over a window of n consecutive epochs (n odd) is assigned
to the middle epoch. Near recording edges the window shrinks to the available
epochs and the effective width is reported alongside the values.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RecordingTooShort
from .types import SignalTrace


@dataclass(frozen=True)
class EpochGrid:
    epoch_len_s: float
    n_epochs: int

    @property
    def duration_s(self) -> float:
        return self.n_epochs * self.epoch_len_s

    def epoch_span(self, epoch: int) -> tuple[float, float]:
        return epoch * self.epoch_len_s, (epoch + 1) * self.epoch_len_s


@dataclass(frozen=True)
class WindowSpan:
    """Resolved (possibly shrunken) window around a center epoch."""

    center_epoch: int
    first_epoch: int
    last_epoch: int  # inclusive

    @property
    def effective_n(self) -> int:
        return self.last_epoch - self.first_epoch + 1

    def time_span(self, grid: EpochGrid) -> tuple[float, float]:
        return (self.first_epoch * grid.epoch_len_s,
                (self.last_epoch + 1) * grid.epoch_len_s)


def build_epoch_grid(duration_s: float, epoch_len_s: float = 30.0) -> EpochGrid:
    """Partition a recording into whole epochs, dropping the trailing remainder."""
    if epoch_len_s <= 0:
        raise ValueError("epoch_len_s must be positive")
    if duration_s < epoch_len_s:
        raise RecordingTooShort(
            f"recording of {duration_s:.1f} s is shorter than one epoch ({epoch_len_s:.0f} s)")
    return EpochGrid(epoch_len_s=float(epoch_len_s),
                     n_epochs=int(np.floor(duration_s / epoch_len_s)))


def resolve_window(grid: EpochGrid, center: int, n: int) -> WindowSpan:
    """Clip a centered odd-width window to the epoch grid."""
    if n < 1 or n % 2 == 0:
        raise ValueError("window width must be a positive odd number")
    if not 0 <= center < grid.n_epochs:
        raise ValueError(f"center epoch {center} outside grid of {grid.n_epochs} epochs")
    half = n // 2
    first = max(0, center - half)
    last = min(grid.n_epochs - 1, center + half)
    return WindowSpan(center_epoch=center, first_epoch=first, last_epoch=last)


def window_trace_values(trace: SignalTrace, grid: EpochGrid, center: int, n: int
                        ) -> tuple[np.ndarray, WindowSpan]:
    """Samples whose timestamps lie inside the window."""
    span = resolve_window(grid, center, n)
    t0, t1 = span.time_span(grid)
    rate = trace.sample_rate_hz
    lo = int(np.ceil(t0 * rate - 1e-9))
    hi = min(int(np.ceil(t1 * rate - 1e-9)), len(trace.samples))
    return trace.samples[lo:hi], span
