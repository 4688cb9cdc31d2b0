"""Minimal Daubechies-4 multilevel baseline estimation.

The baseline is the approximation branch of the shift-invariant (a trous)
decomposition: level j convolves with the scaling filter dilated by 2^j under
symmetric boundary extension, and detail coefficients are never materialized.

Each level applies the autocorrelation of the scaling filter rather than the
filter itself. That is equivalent to a forward pass followed by a
time-reversed pass, giving an exactly zero-phase smoother whose frequency
response is |H|^2 in [0, 1]; with the raw asymmetric filter, accumulated
phase rotation across levels makes the residual x - baseline overshoot in
the transition band.

The levels are linear and their kernels symmetric, so depth d is one FIR
filter, the dilated kernels convolved over j < d: 14 * (2^d - 1) + 1 taps
(3,571 at depth 8, for 25 Hz), applied once to the signal extended once. That
equals the level-by-level cascade because a symmetric kernel commutes with
half-sample symmetric extension. A trace shorter than the kernel's half-length
is reflected more than once.
"""
from __future__ import annotations

import numpy as np
from scipy import signal as sps

# Daubechies-4 scaling coefficients h0..h7, normalized to unit DC gain so a
# constant signal is reproduced exactly at every level.
_DB4_H = np.array([
    0.23037781330885523, 0.7148465705525415, 0.6308807679295904,
    -0.02798376941698385, -0.18703481171888114, 0.030841381835986965,
    0.032883011666982945, -0.010597401784997278,
])
_DB4_H = _DB4_H / _DB4_H.sum()
# symmetric zero-phase kernel, 15 taps, unit DC gain
_DB4_G = np.convolve(_DB4_H, _DB4_H[::-1])
BASELINE_CORNER_HZ = 0.1


def approximation(x: np.ndarray, depth: int) -> np.ndarray:
    """Deepest-level approximation (baseline) of a 1-D signal."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    g = _DB4_G
    for j in range(1, depth):
        dilated = np.zeros((len(_DB4_G) - 1) * 2 ** j + 1)
        dilated[:: 2 ** j] = _DB4_G
        g = sps.convolve(g, dilated)
    ext = np.pad(np.asarray(x, dtype=float), len(g) // 2, mode="symmetric")
    return sps.oaconvolve(ext, g, mode="valid")


def baseline_depth(sample_rate_hz: float) -> int:
    """Decomposition depth putting the approximation band below corner/2."""
    return int(np.ceil(np.log2(sample_rate_hz / BASELINE_CORNER_HZ)))
