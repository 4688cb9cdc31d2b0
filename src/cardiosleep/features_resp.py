"""Breathing-signal statistics and cardiopulmonary-coupling band features.

``breath_features(samples, sample_rate_hz, lo, hi)`` evaluates every
breathing window ``samples[lo:hi]`` of a night at once: windows of one length
are the rows of a block. Every local maximum, of a breath, a tied breath or
a spectrum, comes from ``find_peaks`` over the block's rows laid end to end,
NaN apart: one call for the peaks and troughs together, one for the tied
maxima and one for the spectral peaks. Against the window-by-window
definition, kept as the oracle in the tests, every entry is bit for bit the
same but two kinds, which agree within rtol 1e-12: the breath-cycle means and
SDs (``bb_*``, ``amp_*``, ``trough_*``, ``ie_ratio_mean``), summed over the
masked cells of zero-padded rows, and the skewness and kurtosis, which take
cubes and fourth powers by multiplication.

``cpc_spectrum`` interpolates each series onto the 4 Hz grid once and makes
one batched Welch estimate per window length of the night; it agrees with its
window-by-window definition within the RR families' tolerance.
"""
from __future__ import annotations

import numpy as np
from scipy import signal as sps

from .features_rr import (RESAMPLE_HZ, _band, _diffs, _grid_gather,
                          _grid_index, _hann_spectrum, _in_blocks, _moments,
                          _spectral_shape, _zero_crossings)

BREATH_NAMES = [
    # time domain (15)
    "peak_count", "bb_mean", "bb_sd", "amp_mean", "amp_sd",
    "trough_mean", "trough_sd", "ie_ratio_mean", "sig_mean", "sig_sd",
    "sig_range", "sig_kurt", "sig_skew", "sig_zcr", "bb_succ_sd",
    # frequency domain (10)
    "dom_freq", "dom_power", "total_energy", "band_01_04", "spec_entropy",
    "spec_centroid", "dom_total_ratio", "dom_bandwidth", "peak2_freq",
    "peak2_power",
]

CPC_NAMES = ["cpc_sum_vlf", "cpc_sum_lf", "cpc_sum_hf",
             "cpc_ratio_vlf", "cpc_ratio_lf", "cpc_ratio_hf"]

# band boundaries; a bin exactly on a boundary belongs to the higher band
CPC_VLF = (0.0, 0.01)
CPC_LF = (0.01, 0.1)
CPC_HF = (0.1, 0.4)

MIN_BREATH_SPACING_S = 1.5
PROMINENCE_FRAC = 0.10
CPC_SEGMENTS = 8


def _detect_breaths(x: np.ndarray, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """Peak and trough sample indices of a breathing segment."""
    ptp = np.ptp(x)
    if ptp <= 0:
        return np.array([], dtype=int), np.array([], dtype=int)
    dist = max(1, int(round(MIN_BREATH_SPACING_S * fs)))
    prom = PROMINENCE_FRAC * ptp
    peaks, _ = sps.find_peaks(x, distance=dist, prominence=prom)
    troughs, _ = sps.find_peaks(-x, distance=dist, prominence=prom)
    return peaks, troughs


def _tied_maxima(flat: np.ndarray, dist: int) -> np.ndarray:
    """Positions of the local maxima of ``flat``, as ``find_peaks`` takes
    them (the middle of a flat top), that have one of equal height closer
    than ``dist``."""
    pos = sps.find_peaks(flat)[0]
    pos = pos[np.argsort(flat[pos], kind="stable")]
    height = flat[pos]
    close = (height[1:] == height[:-1]) & (pos[1:] - pos[:-1] < dist)
    return pos[1:][close]


def _row_extrema(X: np.ndarray, fs: float):
    """``_detect_breaths``' peaks and then troughs of every row of X, each as
    a zero-padded block of each row's indices, the mask of the cells that
    hold one, and each row's count.

    One ``find_peaks`` call searches the rows and their negations laid end
    to end, ``dist`` NaN samples apart, where no peak, plateau or prominence
    search crosses from one row to the next and the distance rule never
    reaches across; rows with ``ptp <= 0`` are all NaN, and the prominence
    is given per sample. The distance rule visits equal heights in an
    unstable order, so a row (or negated row) with two equal maxima closer
    than ``dist`` takes its own call."""
    rows, n = X.shape
    dist = max(1, int(round(MIN_BREATH_SPACING_S * fs)))
    ptp = np.tile(np.ptp(X, axis=1), 2)
    live = ptp > 0
    stride = n + dist
    flat = np.full((2 * rows, stride), np.nan)
    flat[live, :n] = np.vstack([X, -X])[live]
    flat = flat.ravel()
    pos, _ = sps.find_peaks(flat, distance=dist,
                            prominence=np.repeat(PROMINENCE_FRAC * ptp, stride))
    tied = np.unique(_tied_maxima(flat, dist) // stride)
    pos = np.concatenate([pos[~np.isin(pos // stride, tied)]] + [
        r * stride + _detect_breaths(X[r % rows], fs)[r // rows]
        for r in tied.tolist()])
    row, col = np.divmod(np.sort(pos), stride)
    count = np.bincount(row, minlength=2 * rows)
    mask = np.arange(max(count.max(initial=0), 1)) < count[:, None]
    idx = np.zeros(mask.shape, dtype=int)
    idx[mask] = col
    return ((idx[:rows], mask[:rows], count[:rows]),
            (idx[rows:], mask[rows:], count[rows:]))


def _breath_cycles(X: np.ndarray, fs: float) -> dict:
    """The breath-by-breath entries of each row: peak count, breath-to-breath
    intervals, peak and trough levels, and the inhale/exhale ratio of the
    peaks with a trough on each side."""
    rows = np.arange(len(X))[:, None]
    (peaks, pmask, npk), (troughs, tmask, ntr) = _row_extrema(X, fs)
    steps, bmask = _diffs(peaks, pmask)
    bb = steps / fs
    bb_mean, bb_sd, _ = _moments(bb, bmask, np.maximum(npk - 1, 0))
    amp_mean, amp_sd, _ = _moments(X[rows, peaks], pmask, npk)
    trough_mean, trough_sd, _ = _moments(X[rows, troughs], tmask, ntr)
    # each peak between two troughs, with the nearest trough on each side;
    # no sample is both, as a peak's flat top starts above its left
    # neighbour and a trough's below it
    t, p = troughs[:, None, :], peaks[:, :, None]
    before = np.count_nonzero(tmask[:, None, :] & (t < p), axis=2)
    paired = pmask & (before > 0) & (before < ntr[:, None])
    inhale = (peaks - np.take_along_axis(troughs, np.maximum(before - 1, 0), 1)
              ) / fs
    exhale = (np.take_along_axis(troughs, np.minimum(before, troughs.shape[1] - 1),
                                 1) - peaks) / fs
    two = npk >= 2
    return {
        "peak_count": 1.0 * npk,
        "bb_mean": bb_mean,
        "bb_sd": bb_sd,
        "amp_mean": np.where(two, amp_mean, np.nan),
        "amp_sd": np.where(two, amp_sd, np.nan),
        "bb_succ_sd": _moments(*_diffs(bb, bmask), np.maximum(npk - 2, 0))[1],
        "trough_mean": trough_mean,
        "trough_sd": trough_sd,
        "ie_ratio_mean": _moments(inhale / exhale, paired,
                                  np.count_nonzero(paired, axis=1))[0],
    }


def _half_power_bandwidth(freqs: np.ndarray, P: np.ndarray,
                          k: np.ndarray) -> np.ndarray:
    """Width of the run of bins around each row's peak bin k with at least
    half its power; P holds power spectra, so bin k itself is never below
    half."""
    j = np.arange(P.shape[1])
    below = P < P[np.arange(len(P)), k][:, None] / 2.0
    left = np.max(np.where(below & (j < k[:, None]), j, -1), axis=1)
    right = np.min(np.where(below & (j > k[:, None]), j, P.shape[1]), axis=1)
    return freqs[right - 1] - freqs[left + 1]


def _second_peak(freqs: np.ndarray, P: np.ndarray, dom: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Frequency and power of each row's highest local maximum more than one
    bin from its dominant bin ``dom``; NaN where there is none.

    One ``find_peaks`` call searches the rows laid end to end, one NaN
    after each: a NaN is never a peak and ends a flat top, so no row's
    search reaches into the next."""
    flat = np.hstack([P, np.full((len(P), 1), np.nan)]).ravel()
    peak = np.zeros(P.shape, dtype=bool)
    peak[np.divmod(sps.find_peaks(flat)[0], P.shape[1] + 1)] = True
    peak &= np.abs(np.arange(P.shape[1]) - dom[:, None]) > 1
    k = np.argmax(np.where(peak, P, -np.inf), axis=1)
    found = np.any(peak, axis=1)
    return (np.where(found, freqs[k], np.nan),
            np.where(found, P[np.arange(len(P)), k], np.nan))


def _breath_rows(X: np.ndarray, fs: float) -> dict:
    """The 25 breath features of each row of a block of equal-length
    windows."""
    n = X.shape[1]
    mean, sd, C = _moments(X, True, n)
    C2 = C * C
    moments = sd > 0
    out = {
        "sig_mean": mean,
        "sig_sd": sd,
        "sig_range": np.ptp(X, axis=1),
        "sig_kurt": np.where(moments,
                             np.mean(C2 * C2, axis=1) / (sd * sd) ** 2 - 3.0,
                             np.nan),
        "sig_skew": np.where(moments, np.mean(C2 * C, axis=1) / sd ** 3, np.nan),
        "sig_zcr": np.where(moments, _zero_crossings(C) / (n / fs), np.nan),
    }
    out.update(_breath_cycles(X, fs))

    # spectral block
    freqs, P = _hann_spectrum(X, fs)
    total = np.sum(P, axis=1)
    out["total_energy"] = total
    if len(freqs) > 2:
        fq, Q = freqs[1:], P[:, 1:]
        k = np.argmax(Q, axis=1)
        dom = Q[np.arange(len(Q)), k]
        _, entropy, centroid = _spectral_shape(freqs, P)
        peak2_freq, peak2_power = _second_peak(fq, Q, k)
        spectral = {
            "dom_freq": fq[k],
            "dom_power": dom,
            "dom_total_ratio": dom / total,
            "band_01_04": np.sum(P[:, _band(freqs, 0.1, 0.4)], axis=1),
            "spec_entropy": entropy,
            "spec_centroid": centroid,
            "dom_bandwidth": _half_power_bandwidth(fq, Q, k),
            "peak2_freq": peak2_freq,
            "peak2_power": peak2_power,
        }
        live = total > 1e-15
        out.update((key, np.where(live, v, np.nan))
                   for key, v in spectral.items())
    return out


def breath_features(samples: np.ndarray, sample_rate_hz: float, lo, hi) -> dict:
    """25 statistics (15 time-domain, 10 spectral) of each breathing window
    ``samples[lo:hi]``: key -> column, one row per window; NaN rows for
    windows of fewer than 2 samples. Windows of one length are the rows of
    one block, taken in blocks of at most ``BLOCK_VALUES`` samples."""
    x = np.asarray(samples, dtype=float)
    lo, hi = np.asarray(lo, dtype=int), np.asarray(hi, dtype=int)
    n = hi - lo
    return _in_blocks(BREATH_NAMES, n, np.flatnonzero(n >= 2), lambda r, m:
                      _breath_rows(x[lo[r, None] + np.arange(m)], sample_rate_hz))


def sample_bounds(n_samples: int, sample_rate_hz: float, t0, t1) -> tuple:
    """Index bounds ``[lo, hi)`` of a trace's samples whose timestamps lie
    inside each window ``[t0, t1)``."""
    lo, hi = (np.ceil(np.asarray(t) * sample_rate_hz - 1e-9).astype(int)
              for t in (t0, t1))
    return lo, np.minimum(hi, n_samples)


# --- cardiopulmonary coupling --------------------------------------------

def _cpc_rows(X: np.ndarray, Y: np.ndarray) -> dict:
    """The coupling-band features of each pair of rows of resampled RR and
    breathing windows of one length."""
    n = X.shape[1]
    nperseg = int(n / (CPC_SEGMENTS / 2 + 0.5))
    step = nperseg - nperseg // 2
    segment = (step * np.arange((n - nperseg // 2) // step)[:, None]
               + np.arange(nperseg))
    window = sps.get_window("hann", nperseg)
    scale = 1.0 / (RESAMPLE_HZ * np.sum(window * window))
    f = np.fft.rfftfreq(nperseg, 1.0 / RESAMPLE_HZ)
    f = f[f <= 0.5]
    S = np.stack([X, Y])
    sd = np.std(S, axis=-1, keepdims=True)
    segments = ((S - np.mean(S, axis=-1, keepdims=True)) / sd)[..., segment]
    segments -= segments.mean(axis=-1, keepdims=True)
    fx, fy = np.fft.rfft(segments * window, axis=-1)[..., :len(f)]
    pxy, pxx, pyy = (np.mean(p, axis=1) * scale for p in (
        np.conj(fx) * fy, np.abs(fx) ** 2, np.abs(fy) ** 2))
    for p in (pxy, pxx, pyy):
        p[:, 1:] *= 2

    cross_power = np.abs(pxy) ** 2
    denom = pxx * pyy
    cpc = cross_power * np.where(denom > 0,
                                 np.clip(cross_power / denom, 0.0, 1.0), 0.0)
    total = np.sum(cpc, axis=1)
    live = np.all(sd[..., 0] > 0, axis=0) & (total > 0)
    out = {}
    for name, (lo, hi) in (("vlf", CPC_VLF), ("lf", CPC_LF), ("hf", CPC_HF)):
        band = np.sum(cpc[:, _band(f, lo, hi)], axis=1)
        out[f"cpc_sum_{name}"] = np.where(live, band, np.nan)
        out[f"cpc_ratio_{name}"] = np.where(live, band / total, np.nan)
    return out


def cpc_spectrum(rr_times: np.ndarray, rr_values: np.ndarray,
                 samples: np.ndarray, sample_rate_hz: float, t0, t1) -> dict:
    """Band sums of the cardiopulmonary-coupling index (Thomas et al. 2005)
    of each window ``[t0, t1)`` of a night, and their ratios to the total:
    key -> column, one row per window; a bin on a band boundary belongs to
    the higher band.

    The index is cross-spectral power times squared coherence between the
    night's usable RR intervals (start times ascending) and the breathing
    belt ``samples``. Window edges lie on the 4 Hz grid ``k / 4`` s, inside
    the belt. Both signals go onto that grid once, each window holding its
    own first and last point before and after them, as ``np.interp`` of the
    window's own points does. Each window's two series are normalized to
    unit variance, then Welch-estimated (Welch 1967) over 8 half-overlapping
    sub-segments of ``nperseg = int(n / 4.5)`` samples, ``step = nperseg -
    nperseg // 2`` apart: each with its own mean removed, times the periodic
    Hann window ``w``, densities scaled by ``1 / (fs * sum(w**2))``, every
    bin but DC doubled, and only the bins at or below 0.5 Hz formed.

    A window with fewer than 4 RR intervals, a constant signal or an
    all-zero index gets a NaN row. Windows of one sample count share one
    batched FFT, in row blocks.
    """
    rr_times, rr_values, samples, t0, t1 = (np.asarray(x, dtype=float) for x in (
        rr_times, rr_values, samples, t0, t1))
    k0, k1 = _grid_index(t0), _grid_index(t1)
    lo, hi = np.searchsorted(rr_times, t0), np.searchsorted(rr_times, t1)
    rows = np.flatnonzero(hi - lo >= 4)
    rr = _grid_gather(rr_times, rr_values, lo, hi, k0, k1)
    belt = _grid_gather(np.arange(len(samples)) / sample_rate_hz, samples,
                        *sample_bounds(len(samples), sample_rate_hz, t0, t1),
                        k0, k1)
    return _in_blocks(CPC_NAMES, k1 - k0, rows,
                      lambda r, m: _cpc_rows(rr(r, m), belt(r, m)))
