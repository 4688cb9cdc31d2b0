"""Breathing-signal statistics and cardiopulmonary-coupling band features.

``breath_features(samples, sample_rate_hz, lo, hi)`` evaluates every
breathing window ``samples[lo:hi]`` of a night at once: windows of one length
are the rows of a block, and only the breath detection (two ``find_peaks``
calls) runs row by row. Against the window-by-window definition, kept as the
oracle in the tests, every entry is bit for bit the same but the skewness and
kurtosis, which take cubes and fourth powers by multiplication and agree
within rtol 1e-12. The coupling spectrum takes one window.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import signal as sps

from .errors import InsufficientData, LengthMismatch, ZeroTotal
from .features_rr import (RESAMPLE_HZ, _band, _diffs, _hann_spectrum,
                          _in_blocks, _spectral_shape, _zero_crossings)

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


def _row_moments(V: np.ndarray, mask: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Each row's ``np.mean`` and ``np.std`` over its masked cells, bit for
    bit, NaN for rows with none. Rows with the same cell count are reduced
    together, their cells moved to the front in order."""
    count = np.count_nonzero(mask, axis=1)
    V = np.take_along_axis(V, np.argsort(~mask, axis=1, kind="stable"), 1)
    mean, sd = np.full(len(V), np.nan), np.full(len(V), np.nan)
    for c in np.unique(count[count > 0]):
        r = np.flatnonzero(count == c)
        W = V[r, :c]
        # np.mean and np.std's own steps, without their wrappers
        m = np.sum(W, axis=1, keepdims=True) / c
        D = W - m
        mean[r], sd[r] = m[:, 0], np.sqrt(np.sum(D * D, axis=1) / c)
    return mean, sd


def _breath_cycles(X: np.ndarray, fs: float) -> dict:
    """The breath-by-breath entries of each row: peak count, breath-to-breath
    intervals, peak and trough levels, and the inhale/exhale ratio of the
    peaks with a trough on each side."""
    found = [_detect_breaths(x, fs) for x in X]
    rows = np.arange(len(X))[:, None]

    def stacked(k):
        """The rows' k-th index arrays as a zero-padded block, the mask of
        the cells that hold an index, and each row's count."""
        count = np.array([len(f[k]) for f in found], dtype=int)
        mask = np.arange(max(count.max(initial=0), 1)) < count[:, None]
        idx = np.zeros(mask.shape, dtype=int)
        idx[mask] = np.concatenate([f[k] for f in found])
        return idx, mask, count

    peaks, pmask, npk = stacked(0)
    troughs, tmask, ntr = stacked(1)
    steps, bmask = _diffs(peaks, pmask)
    bb = steps / fs
    bb_mean, bb_sd = _row_moments(bb, bmask)
    amp_mean, amp_sd = _row_moments(X[rows, peaks], pmask)
    trough_mean, trough_sd = _row_moments(X[rows, troughs], tmask)
    # each peak between two troughs, with the nearest trough on each side
    t, p = troughs[:, None, :], peaks[:, :, None]
    before = np.count_nonzero(tmask[:, None, :] & (t < p), axis=2)
    after = np.count_nonzero(tmask[:, None, :] & (t <= p), axis=2)
    paired = pmask & (before > 0) & (after < ntr[:, None])
    inhale = (peaks - np.take_along_axis(troughs, np.maximum(before - 1, 0), 1)
              ) / fs
    exhale = (np.take_along_axis(troughs, np.minimum(after, troughs.shape[1] - 1),
                                 1) - peaks) / fs
    two = npk >= 2
    return {
        "peak_count": 1.0 * npk,
        "bb_mean": bb_mean,
        "bb_sd": bb_sd,
        "amp_mean": np.where(two, amp_mean, np.nan),
        "amp_sd": np.where(two, amp_sd, np.nan),
        "bb_succ_sd": _row_moments(*_diffs(bb, bmask))[1],
        "trough_mean": trough_mean,
        "trough_sd": trough_sd,
        "ie_ratio_mean": _row_moments(inhale / exhale, paired)[0],
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
    bin from its dominant bin ``dom``; NaN where there is none."""
    peak = np.zeros(P.shape, dtype=bool)
    peak[:, 1:-1] = (P[:, :-2] < P[:, 1:-1]) & (P[:, 1:-1] > P[:, 2:])
    # find_peaks takes the middle of a flat top, so rows with equal
    # neighbouring bins take its own search
    for r in np.flatnonzero(np.any(P[:, 1:] == P[:, :-1], axis=1)):
        peak[r] = False
        peak[r, sps.find_peaks(P[r])[0]] = True
    peak &= np.abs(np.arange(P.shape[1]) - dom[:, None]) > 1
    k = np.argmax(np.where(peak, P, -np.inf), axis=1)
    found = np.any(peak, axis=1)
    return (np.where(found, freqs[k], np.nan),
            np.where(found, P[np.arange(len(P)), k], np.nan))


def _breath_rows(X: np.ndarray, fs: float) -> dict:
    """The 25 breath features of each row of a block of equal-length
    windows."""
    n = X.shape[1]
    mean = np.mean(X, axis=1)
    sd = np.std(X, axis=1)
    C = X - mean[:, None]
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
    out = {k: np.full(len(n), np.nan) for k in BREATH_NAMES}
    for m in np.unique(n[n >= 2]):
        _in_blocks(out, np.flatnonzero(n == m), m, lambda r: _breath_rows(
            x[lo[r, None] + np.arange(m)], sample_rate_hz))
    return out


# --- cardiopulmonary coupling --------------------------------------------

@dataclass(frozen=True)
class CpcSpectrum:
    freqs_hz: np.ndarray
    cpc_index: np.ndarray
    coherence_sq: np.ndarray


@lru_cache(maxsize=64)
def _welch_setup(nperseg: int):
    """The periodic Hann window of ``cpc_spectrum``'s segments, its density
    scale and the segment spectrum's frequencies at or below 0.5 Hz; all
    read-only, shared by every call with this ``nperseg``."""
    window = sps.get_window("hann", nperseg)
    f = np.fft.rfftfreq(nperseg, 1.0 / RESAMPLE_HZ)
    f = f[f <= 0.5]
    window.flags.writeable = f.flags.writeable = False
    return window, 1.0 / (RESAMPLE_HZ * np.sum(window * window)), f


def cpc_spectrum(rr_times: np.ndarray, rr_values: np.ndarray,
                 breath_segment: np.ndarray, breath_rate_hz: float,
                 t0: float, t1: float) -> CpcSpectrum:
    """Cross-spectral-power x squared-coherence index between the RR series
    and the breathing signal over a shared window.

    Both signals are brought to a common 4 Hz grid and normalized to unit
    variance, then Welch-estimated (Welch 1967) over 8 half-overlapping
    sub-segments of ``nperseg = int(n / 4.5)`` samples: segment ``k`` starts
    at ``k * step`` with ``step = nperseg - nperseg // 2``, and there are
    ``(n - nperseg // 2) // step`` of them. Each segment has its own mean
    removed and is multiplied by the periodic Hann window ``w``. One FFT per
    segment and signal gives the cross-spectrum ``Pxy = mean(conj(X) Y)`` and
    the auto-spectra ``Pxx``, ``Pyy``, each scaled as a density by
    ``1 / (fs * sum(w**2))``, with every bin but DC doubled for the one-sided
    spectrum. Only the bins at or below 0.5 Hz are formed; the 2-Hz Nyquist
    bin is never among them.
    """
    if t1 <= t0:
        raise LengthMismatch("empty window")
    n_breath_expected = (t1 - t0) * breath_rate_hz
    if abs(len(breath_segment) - n_breath_expected) > breath_rate_hz:
        raise LengthMismatch(
            f"breathing segment covers {len(breath_segment) / breath_rate_hz:.1f} s, "
            f"window is {t1 - t0:.1f} s")
    if len(rr_values) < 4:
        raise InsufficientData("too few RR intervals for coupling")

    grid_t = np.arange(t0, t1, 1.0 / RESAMPLE_HZ)
    x = np.interp(grid_t, rr_times, rr_values)
    bt = t0 + np.arange(len(breath_segment)) / breath_rate_hz
    y = np.interp(grid_t, bt, np.asarray(breath_segment, dtype=float))

    n = len(grid_t)
    nperseg = int(n / (CPC_SEGMENTS / 2 + 0.5))
    if nperseg < 8:
        raise InsufficientData("window too short for 8 Welch sub-segments")
    scaled = []
    for name, s in (("rr", x), ("breathing", y)):
        sd = np.std(s)
        if sd == 0:
            raise InsufficientData(f"{name} signal is constant in the window")
        scaled.append((s - np.mean(s)) / sd)

    step = nperseg - nperseg // 2
    starts = step * np.arange((n - nperseg // 2) // step)
    segments = np.stack(scaled)[:, starts[:, None] + np.arange(nperseg)]
    segments -= segments.mean(axis=-1, keepdims=True)
    window, scale, f = _welch_setup(nperseg)
    fx, fy = np.fft.rfft(segments * window, axis=-1)[..., :len(f)]
    pxy = np.mean(np.conj(fx) * fy, axis=0) * scale
    pxx = np.mean(np.abs(fx) ** 2, axis=0) * scale
    pyy = np.mean(np.abs(fy) ** 2, axis=0) * scale
    for p in (pxy, pxx, pyy):
        p[1:] *= 2

    cross_power = np.abs(pxy) ** 2
    denom = pxx * pyy
    coh2 = np.zeros_like(cross_power)
    nz = denom > 0
    coh2[nz] = np.clip(cross_power[nz] / denom[nz], 0.0, 1.0)
    cpc = cross_power * coh2
    return CpcSpectrum(freqs_hz=f, cpc_index=cpc, coherence_sq=coh2)


def cpc_band_features(spectrum: CpcSpectrum) -> dict:
    """Band sums of the coupling index and their ratios to the total."""
    f = spectrum.freqs_hz
    c = spectrum.cpc_index
    total = float(np.sum(c))
    sums = {}
    for name, (lo, hi) in (("vlf", CPC_VLF), ("lf", CPC_LF), ("hf", CPC_HF)):
        sums[name] = float(np.sum(c[_band(f, lo, hi)]))
    out = {f"cpc_sum_{k}": v for k, v in sums.items()}
    if total <= 0:
        raise ZeroTotal("all-zero coupling spectrum")
    for k, v in sums.items():
        out[f"cpc_ratio_{k}"] = v / total
    return out
