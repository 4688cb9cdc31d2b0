"""Breathing-signal statistics and cardiopulmonary-coupling band features."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal as sps

from .errors import InsufficientData, LengthMismatch, NoBreathsDetected, ZeroTotal
from .features_rr import _one_sided_power

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
CPC_RATE_HZ = 4.0
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


def breath_features(segment: np.ndarray, sample_rate_hz: float) -> dict:
    """25 statistics of one breathing window (15 time-domain, 10 spectral)."""
    x = np.asarray(segment, dtype=float)
    fs = sample_rate_hz
    if len(x) < 2:
        raise NoBreathsDetected("segment too short")
    out = dict.fromkeys(BREATH_NAMES, np.nan)

    mean = float(np.mean(x))
    sd = float(np.std(x))
    out["sig_mean"] = mean
    out["sig_sd"] = sd
    out["sig_range"] = float(np.ptp(x))
    centered = x - mean
    if sd > 0:
        m2 = sd * sd
        out["sig_kurt"] = float(np.mean(centered ** 4) / m2 ** 2 - 3.0)
        out["sig_skew"] = float(np.mean(centered ** 3) / sd ** 3)
        signs = np.sign(centered)
        nz = signs != 0
        zc = int(np.sum(np.diff(signs[nz]) != 0)) if np.sum(nz) >= 2 else 0
        out["sig_zcr"] = zc / (len(x) / fs)

    peaks, troughs = _detect_breaths(x, fs)
    out["peak_count"] = float(len(peaks))
    if len(peaks) >= 2:
        bb = np.diff(peaks) / fs
        out["bb_mean"] = float(np.mean(bb))
        out["bb_sd"] = float(np.std(bb))
        out["amp_mean"] = float(np.mean(x[peaks]))
        out["amp_sd"] = float(np.std(x[peaks]))
        if len(bb) >= 2:
            out["bb_succ_sd"] = float(np.std(np.diff(bb)))
    if len(troughs) >= 1:
        out["trough_mean"] = float(np.mean(x[troughs]))
        out["trough_sd"] = float(np.std(x[troughs])) if len(troughs) >= 2 else 0.0
    if len(peaks) >= 1 and len(troughs) >= 2:
        ratios = []
        for p in peaks:
            prev = troughs[troughs < p]
            nxt = troughs[troughs > p]
            if len(prev) and len(nxt):
                inhale = (p - prev[-1]) / fs
                exhale = (nxt[0] - p) / fs
                if exhale > 0:
                    ratios.append(inhale / exhale)
        if ratios:
            out["ie_ratio_mean"] = float(np.mean(ratios))

    # spectral block
    y = centered * np.hanning(len(x))
    p = _one_sided_power(y)
    freqs = np.fft.rfftfreq(len(y), d=1.0 / fs)
    total = float(np.sum(p))
    out["total_energy"] = total
    if total > 1e-15 and len(p) > 2:
        q = p[1:]
        fq = freqs[1:]
        k = int(np.argmax(q))
        out["dom_freq"] = float(fq[k])
        out["dom_power"] = float(q[k])
        out["dom_total_ratio"] = float(q[k] / total)
        out["band_01_04"] = float(np.sum(p[(freqs >= 0.1) & (freqs < 0.4)]))
        qq = q / np.sum(q)
        pos = qq > 0
        out["spec_entropy"] = float(-np.sum(qq[pos] * np.log(qq[pos]))
                                    / np.log(len(qq)))
        out["spec_centroid"] = float(np.sum(fq * qq))
        out["dom_bandwidth"] = _half_power_bandwidth(fq, q, k)
        f2, p2 = _second_peak(fq, q, k)
        out["peak2_freq"] = f2
        out["peak2_power"] = p2
    return out


def _half_power_bandwidth(freqs: np.ndarray, p: np.ndarray, k: int) -> float:
    half = p[k] / 2.0
    lo = k
    while lo > 0 and p[lo - 1] >= half:
        lo -= 1
    hi = k
    while hi < len(p) - 1 and p[hi + 1] >= half:
        hi += 1
    return float(freqs[hi] - freqs[lo])


def _second_peak(freqs: np.ndarray, p: np.ndarray, dom: int) -> tuple[float, float]:
    locs, _ = sps.find_peaks(p)
    locs = locs[np.abs(locs - dom) > 1]
    if len(locs) == 0:
        return np.nan, np.nan
    k = locs[np.argmax(p[locs])]
    return float(freqs[k]), float(p[k])


# --- cardiopulmonary coupling --------------------------------------------

@dataclass(frozen=True)
class CpcSpectrum:
    freqs_hz: np.ndarray
    cpc_index: np.ndarray
    coherence_sq: np.ndarray


def cpc_spectrum(rr_times: np.ndarray, rr_values: np.ndarray,
                 breath_segment: np.ndarray, breath_rate_hz: float,
                 t0: float, t1: float) -> CpcSpectrum:
    """Cross-spectral-power x squared-coherence index between the RR series
    and the breathing signal over a shared window.

    Both signals are brought to a common 4 Hz grid and normalized to unit
    variance, then Welch-estimated over 8 half-overlapping sub-segments.
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

    grid_t = np.arange(t0, t1, 1.0 / CPC_RATE_HZ)
    x = np.interp(grid_t, rr_times, rr_values)
    bt = t0 + np.arange(len(breath_segment)) / breath_rate_hz
    y = np.interp(grid_t, bt, np.asarray(breath_segment, dtype=float))

    n = len(grid_t)
    nperseg = int(n / (CPC_SEGMENTS / 2 + 0.5))
    if nperseg < 8:
        raise InsufficientData("window too short for 8 Welch sub-segments")
    for name, s in (("rr", x), ("breathing", y)):
        if np.std(s) == 0:
            raise InsufficientData(f"{name} signal is constant in the window")
    x = (x - np.mean(x)) / np.std(x)
    y = (y - np.mean(y)) / np.std(y)

    kw = dict(fs=CPC_RATE_HZ, nperseg=nperseg, noverlap=nperseg // 2,
              window="hann", detrend="constant")
    f, pxy = sps.csd(x, y, **kw)
    _, pxx = sps.welch(x, **kw)
    _, pyy = sps.welch(y, **kw)

    cross_power = np.abs(pxy) ** 2
    denom = pxx * pyy
    coh2 = np.zeros_like(cross_power)
    nz = denom > 0
    coh2[nz] = np.clip(cross_power[nz] / denom[nz], 0.0, 1.0)
    cpc = cross_power * coh2

    keep = f <= 0.5
    return CpcSpectrum(freqs_hz=f[keep], cpc_index=cpc[keep],
                       coherence_sq=coh2[keep])


def cpc_band_features(spectrum: CpcSpectrum) -> dict:
    """Band sums of the coupling index and their ratios to the total."""
    f = spectrum.freqs_hz
    c = spectrum.cpc_index
    total = float(np.sum(c))
    sums = {}
    for name, (lo, hi) in (("vlf", CPC_VLF), ("lf", CPC_LF), ("hf", CPC_HF)):
        sums[name] = float(np.sum(c[(f >= lo) & (f < hi)]))
    out = {f"cpc_sum_{k}": v for k, v in sums.items()}
    if total <= 0:
        raise ZeroTotal("all-zero coupling spectrum")
    for k, v in sums.items():
        out[f"cpc_ratio_{k}"] = v / total
    return out
