"""Features computed from RR-interval windows.

Four families: 10 time-domain HRV measures, 34 conventional statistics,
5 nonlinear measures, and the 3 sudden-variation features comparing the
middle epoch of a multi-epoch window against the whole window. Plus 21
frequency-domain features on the 4 Hz resampled RR series.

Entries that are undefined on a given window (zero-variance moments, too few
beats) come back as NaN and are masked as missing downstream.
"""
from __future__ import annotations

import numpy as np

from .epoching import resolve_window
from .errors import InsufficientData, MissingCenter, NoValidEpochs

HRV_TIME_NAMES = [
    "rr_mean_nn", "rr_sdnn", "rr_rmssd", "rr_sdsd", "rr_pnn50", "rr_pnn20",
    "rr_nn50_count", "rr_median_nn", "hr_mean", "hr_sd",
]

STAT_NAMES = [
    "rr_stat_mean", "rr_stat_sd", "rr_stat_var", "rr_stat_min", "rr_stat_max",
    "rr_stat_range", "rr_stat_median", "rr_stat_q05", "rr_stat_q10",
    "rr_stat_q25", "rr_stat_q75", "rr_stat_q90", "rr_stat_q95", "rr_stat_iqr",
    "rr_stat_skew", "rr_stat_kurt", "rr_stat_mad", "rr_stat_cv",
    "rr_stat_trim10", "rr_stat_trim25", "rr_stat_halves_diff",
    "rr_stat_acf1", "rr_stat_acf2", "rr_stat_acf3", "rr_stat_acf4",
    "rr_stat_acf5", "rr_stat_succ_mean_abs", "rr_stat_succ_sd",
    "rr_stat_succ_max", "rr_stat_count_above_mean",
    "rr_stat_longest_run_above", "rr_stat_trend_slope",
    "rr_stat_trend_intercept", "rr_stat_energy",
]

NONLINEAR_NAMES = [
    "rr_sampen", "rr_zero_cross_count", "rr_zero_cross_rate", "rr_sd1", "rr_sd2",
]

FREQ_NAMES = [
    "rrf_total_power", "rrf_vlf_power", "rrf_lf_power", "rrf_hf_power",
    "rrf_lf_hf_ratio", "rrf_lf_norm", "rrf_hf_norm",
    "rrf_vlf_peak_freq", "rrf_vlf_peak_power", "rrf_lf_peak_freq",
    "rrf_lf_peak_power", "rrf_hf_peak_freq", "rrf_hf_peak_power",
    "rrf_spec_entropy", "rrf_spec_centroid", "rrf_sef95", "rrf_median_freq",
    "rrf_hf_total_ratio", "rrf_lf_total_ratio", "rrf_band_power_04_10",
    "rrf_spec_flatness",
]

VLF_BAND = (0.003, 0.04)
LF_BAND = (0.04, 0.15)
HF_BAND = (0.15, 0.4)
RESAMPLE_HZ = 4.0


# --- time-domain HRV ------------------------------------------------------

def hrv_time_features(values: np.ndarray) -> dict:
    """The 10 standard time-domain HRV measures, RR values in seconds."""
    x = np.asarray(values, dtype=float)
    if len(x) < 2:
        raise InsufficientData(f"need >= 2 intervals, got {len(x)}")
    d = np.diff(x)
    ad = np.abs(d)
    hr = 60.0 / x
    nn50 = int(np.sum(ad > 0.050))
    return {
        "rr_mean_nn": float(np.mean(x)),
        "rr_sdnn": float(np.std(x)),
        "rr_rmssd": float(np.sqrt(np.mean(d * d))),
        "rr_sdsd": float(np.std(d)),
        "rr_pnn50": nn50 / len(d),
        "rr_pnn20": float(np.sum(ad > 0.020)) / len(d),
        "rr_nn50_count": float(nn50),
        "rr_median_nn": float(np.median(x)),
        "hr_mean": float(np.mean(hr)),
        "hr_sd": float(np.std(hr)),
    }


# --- conventional statistics ---------------------------------------------

def statistical_features(values: np.ndarray) -> dict:
    """The 34 conventional statistics of an RR window."""
    x = np.asarray(values, dtype=float)
    n = len(x)
    if n < 2:
        raise InsufficientData(f"need >= 2 intervals, got {n}")
    s = np.sort(x)
    mean = float(np.mean(x))
    sd = float(np.std(x))
    var = sd * sd
    median = float(np.median(s))
    q05, q10, q25, q75, q90, q95 = (
        float(v) for v in np.quantile(s, [0.05, 0.10, 0.25, 0.75, 0.90, 0.95]))
    d = np.diff(x)
    centered = x - mean
    above = x > mean
    # starts and ends of the runs above the mean alternate among the edges
    edges = np.flatnonzero(np.diff(above, prepend=False, append=False))
    # roundoff in the mean of a constant window can leave var a hair above
    # zero; treat such windows as degenerate
    degenerate = sd <= 1e-12 * max(1.0, abs(mean))
    if degenerate:
        sd = var = 0.0

    if n >= 4 and not degenerate:
        m3 = float(np.mean(centered ** 3))
        m4 = float(np.mean(centered ** 4))
        skew = m3 / sd ** 3
        kurt = m4 / var ** 2 - 3.0  # excess
    else:
        skew = kurt = np.nan

    def acf(k: int) -> float:
        if n <= k or degenerate:
            return np.nan
        return float(np.sum(centered[:-k] * centered[k:]) / np.sum(centered ** 2))

    # least-squares trend against interval index
    t = np.arange(n, dtype=float)
    slope, intercept = np.polyfit(t, x, 1)

    half = n // 2
    return {
        "rr_stat_mean": mean,
        "rr_stat_sd": sd,
        "rr_stat_var": var,
        "rr_stat_min": float(s[0]),
        "rr_stat_max": float(s[-1]),
        "rr_stat_range": float(s[-1] - s[0]),
        "rr_stat_median": median,
        "rr_stat_q05": q05, "rr_stat_q10": q10, "rr_stat_q25": q25,
        "rr_stat_q75": q75, "rr_stat_q90": q90, "rr_stat_q95": q95,
        "rr_stat_iqr": q75 - q25,
        "rr_stat_skew": skew,
        "rr_stat_kurt": kurt,
        "rr_stat_mad": float(np.median(np.abs(s - median))),
        "rr_stat_cv": sd / mean if mean != 0 else np.nan,
        # k = n // 10 and n // 4 are floor(0.10 n) and floor(0.25 n), and
        # 2k < n always
        "rr_stat_trim10": float(np.mean(s[n // 10:n - n // 10])),
        "rr_stat_trim25": float(np.mean(s[n // 4:n - n // 4])),
        "rr_stat_halves_diff": float(np.mean(x[half:]) - np.mean(x[:half])),
        "rr_stat_acf1": acf(1), "rr_stat_acf2": acf(2), "rr_stat_acf3": acf(3),
        "rr_stat_acf4": acf(4), "rr_stat_acf5": acf(5),
        "rr_stat_succ_mean_abs": float(np.mean(np.abs(d))),
        "rr_stat_succ_sd": float(np.std(d)),
        "rr_stat_succ_max": float(np.max(np.abs(d))),
        "rr_stat_count_above_mean": float(np.sum(above)),
        "rr_stat_longest_run_above": float(np.max(edges[1::2] - edges[::2],
                                                  initial=0)),
        "rr_stat_trend_slope": float(slope),
        "rr_stat_trend_intercept": float(intercept),
        "rr_stat_energy": float(np.sum(x * x)),
    }


# --- nonlinear ------------------------------------------------------------

def sample_entropy(values: np.ndarray, m: int = 2, r_frac: float = 0.2) -> float:
    """Sample entropy with template length m and tolerance r = r_frac * SD
    (Chebyshev distance), computed over all template pairs i != j.

    Every start index gives a template, so there are N - m + 1 templates of
    length m and N - m of length m + 1; Richman & Moorman (2000) use the
    first N - m at both lengths.
    """
    x = np.asarray(values, dtype=float)
    n = len(x)
    sd = np.std(x)
    if n < m + 2 or sd == 0:
        return np.nan
    r = r_frac * sd
    # templates i and j of length L match iff close[i + s, j + s] for all s < L
    close = np.abs(x[:, None] - x[None, :]) <= r
    k = n - m + 1
    match = close[:k, :k].copy()
    for s in range(1, m):
        match &= close[s:s + k, s:s + k]
    b = np.count_nonzero(match) - k  # exclude self-matches
    a = np.count_nonzero(match[:-1, :-1] & close[m:, m:]) - (k - 1)
    if b == 0 or a == 0:
        return np.nan
    return float(-np.log(a / b))


def _zero_crossings(centered: np.ndarray) -> int:
    """Sign changes of a mean-removed signal, ignoring exact zeros."""
    signs = np.sign(centered)
    return int(np.count_nonzero(np.diff(signs[signs != 0])))


def nonlinear_features(values: np.ndarray) -> dict:
    x = np.asarray(values, dtype=float)
    n = len(x)
    if n < 2:
        raise InsufficientData(f"need >= 2 intervals, got {n}")
    zc = _zero_crossings(x - np.mean(x))
    d = np.diff(x)
    s = x[:-1] + x[1:]
    sd1 = float(np.std(d) / np.sqrt(2))
    sd2 = float(np.std(s) / np.sqrt(2))
    sampen = sample_entropy(x) if n >= 50 else np.nan
    return {
        "rr_sampen": sampen,
        "rr_zero_cross_count": float(zc),
        "rr_zero_cross_rate": zc / n,
        "rr_sd1": sd1,
        "rr_sd2": sd2,
    }


# --- sudden-variation features -------------------------------------------

def _center_mean(epoch_means: np.ndarray, epoch_counts: np.ndarray,
                 center: int) -> float:
    if epoch_counts[center] == 0 or not np.isfinite(epoch_means[center]):
        raise MissingCenter(f"epoch {center} has no usable intervals")
    return epoch_means[center]


def _usable_window(epoch_means: np.ndarray, epoch_counts: np.ndarray,
                   center: int, n: int) -> tuple[np.ndarray, float]:
    """Mean RRs of the window's epochs with usable intervals and their
    interval-weighted mean."""
    first, last = resolve_window(len(epoch_means), center, n)
    means = epoch_means[first:last + 1]
    counts = epoch_counts[first:last + 1]
    ok = (counts > 0) & np.isfinite(means)
    if not np.any(ok):
        raise NoValidEpochs(f"no epoch in window around {center} has intervals")
    means, counts = means[ok], counts[ok]
    return means, float(np.sum(means * counts) / np.sum(counts))


def novel_f1(epoch_means: np.ndarray, epoch_counts: np.ndarray,
             center: int, n: int) -> float:
    """Mid-epoch mean RR minus the mean over the whole (shrunken) window."""
    mid = _center_mean(epoch_means, epoch_counts, center)
    _, w_mean = _usable_window(epoch_means, epoch_counts, center, n)
    return float(mid - w_mean)


def novel_f2(epoch_means: np.ndarray, epoch_counts: np.ndarray,
             window_values: np.ndarray, center: int) -> float:
    """Mid-epoch mean RR minus the median of all raw RR values in the window."""
    mid = _center_mean(epoch_means, epoch_counts, center)
    if len(window_values) == 0:
        raise MissingCenter("empty window")
    return float(mid - np.median(window_values))


def novel_f3(epoch_means: np.ndarray, epoch_counts: np.ndarray,
             center: int, n: int) -> float:
    """Population SD of the per-epoch mean RRs around the all-window mean.

    Epochs without usable intervals are excluded and the effective n reduced.
    """
    means, w_mean = _usable_window(epoch_means, epoch_counts, center, n)
    dev = means - w_mean
    return float(np.sqrt(np.mean(dev * dev)))


# --- frequency domain -----------------------------------------------------

def _one_sided_power(y: np.ndarray) -> np.ndarray:
    """One-sided power spectrum normalized so the bins sum to mean(y^2)."""
    n = len(y)
    spec = np.fft.rfft(y)
    p = np.abs(spec) ** 2 / n ** 2
    p[1:] *= 2.0
    if n % 2 == 0:
        p[-1] /= 2.0
    return p


def _hann_spectrum(x: np.ndarray, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies and one-sided power of x, mean-removed and Hann-windowed."""
    y = (x - np.mean(x)) * np.hanning(len(x))
    return np.fft.rfftfreq(len(y), d=1.0 / fs), _one_sided_power(y)


def _spectral_shape(freqs: np.ndarray, p: np.ndarray
                    ) -> tuple[np.ndarray, float, float]:
    """The non-DC bins of a power spectrum as a distribution, its Shannon
    entropy normalised by the log of the bin count, and its centroid."""
    q = p[1:] / np.sum(p[1:])
    pos = q > 0
    entropy = float(-np.sum(q[pos] * np.log(q[pos])) / np.log(len(q)))
    return q, entropy, float(np.sum(freqs[1:] * q))


def _band_mask(freqs: np.ndarray, lo: float, hi: float) -> np.ndarray:
    # boundary bins belong to the higher band
    return (freqs >= lo) & (freqs < hi)


def rr_freq_features(times: np.ndarray, values: np.ndarray,
                     t0: float, t1: float) -> dict:
    """21 spectral features of the RR series resampled to a uniform 4 Hz grid,
    mean-removed and Hann-windowed."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    win = t1 - t0
    if len(values) < 4:
        raise InsufficientData(f"need >= 4 intervals, got {len(values)}")
    if win < 30.0 - 1e-9 or (times[-1] - times[0]) < 0.75 * win:
        raise InsufficientData("need >= 30 s of RR coverage in the window")
    grid_t = np.arange(t0, t1, 1.0 / RESAMPLE_HZ)
    freqs, p = _hann_spectrum(np.interp(grid_t, times, values), RESAMPLE_HZ)
    total = float(np.sum(p))

    out = dict.fromkeys(FREQ_NAMES, np.nan)
    out["rrf_total_power"] = total
    bands = {"vlf": VLF_BAND, "lf": LF_BAND, "hf": HF_BAND}
    power = {}
    for name, (lo, hi) in bands.items():
        mask = _band_mask(freqs, lo, hi)
        power[name] = float(np.sum(p[mask]))
        out[f"rrf_{name}_power"] = power[name]
        if total > 1e-12 and np.any(mask):
            k = np.flatnonzero(mask)[np.argmax(p[mask])]
            out[f"rrf_{name}_peak_freq"] = float(freqs[k])
            out[f"rrf_{name}_peak_power"] = float(p[k])
    out["rrf_band_power_04_10"] = float(np.sum(p[_band_mask(freqs, 0.4, 1.0)]))

    if total > 1e-12:
        lf, hf = power["lf"], power["hf"]
        out["rrf_lf_hf_ratio"] = lf / hf if hf > 0 else np.nan
        denom = lf + hf
        if denom > 0:
            out["rrf_lf_norm"] = lf / denom
            out["rrf_hf_norm"] = hf / denom
        out["rrf_hf_total_ratio"] = hf / total
        out["rrf_lf_total_ratio"] = lf / total
        q, out["rrf_spec_entropy"], out["rrf_spec_centroid"] = _spectral_shape(
            freqs, p)
        cum = np.cumsum(p) / total
        out["rrf_sef95"] = float(freqs[np.searchsorted(cum, 0.95)])
        out["rrf_median_freq"] = float(freqs[np.searchsorted(cum, 0.5)])
        if np.all(q > 0):
            out["rrf_spec_flatness"] = float(np.exp(np.mean(np.log(q))) / np.mean(q))
        else:
            out["rrf_spec_flatness"] = 0.0
    return out
