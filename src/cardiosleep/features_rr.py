"""Features computed from RR-interval windows.

Four families: 10 time-domain HRV measures, 34 conventional statistics,
5 nonlinear measures, and the 3 sudden-variation features comparing the
middle epoch of a multi-epoch window against the whole window. Plus 21
frequency-domain features on the 4 Hz resampled RR series.

The HRV time-domain, statistics and nonlinear families evaluate a whole
night at once. ``hrv_time_features(values, lo, hi)``,
``statistical_features(values, lo, hi)`` and ``nonlinear_features(values,
lo, hi)`` take the night's usable RR values and the index bounds ``[lo, hi)``
of each window (windows may overlap), and return key -> column, one row per
window. A window of fewer than 2 intervals gets a NaN row. The windows are
padded to the longest one and processed in row blocks of at most
``BLOCK_VALUES`` values. Against the window-by-window definitions, kept as
oracles in the tests, every entry agrees within rtol 1e-12 plus 1e-12 times
its column's largest magnitude, with the same NaN entries; the counts, runs
above the mean and zero crossings agree exactly. The nonlinear family's
sample entropy calls ``sample_entropy`` once per window of at least 50
intervals, in window order. It compares each unordered template pair once,
by lag, in ceil(n/2) x n distances, and equals the n x n definition kept as
a test oracle bit for bit.
The sudden-variation features ``novel_f1``-``novel_f3`` read the night's
per-epoch mean RRs and interval counts as zero-padded rows and return a
column over every centre epoch, within the same tolerance.

``rr_freq_features(times, values, t0, t1)`` evaluates the spectra of every
window ``[t0, t1)`` of a night: one interpolation of the series onto the
4 Hz grid, as for each series of the coupling spectrum, then one batched FFT
per window length. Its entries equal the window-by-window definition bit for
bit. Every family fills its columns through one row-block driver.

Entries that are undefined on a given window (zero-variance moments, too few
beats) come back as NaN and are masked as missing downstream.
"""
from __future__ import annotations

import numpy as np

from .epoching import resolve_window

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


# --- whole-night evaluation ----------------------------------------------

# A row block of the whole-night evaluators holds at most this many padded
# values, so its temporaries stay a few MB however many windows a night has.
BLOCK_VALUES = 65_536


def _in_blocks(names, size: np.ndarray, rows: np.ndarray, kernel) -> dict:
    """Columns ``names``, one entry per window of ``size``: NaN, but at the
    windows ``rows``, which ``kernel(r, m)`` fills with the columns of the
    windows r, all of size m. The windows of one size go to the kernel in
    blocks of at most ``BLOCK_VALUES`` values."""
    out = {k: np.full(len(size), np.nan) for k in names}
    # padded cells and degenerate rows may divide by zero before being masked
    with np.errstate(divide="ignore", invalid="ignore"):
        for m in np.unique(size[rows]):
            same = rows[size[rows] == m]
            step = max(1, BLOCK_VALUES // max(m, 1))
            for start in range(0, len(same), step):
                r = same[start:start + step]
                for k, col in kernel(r, m).items():
                    out[k][r] = col
    return out


def _whole_night(kernel, names, values, lo, hi, min_n: int = 2,
                 usable=True) -> dict:
    """``kernel(values, lo, n)``'s columns over the windows ``values[lo:hi]``,
    one row per window; NaN rows for windows of fewer than ``min_n``
    intervals or not ``usable`` (a per-window mask). The kernel sees row
    blocks of the other windows in window order, as many as fit
    ``BLOCK_VALUES`` at the night's longest window."""
    values = np.asarray(values, dtype=float)
    lo, hi = np.asarray(lo, dtype=int), np.asarray(hi, dtype=int)
    n = hi - lo
    return _in_blocks(names, np.full(len(n), n.max(initial=0)),
                      np.flatnonzero((n >= min_n) & usable),
                      lambda r, _: kernel(values, lo[r], n[r]))


def _padded(values: np.ndarray, lo: np.ndarray, n: np.ndarray):
    """The windows ``values[lo:lo + n]`` as the rows of a zero-padded block,
    the mask of the cells that hold values, and the column index."""
    j = np.arange(n.max())
    mask = j < n[:, None]
    X = np.where(mask, values[np.where(mask, lo[:, None] + j, 0)], 0.0)
    return X, mask, j


def _moments(X: np.ndarray, mask: np.ndarray, count: np.ndarray):
    """Each row's mean and population SD over the masked cells, and the
    deviations from the mean, zero outside the mask."""
    mean = np.sum(np.where(mask, X, 0.0), axis=1) / count
    C = np.where(mask, X - mean[:, None], 0.0)
    return mean, np.sqrt(np.sum(C * C, axis=1) / count), C


def _diffs(X: np.ndarray, mask: np.ndarray):
    """Successive differences of each row and the mask of the real ones."""
    return X[:, 1:] - X[:, :-1], mask[:, 1:]


def _at(S: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Each row's entry at its own position."""
    return S[np.arange(len(S)), pos]


def _median(S: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The median of each row's first n entries, rows sorted."""
    return (_at(S, (n - 1) // 2) + _at(S, n // 2)) / 2


def _quantile(S: np.ndarray, n: np.ndarray, q: float) -> np.ndarray:
    """NumPy's default quantile (Hyndman & Fan type 7) of each row's first n
    entries, rows sorted, with NumPy's interpolation."""
    virtual = (n - 1) * q
    below = np.floor(virtual).astype(int)
    a, b = _at(S, below), _at(S, np.minimum(below + 1, n - 1))
    g = virtual - below
    return np.where(g >= 0.5, b - (b - a) * (1 - g), a + (b - a) * g)


def _sorted_rows(X: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Each row sorted, its padding (+inf) last."""
    return np.sort(np.where(mask, X, np.inf), axis=1)


def _exact_means(values, lo, n, X, mask, mean) -> np.ndarray:
    """``mean``, except in windows holding a value within roundoff of it
    (2·eps·Σ|x|), constant ones among them: such a value lies above the
    mean or not as the mean's last bits fall, so those windows take the
    mean as ``np.mean`` rounds it."""
    bar = mean.copy()
    roundoff = 2 * np.finfo(float).eps * np.sum(np.abs(X), axis=1)
    near = mask & (np.abs(X - mean[:, None]) <= roundoff[:, None])
    for r in np.flatnonzero(np.any(near, axis=1)):
        bar[r] = np.mean(values[lo[r]:lo[r] + n[r]])
    return bar


def _zero_crossings(C: np.ndarray) -> np.ndarray:
    """Sign changes along each row of a mean-removed block, ignoring exact
    zeros (padding included)."""
    signs = np.sign(C)
    j = np.arange(C.shape[1])
    # the sign of the last non-zero cell at or before each cell
    last = np.maximum.accumulate(np.where(signs != 0, j, 0), axis=1)
    held = np.take_along_axis(signs, last, axis=1)
    return np.count_nonzero(signs[:, 1:] * held[:, :-1] < 0, axis=1)


# --- time-domain HRV ------------------------------------------------------

def _hrv_time_rows(values, lo, n) -> dict:
    X, mask, _ = _padded(values, lo, n)
    D, dmask = _diffs(X, mask)
    AD = np.where(dmask, np.abs(D), 0.0)
    m = n - 1
    mean, sd, _ = _moments(X, mask, n)
    _, sd_d, _ = _moments(D, dmask, m)
    hr_mean, hr_sd, _ = _moments(60.0 / X, mask, n)
    nn50 = np.count_nonzero(AD > 0.050, axis=1)
    return {
        "rr_mean_nn": mean,
        "rr_sdnn": sd,
        "rr_rmssd": np.sqrt(np.sum(AD * AD, axis=1) / m),
        "rr_sdsd": sd_d,
        "rr_pnn50": nn50 / m,
        "rr_pnn20": np.count_nonzero(AD > 0.020, axis=1) / m,
        "rr_nn50_count": nn50.astype(float),
        "rr_median_nn": _median(_sorted_rows(X, mask), n),
        "hr_mean": hr_mean,
        "hr_sd": hr_sd,
    }


def hrv_time_features(values: np.ndarray, lo, hi) -> dict:
    """The 10 standard time-domain HRV measures of each window
    ``values[lo:hi]``, RR values in seconds: key -> column."""
    return _whole_night(_hrv_time_rows, HRV_TIME_NAMES, values, lo, hi)


# --- conventional statistics ---------------------------------------------

def _statistical_rows(values, lo, n) -> dict:
    X, mask, j = _padded(values, lo, n)
    S = _sorted_rows(X, mask)
    mean, sd, C = _moments(X, mask, n)
    # roundoff in the mean of a constant window can leave var a hair above
    # zero; treat such windows as degenerate
    degenerate = sd <= 1e-12 * np.maximum(1.0, np.abs(mean))
    sd[degenerate] = 0.0
    var = sd * sd
    C2 = C * C
    moments = (n >= 4) & ~degenerate
    skew = np.where(moments, np.sum(C2 * C, axis=1) / n / sd ** 3, np.nan)
    kurt = np.where(moments, np.sum(C2 * C2, axis=1) / n / var ** 2 - 3.0,
                    np.nan)  # excess
    ss = np.sum(C2, axis=1)

    def acf(k: int) -> np.ndarray:
        lagged = np.sum(C[:, :-k] * C[:, k:], axis=1)
        return np.where((n > k) & ~degenerate, lagged / ss, np.nan)

    median = _median(S, n)
    q05, q10, q25, q75, q90, q95 = (
        _quantile(S, n, q) for q in (0.05, 0.10, 0.25, 0.75, 0.90, 0.95))

    def trimmed_mean(k: np.ndarray) -> np.ndarray:
        # k = floor(frac * n), and 2k < n always
        kept = (j >= k[:, None]) & (j < (n - k)[:, None])
        return np.sum(np.where(kept, S, 0.0), axis=1) / (n - 2 * k)

    D, dmask = _diffs(X, mask)
    AD = np.where(dmask, np.abs(D), 0.0)
    _, sd_d, _ = _moments(D, dmask, n - 1)
    half = n // 2
    first = np.sum(np.where(j < half[:, None], X, 0.0), axis=1)
    above = mask & (X > _exact_means(values, lo, n, X, mask, mean)[:, None])
    # a run above the mean ends at j, and started after its last cell not
    # above the mean
    last_not_above = np.maximum.accumulate(np.where(above, -1, j), axis=1)
    longest_run = np.max(j - last_not_above, axis=1)
    # least-squares trend against interval index
    t_mid = (n - 1) / 2
    slope = (np.sum((j - t_mid[:, None]) * C, axis=1)
             / (n * (n * n - 1) / 12))
    return {
        "rr_stat_mean": mean,
        "rr_stat_sd": sd,
        "rr_stat_var": var,
        "rr_stat_min": S[:, 0],
        "rr_stat_max": _at(S, n - 1),
        "rr_stat_range": _at(S, n - 1) - S[:, 0],
        "rr_stat_median": median,
        "rr_stat_q05": q05, "rr_stat_q10": q10, "rr_stat_q25": q25,
        "rr_stat_q75": q75, "rr_stat_q90": q90, "rr_stat_q95": q95,
        "rr_stat_iqr": q75 - q25,
        "rr_stat_skew": skew,
        "rr_stat_kurt": kurt,
        "rr_stat_mad": _median(_sorted_rows(np.abs(S - median[:, None]), mask),
                               n),
        "rr_stat_cv": np.where(mean != 0, sd / mean, np.nan),
        "rr_stat_trim10": trimmed_mean(n // 10),
        "rr_stat_trim25": trimmed_mean(n // 4),
        "rr_stat_halves_diff": ((np.sum(X, axis=1) - first) / (n - half)
                                - first / half),
        "rr_stat_acf1": acf(1), "rr_stat_acf2": acf(2), "rr_stat_acf3": acf(3),
        "rr_stat_acf4": acf(4), "rr_stat_acf5": acf(5),
        "rr_stat_succ_mean_abs": np.sum(AD, axis=1) / (n - 1),
        "rr_stat_succ_sd": sd_d,
        "rr_stat_succ_max": np.max(AD, axis=1),
        "rr_stat_count_above_mean": 1.0 * np.count_nonzero(above, axis=1),
        "rr_stat_longest_run_above": 1.0 * longest_run,
        "rr_stat_trend_slope": slope,
        "rr_stat_trend_intercept": mean - slope * t_mid,
        "rr_stat_energy": np.sum(X * X, axis=1),
    }


def statistical_features(values: np.ndarray, lo, hi) -> dict:
    """The 34 conventional statistics of each window ``values[lo:hi]``:
    key -> column."""
    return _whole_night(_statistical_rows, STAT_NAMES, values, lo, hi)


# --- nonlinear ------------------------------------------------------------

def sample_entropy(values: np.ndarray, m: int = 2, r_frac: float = 0.2) -> float:
    """Sample entropy with template length m and tolerance r = r_frac * SD
    (Chebyshev distance), computed over all template pairs i != j.

    Every start index gives a template, so there are N - m + 1 templates of
    length m and N - m of length m + 1; Richman & Moorman (2000) use the
    first N - m at both lengths.

    Each unordered pair is compared once, by its lag d = j - i. The lags are
    folded into ceil(N/2) rows of N columns: row d - 1 holds |x[i + d] - x[i]|
    at columns i < N - d, a NaN, then lag N + 1 - d; for odd N the middle
    lag's second copy is NaN too. Templates of one lag are runs of m (or
    m + 1) columns of one row whose distances are all <= r; NaN compares
    false, so no template crosses the seam. Both counts are half of the
    ordered-pair counts, so a / b, and the result, are exactly theirs.
    """
    x = np.asarray(values, dtype=float)
    n = len(x)
    sd = np.std(x)
    if n < m + 2 or sd == 0:
        return np.nan
    r = r_frac * sd
    h = (n + 1) // 2
    y = np.concatenate((x[1:], [np.nan], x))
    dist = np.lib.stride_tricks.as_strided(y, (h, n), y.strides * 2,
                                           writeable=False) - x
    if n % 2:
        dist[-1, n - h:] = np.nan
    np.abs(dist, out=dist)
    close = dist <= r
    del dist  # the float rows go before the match arrays are made
    k = n - m + 1
    match = close[:, :k]
    for s in range(1, m):
        match = match & close[:, s:s + k]
    b = np.count_nonzero(match)
    a = np.count_nonzero(match[:, :-1] & close[:, m:])
    if b == 0 or a == 0:
        return np.nan
    return float(-np.log(a / b))


def _nonlinear_rows(values, lo, n) -> dict:
    sampen = [sample_entropy(values[a:a + k]) if k >= 50 else np.nan
              for a, k in zip(lo.tolist(), n.tolist())]
    X, mask, _ = _padded(values, lo, n)
    mean, _, _ = _moments(X, mask, n)
    zc = _zero_crossings(np.where(
        mask, X - _exact_means(values, lo, n, X, mask, mean)[:, None], 0.0))
    D, dmask = _diffs(X, mask)
    _, sd_d, _ = _moments(D, dmask, n - 1)
    _, sd_s, _ = _moments(X[:, :-1] + X[:, 1:], dmask, n - 1)
    return {
        "rr_sampen": np.array(sampen),
        "rr_zero_cross_count": 1.0 * zc,
        "rr_zero_cross_rate": zc / n,
        "rr_sd1": sd_d / np.sqrt(2),
        "rr_sd2": sd_s / np.sqrt(2),
    }


def nonlinear_features(values: np.ndarray, lo, hi) -> dict:
    """The sample entropy (NaN below 50 intervals, one ``sample_entropy`` call
    per longer window), the zero crossings of the mean and the Poincaré SD1
    and SD2 of each window ``values[lo:hi]``: key -> column."""
    return _whole_night(_nonlinear_rows, NONLINEAR_NAMES, values, lo, hi)


# --- sudden-variation features -------------------------------------------

def _center_means(epoch_means: np.ndarray, epoch_counts: np.ndarray
                  ) -> np.ndarray:
    """Each epoch's mean RR, NaN where it has no usable intervals."""
    return np.where((epoch_counts > 0) & np.isfinite(epoch_means),
                    epoch_means, np.nan)


def _window_epochs(epoch_means: np.ndarray, epoch_counts: np.ndarray,
                   n: int) -> dict:
    """The interval-weighted mean of the usable epoch means in each centre
    epoch's window of n epochs, clipped to the night, and their population
    SD around it; NaN for a window without one. Each window is a
    zero-padded row of means and counts, zero at unusable epochs."""
    mid = _center_means(epoch_means, epoch_counts)
    means = np.nan_to_num(mid)
    counts = np.where(np.isfinite(mid), epoch_counts, 0).astype(float)
    first, last = resolve_window(len(means), np.arange(len(means)), n)

    def block(x, lo, size):
        M, _, _ = _padded(x, lo, size)
        C, _, _ = _padded(counts, lo, size)
        mean = np.sum(M * C, axis=1) / np.sum(C, axis=1)
        dev = np.where(C > 0, M - mean[:, None], 0.0)
        return {"mean": mean, "sd": np.sqrt(
            np.sum(dev * dev, axis=1) / np.count_nonzero(C, axis=1))}
    return _whole_night(block, ("mean", "sd"), means, first, last + 1, min_n=0)


def novel_f1(epoch_means: np.ndarray, epoch_counts: np.ndarray,
             n: int) -> np.ndarray:
    """Each centre epoch's mean RR minus the mean over its (shrunken) window
    of n epochs; NaN where the centre epoch has no usable intervals."""
    return (_center_means(epoch_means, epoch_counts)
            - _window_epochs(epoch_means, epoch_counts, n)["mean"])


def novel_f2(epoch_means: np.ndarray, epoch_counts: np.ndarray,
             values: np.ndarray, lo, hi) -> np.ndarray:
    """Each centre epoch's mean RR minus the median of its window's raw RR
    values ``values[lo:hi]``; NaN where the centre epoch has no usable
    intervals."""
    mid = _center_means(epoch_means, epoch_counts)
    return mid - _whole_night(
        lambda x, lo, n: {"median": _median(_sorted_rows(*_padded(x, lo, n)[:2]), n)},
        ["median"], values, lo, hi, min_n=1, usable=np.isfinite(mid))["median"]


def novel_f3(epoch_means: np.ndarray, epoch_counts: np.ndarray,
             n: int) -> np.ndarray:
    """Population SD of the mean RRs of the epochs with usable intervals in
    each centre epoch's window of n epochs, around the all-window mean."""
    return _window_epochs(epoch_means, epoch_counts, n)["sd"]


# --- frequency domain -----------------------------------------------------

def _one_sided_power(y: np.ndarray) -> np.ndarray:
    """One-sided power spectrum along the last axis, normalized so the bins
    sum to mean(y^2)."""
    n = y.shape[-1]
    spec = np.fft.rfft(y, axis=-1)
    p = np.abs(spec) ** 2 / n ** 2
    p[..., 1:] *= 2.0
    if n % 2 == 0:
        p[..., -1] /= 2.0
    return p


def _hann_spectrum(X: np.ndarray, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies and one-sided power of each row of X, mean-removed and
    Hann-windowed."""
    n = X.shape[-1]
    Y = (X - np.mean(X, axis=-1, keepdims=True)) * np.hanning(n)
    return np.fft.rfftfreq(n, d=1.0 / fs), _one_sided_power(Y)


def _spectral_shape(freqs: np.ndarray, P: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The non-DC bins of each row's power spectrum as a distribution, its
    Shannon entropy normalised by the log of the bin count, and its
    centroid."""
    Q = P[:, 1:] / np.sum(P[:, 1:], axis=1, keepdims=True)
    plogp = np.where(Q > 0, Q * np.log(Q), 0.0)
    entropy = -np.sum(plogp, axis=1) / np.log(Q.shape[1])
    return Q, entropy, np.sum(freqs[1:] * Q, axis=1)


def _band(freqs: np.ndarray, lo: float, hi: float) -> slice:
    """The bins of ascending ``freqs`` in ``[lo, hi)``: a boundary bin
    belongs to the higher band."""
    return slice(*np.searchsorted(freqs, (lo, hi)))


def _grid_index(t: np.ndarray) -> np.ndarray:
    """Window edges in seconds as indices k of the 4 Hz grid ``k / 4`` s,
    which they must lie on."""
    k = np.rint(t * RESAMPLE_HZ).astype(int)
    if not np.array_equal(k / RESAMPLE_HZ, t):
        raise ValueError("window edges must lie on the 4 Hz grid")
    return k


def _grid_gather(at, values, lo, hi, k0, k1):
    """``take(r, m)``: the first m points of windows r of the 4 Hz grid,
    ``[k0, k1)``, one row each, from one ``np.interp`` over the whole grid
    of the series ``values`` whose points lie at ascending times ``at``.
    Each window holds its own first and last points ``lo`` and ``hi - 1``
    before and after them, as ``np.interp`` of its own points does."""
    if len(k0) == 0 or len(values) == 0:
        return None  # no window reads a point
    start = k0.min()
    grid = np.arange(start, k1.max()) / RESAMPLE_HZ
    series = np.interp(grid, at, values)

    def take(r, m):
        idx = (k0[r] - start)[:, None] + np.arange(m)
        first, last = lo[r, None], hi[r, None] - 1
        X = np.where(grid[idx] < at[first], values[first], series[idx])
        return np.where(grid[idx] > at[last], values[last], X)
    return take


def _freq_rows(X: np.ndarray) -> dict:
    """The 21 spectral features of each row of resampled RR values."""
    freqs, P = _hann_spectrum(X, RESAMPLE_HZ)
    rows = np.arange(len(P))
    total = np.sum(P, axis=1)
    live = total > 1e-12
    out = {"rrf_total_power": total}
    power = {}
    for name, (lo, hi) in (("vlf", VLF_BAND), ("lf", LF_BAND), ("hf", HF_BAND)):
        band = _band(freqs, lo, hi)
        power[name] = np.sum(P[:, band], axis=1)
        out[f"rrf_{name}_power"] = power[name]
        k = band.start + np.argmax(P[:, band], axis=1)
        out[f"rrf_{name}_peak_freq"] = np.where(live, freqs[k], np.nan)
        out[f"rrf_{name}_peak_power"] = np.where(live, P[rows, k], np.nan)
    out["rrf_band_power_04_10"] = np.sum(P[:, _band(freqs, 0.4, 1.0)], axis=1)

    lf, hf = power["lf"], power["hf"]
    denom = lf + hf
    Q, entropy, centroid = _spectral_shape(freqs, P)
    # the first bin where the cumulative share reaches q
    cum = np.cumsum(P, axis=1) / total[:, None]
    edge = {q: freqs[np.count_nonzero(cum < q, axis=1)] for q in (0.95, 0.5)}
    flatness = np.where(np.all(Q > 0, axis=1),
                        np.exp(np.mean(np.log(Q), axis=1)) / np.mean(Q, axis=1),
                        0.0)
    shape = {
        "rrf_lf_hf_ratio": np.where(hf > 0, lf / hf, np.nan),
        "rrf_lf_norm": np.where(denom > 0, lf / denom, np.nan),
        "rrf_hf_norm": np.where(denom > 0, hf / denom, np.nan),
        "rrf_hf_total_ratio": hf / total,
        "rrf_lf_total_ratio": lf / total,
        "rrf_spec_entropy": entropy,
        "rrf_spec_centroid": centroid,
        "rrf_sef95": edge[0.95],
        "rrf_median_freq": edge[0.5],
        "rrf_spec_flatness": flatness,
    }
    out.update((k, np.where(live, v, np.nan)) for k, v in shape.items())
    return out


def rr_freq_features(times: np.ndarray, values: np.ndarray, t0, t1) -> dict:
    """21 spectral features of each window ``[t0, t1)`` of the RR series
    resampled to a uniform 4 Hz grid, mean-removed and Hann-windowed:
    key -> column, one row per window.

    ``times`` and ``values`` are the night's usable intervals, start times
    ascending; a window holds the intervals starting inside it, resampled
    by ``_grid_gather``. A window with fewer than 4 intervals, shorter than
    30 s, or whose intervals span less than 75% of it, gets a NaN row.
    Windows of one sample count share one batched FFT.
    """
    times, values, t0, t1 = (np.asarray(x, dtype=float)
                             for x in (times, values, t0, t1))
    k0, k1 = _grid_index(t0), _grid_index(t1)
    lo, hi = np.searchsorted(times, t0), np.searchsorted(times, t1)
    win = t1 - t0
    rows = np.flatnonzero(hi - lo >= 4)
    rows = rows[(win[rows] >= 30.0 - 1e-9) & (
        times[hi[rows] - 1] - times[lo[rows]] >= 0.75 * win[rows])]
    take = _grid_gather(times, values, lo, hi, k0, k1)
    return _in_blocks(FREQ_NAMES, k1 - k0, rows,
                      lambda r, m: _freq_rows(take(r, m)))
