"""Raw-signal conditioning: R-peak detection, RR cleaning, breathing denoising."""
from __future__ import annotations

import numpy as np
from scipy import signal as sps
# the greedy selection by height that find_peaks(distance=) applies
from scipy.signal._peak_finding_utils import _select_by_peak_distance

from . import wavelet
from .errors import (CutoffAboveNyquist, FlatSignal, SignalTooShort,
                     SubjectUnusable, TooFewPeaks)
from .types import RrSeries, SignalTrace

RR_MIN_S = 0.3
RR_MAX_S = 2.0
REFRACTORY_S = 0.3
MAX_INTERP_RUN = 3
BREATH_CUTOFF_HZ = 1.0  # corner of the breathing belt's low-pass
BREATH_ORDER = 4  # its Butterworth order, applied forward and backward
_BLOCK = 1 << 16  # samples per block of the QRS filter and integrator


def _bandpass_qrs(x: np.ndarray, fs: float) -> np.ndarray:
    """Zero-phase 5-15 Hz band-pass emphasizing the QRS complex. Each end is
    extended by 150 ms at the median of its last 150 ms, the ECG's level
    between beats: a mirror image would double or cancel a beat a few samples
    from the end, and a shorter extension leaves the filter ringing there.

    This is ``sosfiltfilt(padtype=None)`` over the extended record, run in
    place over one array in ``_BLOCK``-sample blocks: each block's filter
    state carries into the next, so the output is that of one call."""
    hi = min(15.0, 0.45 * fs)
    sos = sps.butter(2, [5.0, hi], btype="bandpass", fs=fs, output="sos")
    pad = int(round(0.150 * fs))
    y = np.empty(len(x) + 2 * pad)
    y[:pad] = np.median(x[:pad])
    y[pad:-pad] = x
    y[-pad:] = np.median(x[-pad:])
    zi = sps.sosfilt_zi(sos)
    starts = range(0, len(y), _BLOCK)
    z = zi * y[0]
    for a in starts:
        y[a:a + _BLOCK], z = sps.sosfilt(sos, y[a:a + _BLOCK], zi=z)
    z = zi * y[-1]
    for a in reversed(starts):
        block = y[a:a + _BLOCK][::-1]
        block[:], z = sps.sosfilt(sos, block, zi=z)
    return y[pad:-pad]


def _maybe_flat(x: np.ndarray) -> bool:
    """Whether the population SD of x falls below 1e-8 * (1 + |mean|).
    range / sqrt(2n) bounds the SD from below and max(|min|, |max|) bounds
    |mean| from above, so ``np.std`` runs only where the bound does not clear
    twice the threshold, the factor a margin for rounding."""
    lo, hi = float(np.min(x)), float(np.max(x))
    if (hi - lo) / np.sqrt(2 * len(x)) >= 2e-8 * (1.0 + max(-lo, hi)):
        return False
    return bool(np.std(x) < 1e-8 * (1.0 + np.abs(np.mean(x))))


def _moving_sum(p: np.ndarray, win: int) -> np.ndarray:
    """The sums of the ``len(p) - win + 1`` windows ``p[s:s + win]``, by
    doubling: the window is split into spans of the powers of two in its
    length, each span's sums made from two of the span below."""
    total, offset = np.zeros(len(p) - win + 1), 0
    span, width = p, 1
    while True:
        if win & width:
            total += span[offset:offset + len(total)]
            offset += width
        if 2 * width > win:
            return total
        span = span[:-width] + span[width:]
        width *= 2


def _integrate(bp: np.ndarray, a: int, b: int, win: int) -> np.ndarray:
    """Outputs ``a:b`` of the moving-window mean of the squared
    ``np.gradient(bp)``, without a record-length square. Output i averages the
    squares ``sq[i - win // 2:i - win // 2 + win]``, where
    ``np.convolve(mode="same")`` puts its window, with zeros past the record's
    ends. Each output is summed from its own window alone, so any split of the
    record into spans gives the same values."""
    half = win // 2
    lo, hi = max(0, a - half), min(len(bp), b - half + win - 1)
    # one sample of margin keeps the differences at lo and hi - 1 central
    grad = np.gradient(bp[max(0, lo - 1):hi + 1])[min(lo, 1):][:hi - lo]
    sq = np.zeros(b - a + win - 1)
    sq[lo - a + half:hi - a + half] = grad * grad
    return _moving_sum(sq, win) * (1.0 / win)


def _candidates(blocks, distance: int) -> tuple[np.ndarray, np.ndarray]:
    """``sps.find_peaks(x, distance=distance)`` and the peaks' heights, where
    ``x`` is the concatenation of ``blocks`` and is never built.

    The plateau-aware local maxima are found block by block. A run of equal
    values at a block's end may be a plateau whose right neighbour lies
    beyond it, so that run and the one sample before it are carried to the
    front of the next block; a block that only continues that run holds no
    peak and joins the carry uncopied, so a run over many blocks, as a flat
    stretch of ECG makes, is copied once. The greedy selection by height then
    runs once, over the candidates, through the routine ``find_peaks`` itself
    calls."""
    found, heights = [], []
    carry, start = [], 0
    for block in blocks:
        if carry and block[0] == block[-1] == carry[-1][-1] and (
                block == block[0]).all():
            carry.append(block)
            continue
        x = np.concatenate([*carry, block])
        peaks, _ = sps.find_peaks(x)
        found.append(peaks + start)
        heights.append(x[peaks])
        cut = max(len(x) - 2, 0)
        if x[cut] == x[-1]:  # the run is longer than the last sample
            differ = np.flatnonzero(x != x[-1])
            cut = differ[-1] if len(differ) else 0
        carry, start = [x[cut:]], start + cut
    cand, level = np.concatenate(found), np.concatenate(heights)
    keep = _select_by_peak_distance(cand, level, distance)
    return cand[keep], level[keep]


def detect_r_peaks(ecg: SignalTrace) -> np.ndarray:
    """Pan-Tompkins style R-peak detection.

    Band-pass -> derivative -> squaring -> 150 ms moving-window integration ->
    adaptive dual threshold with a 300 ms refractory period; each detection is
    refined to the local maximum of the band-passed signal within +/-50 ms, or
    on to the record's end from within half an integration window of it.

    Besides the band-passed record, only one block of the integrator and the
    candidates' positions and heights are held at a time.
    """
    fs = ecg.sample_rate_hz
    if fs < 100:
        raise SubjectUnusable(f"sample rate {fs} Hz too low for QRS detection")
    x = ecg.samples
    if len(x) / fs < 10.0:
        raise SignalTooShort(f"need >= 10 s of ECG, got {len(x) / fs:.1f} s")
    if _maybe_flat(x):
        raise FlatSignal("ECG variance below detection threshold")

    bp = _bandpass_qrs(x, fs)
    win = max(1, int(round(0.150 * fs)))
    n = len(bp)

    # candidate local maxima of the integrated signal, and their levels
    cand, levels = _candidates(
        (_integrate(bp, a, min(a + _BLOCK, n), win) for a in range(0, n, _BLOCK)),
        max(1, int(round(REFRACTORY_S * fs))))
    if len(cand) == 0:
        raise FlatSignal("no candidate peaks in integrated signal")

    lead = _integrate(bp, 0, int(2 * fs), win)  # the record holds >= 10 s
    spki = float(np.max(lead))
    npki = float(np.mean(lead))
    refine = max(1, int(round(0.050 * fs)))
    refr = int(round(REFRACTORY_S * fs))

    # refine every candidate to the first maximum of the band-passed signal
    # within +/-refine samples; clipping repeats only the edge samples, so
    # the first maximum is the one the unclipped window would give. The
    # windows are gathered for about a block's worth of samples at a time.
    offsets = np.arange(-refine, refine + 1)
    refined = np.empty_like(cand)
    step = max(1, _BLOCK // len(offsets))
    for s in range(0, len(cand), step):
        near = np.clip(cand[s:s + step, None] + offsets, 0, n - 1)
        refined[s:s + step] = near[np.arange(len(near)), np.argmax(bp[near], axis=1)]
    # zeros past either end pull an end beat's integrator candidate up to
    # half the window inward, so a window that close runs on to the end
    reach = refine + win // 2
    for i in np.flatnonzero((cand < reach) | (cand >= n - reach)).tolist():
        lo = 0 if cand[i] < reach else cand[i] - refine
        hi = n if cand[i] >= n - reach else cand[i] + refine + 1
        refined[i] = lo + np.argmax(bp[lo:hi])

    peaks: list[int] = []
    for level, r in zip(levels.tolist(), refined.tolist()):
        if level >= npki + 0.25 * (spki - npki) and (
                not peaks or r - peaks[-1] >= refr):
            peaks.append(r)
            spki = 0.125 * level + 0.875 * spki
        else:
            npki = 0.125 * level + 0.875 * npki

    if not peaks:
        raise FlatSignal("adaptive threshold found no QRS complexes")
    return np.array(peaks, dtype=int)


def rr_from_peaks(peaks: np.ndarray, sample_rate_hz: float) -> RrSeries:
    """RR intervals from peak indices, with physiological rejection.

    Intervals outside [0.3 s, 2.0 s] are masked invalid; interior runs of at
    most three invalid intervals are replaced by linear interpolation between
    the neighboring valid values (mask stays False).
    """
    peaks = np.asarray(peaks)
    if len(peaks) < 2:
        raise TooFewPeaks(f"need >= 2 peaks, got {len(peaks)}")
    times = peaks.astype(float) / sample_rate_hz
    intervals = np.diff(times)
    valid = (intervals >= RR_MIN_S) & (intervals <= RR_MAX_S)

    # starts and ends of the invalid runs alternate among the mask's edges
    starts, ends = np.flatnonzero(
        np.diff(~valid, prepend=False, append=False)).reshape(-1, 2).T
    fill = (starts > 0) & (ends < len(valid)) & (ends - starts <= MAX_INTERP_RUN)
    values = intervals.copy()
    for i, j in zip(starts[fill].tolist(), ends[fill].tolist()):
        left, right, run = values[i - 1], values[j], j - i
        values[i:j] = left + (right - left) * np.arange(1, run + 1) / (run + 1)
    return RrSeries(peak_times_s=times, intervals_s=values, valid_mask=valid)


def usable_intervals(rr: RrSeries) -> tuple[np.ndarray, np.ndarray]:
    """First-peak times and values of the intervals in [0.3 s, 2.0 s], the
    ones safe for feature extraction: valid ones and interpolated replacements,
    which lie between two in-range values."""
    keep = (rr.intervals_s >= RR_MIN_S) & (rr.intervals_s <= RR_MAX_S)
    return rr.peak_times_s[:-1][keep], rr.intervals_s[keep]


def butterworth_lowpass(trace: SignalTrace) -> SignalTrace:
    """Zero-phase (forward-backward) Butterworth low-pass at 1 Hz."""
    nyq = trace.sample_rate_hz / 2.0
    if BREATH_CUTOFF_HZ >= nyq:
        raise CutoffAboveNyquist(f"cutoff {BREATH_CUTOFF_HZ} Hz >= Nyquist {nyq} Hz")
    sos = sps.butter(BREATH_ORDER, BREATH_CUTOFF_HZ, btype="lowpass",
                     fs=trace.sample_rate_hz, output="sos")
    y = sps.sosfiltfilt(sos, trace.samples, padtype="even")
    return trace.with_samples(y)


def remove_baseline_wavelet(breath: SignalTrace) -> SignalTrace:
    """Subtract the deepest-level wavelet approximation (baseline offset)."""
    if breath.duration_s < 60.0:
        raise SignalTooShort(
            f"need >= 60 s for baseline estimation, got {breath.duration_s:.1f} s")
    depth = wavelet.baseline_depth(breath.sample_rate_hz)
    baseline = wavelet.approximation(breath.samples, depth)
    return breath.with_samples(breath.samples - baseline)


def preprocess_breathing(breath: SignalTrace) -> SignalTrace:
    """Baseline removal followed by the 1 Hz low-pass."""
    return butterworth_lowpass(remove_baseline_wavelet(breath))
